"""Serving hot path: batched nearest-centroid assignment from the registry.

The :class:`Predictor` answers one-to-many assignment queries against a
registry entry's centroids.  Its contract mirrors training assignment:

* labels come from the *counted* certified nearest-centroid op
  (:func:`repro.common.distance.nearest_centroids`): a blocked GEMM scan
  whose certificate proves each label equal to the argmin of the exact
  kernel (:func:`~repro.common.distance.chunked_sq_distances`,
  bit-identical to the scalar helpers), with near-ties recomputed by that
  kernel and resolved by ``np.argmin``'s first-index tie-break — the
  fit's own tie-breaking;
* every served label is therefore **equal** to the label the fit itself
  would assign against its final centroids — and for a *converged* fit
  the final centroids are a fixed point of assignment, so served labels
  equal the stored fit labels exactly (the round-trip identity the
  serving-smoke CI job asserts).

Payloads are loaded memory-mapped from the registry (``np.load`` with
``mmap_mode``): the label vector and any future large artifacts stay on
disk until touched, while the centroids — small and hit on every request
— are materialized once into a contiguous float64 *warm cache* at
construction, so the steady-state request path never faults a page or
re-reads the manifest.

``repro/serve/`` is in the analyzer's instrumented scope: R001 and R008
hold this module to distance math through the counted kernels only.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.common.distance import nearest_centroids, sq_norms
from repro.common.exceptions import ValidationError
from repro.instrumentation.counters import OpCounters
from repro.serve.registry import MODEL_KIND, ModelRegistry, RegistryEntry


class Predictor:
    """Warm-cache nearest-centroid server over one registry entry."""

    def __init__(self, registry: ModelRegistry, key: Optional[str] = None) -> None:
        self.registry = registry
        entry: RegistryEntry
        if key is None:
            entry = registry.latest(kind=MODEL_KIND)
        else:
            entry = registry.load(key)
        if entry.kind != MODEL_KIND:
            raise ValidationError(
                f"registry entry {entry.key} is a {entry.kind!r}, not a model"
            )
        self.entry = entry
        # Warm cache: the mmap'd payload is materialized into one
        # contiguous float64 block so every request hits RAM, never the
        # page cache, and the kernel sees the layout it was benchmarked on.
        self._centroids = np.ascontiguousarray(
            entry.array("centroids", mmap_mode="r"), dtype=np.float64
        )
        if self._centroids.ndim != 2:
            raise ValidationError(
                f"centroids payload of entry {entry.key} has "
                f"{self._centroids.ndim} dimensions, expected 2"
            )
        self._c_sq = sq_norms(self._centroids)
        #: serving-side counters, same cost model as training (one charge
        #: per point-centroid pair); read/reset by the bench and stats
        self.counters = OpCounters()
        self._requests = 0
        self._points = 0

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        return self._centroids.shape[0]

    @property
    def d(self) -> int:
        return self._centroids.shape[1]

    @property
    def centroids(self) -> np.ndarray:
        """The warm centroid cache (read-only view)."""
        view = self._centroids.view()
        view.setflags(write=False)
        return view

    def stats(self) -> Dict[str, Any]:
        """Serving counters: requests answered, points assigned, distances."""
        return {
            "key": self.entry.key,
            "k": self.k,
            "d": self.d,
            "requests": self._requests,
            "points": self._points,
            "distance_computations": self.counters.distance_computations,
        }

    # ------------------------------------------------------------------
    # The hot path.
    # ------------------------------------------------------------------

    def predict(
        self, X: np.ndarray, counters: Optional[OpCounters] = None
    ) -> np.ndarray:
        """Assign each row of ``X`` to its nearest centroid.

        One certified nearest-centroid pass: it charges ``len(X) * k``
        distances to the predictor's counters (or the caller's), and ties
        resolve to the first index — the same tie-break as every training
        assignment path.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValidationError(
                f"query points have shape {X.shape}, expected (m, {self.d})"
            )
        labels = nearest_centroids(
            X, self._centroids,
            self.counters if counters is None else counters,
            c_sq=self._c_sq,
        )
        self._requests += 1
        self._points += X.shape[0]
        return labels

    def predict_one(self, x: np.ndarray) -> int:
        """Assign a single point (convenience over :meth:`predict`)."""
        return int(self.predict(np.atleast_2d(x))[0])


__all__ = ["Predictor"]
