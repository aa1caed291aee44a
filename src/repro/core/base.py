"""Algorithm base class: the shared iterate/refine/instrument skeleton.

Every exact accelerated k-means method implements the same contract
(:meth:`KMeansAlgorithm._assign` plus optional hooks), and the base class
owns everything the evaluation framework needs to be *fair*: one
initialization path, one convergence rule, one refinement implementation,
one instrumentation scheme.  This mirrors the paper's UniK framework design
goal — "existing methods fit into a unified pipeline so the comparison is
apples-to-apples" (Section 5).

Refinement modes (Section 5.1.2):

``rescan``
    Traditional refinement — re-read every point each iteration
    (``n`` point accesses).
``delta``
    Ding et al.'s optimization — update sums with only the points that
    changed cluster (point accesses = number of moved points).
``none``
    The algorithm maintains cluster sum vectors itself during assignment
    (UniK's incremental refinement; zero extra accesses).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional

import numpy as np

from repro.common.distance import chunked_sq_distances, euclidean, one_to_many_distances
from repro.common.exceptions import ConfigurationError
from repro.common.rng import SeedLike, ensure_rng
from repro.common.validation import check_data_matrix, check_k
from repro.core.initialization import initialize_centroids
from repro.core.refinement import accumulate_cluster_sums, centroid_drifts
from repro.core.result import IterationStats, KMeansResult
from repro.instrumentation.counters import OpCounters
from repro.instrumentation.timers import PhaseTimer

#: iteration cap used across the paper's measurements ("the running time of
#: the first ten iterations", Section 7.1)
DEFAULT_MAX_ITER = 50


def compute_sse(X: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    """Sum of squared errors (Equation 1).  Not charged to any counter."""
    diff = X - centroids[labels]
    # repro: ignore[R001] — SSE is a quality metric, deliberately uncounted
    return float(np.einsum("ij,ij->", diff, diff))


class KMeansAlgorithm(abc.ABC):
    """Template for exact accelerated Lloyd's algorithms.

    Subclasses implement :meth:`_assign` (one assignment pass over the data
    given ``self._centroids``, writing ``self._labels``) and may override
    :meth:`_setup` (precomputation: index build, norm tables, ...),
    :meth:`_seed` (initial centroids), :meth:`_update_bounds`
    (drift-correct stored bounds after refinement), :meth:`_cluster_sums`
    (the ``rescan`` scatter-add) and :meth:`_refine` (only UniK replaces
    it, for sum-vector refinement).
    """

    #: registry name, overridden by subclasses
    name: str = "base"
    #: execution backend: "reference" (pointwise scalar loops, the ground
    #: truth for OpCounters semantics) or "vectorized" (NumPy-batched,
    #: counter- and trajectory-identical; see repro.core.vectorized and
    #: docs/backends.md)
    backend: str = "reference"
    #: refinement mode: "rescan", "delta" or "none" (see module docstring)
    refinement: str = "delta"

    def __init__(self) -> None:
        self.X: Optional[np.ndarray] = None
        self.k: int = 0
        self.counters = OpCounters()
        self._centroids: Optional[np.ndarray] = None
        self._labels: Optional[np.ndarray] = None
        self._sums: Optional[np.ndarray] = None
        self._counts: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        k: int,
        *,
        init: str = "k-means++",
        initial_centroids: Optional[np.ndarray] = None,
        max_iter: int = DEFAULT_MAX_ITER,
        tol: float = 0.0,
        seed: SeedLike = None,
        record_sse: bool = False,
    ) -> KMeansResult:
        """Cluster ``X`` into ``k`` clusters.

        Parameters
        ----------
        X:
            Data matrix of shape ``(n, d)``.
        k:
            Number of clusters.
        init:
            ``"k-means++"`` (default) or ``"random"``; ignored when
            ``initial_centroids`` is given.
        initial_centroids:
            Explicit ``(k, d)`` starting centroids — the evaluation harness
            passes the same array to every algorithm so runs are comparable.
        max_iter:
            Iteration cap.  The paper measures the first ten iterations;
            the harness passes ``max_iter=10`` for timing experiments.
        tol:
            Centroid-drift threshold for convergence.  The default ``0.0``
            requires exact convergence (no centroid moved), which is
            reached in finitely many iterations because refinement from
            identical memberships reproduces identical centroids.
        seed:
            Seed controlling initialization.
        record_sse:
            Record the SSE after every iteration in ``iteration_stats``
            (one uncounted full pass per iteration; off by default).
        """
        self.X = check_data_matrix(X)
        n, d = self.X.shape
        self.k = check_k(k, n)
        if max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
        rng = ensure_rng(seed)
        self.counters = OpCounters()
        timer = PhaseTimer()

        with timer.phase("setup"):
            self._setup()

        with timer.phase("init"):
            if initial_centroids is not None:
                centroids = check_data_matrix(initial_centroids, copy=True)
                if centroids.shape != (self.k, d):
                    raise ConfigurationError(
                        f"initial_centroids must have shape ({self.k}, {d}), "
                        f"got {centroids.shape}"
                    )
            else:
                centroids = self._seed(init, rng)
        self._centroids = centroids
        self._labels = np.full(n, -1, dtype=np.intp)
        self._sums = np.zeros((self.k, d))
        self._counts = np.zeros(self.k, dtype=np.intp)

        iteration_stats: List[IterationStats] = []
        converged = False
        n_iter = 0
        for t in range(max_iter):
            timer.start_iteration()
            before = self.counters.snapshot()
            previous_labels = self._labels.copy()
            with timer.phase("assignment"):
                self._assign(t)
            with timer.phase("refinement"):
                new_centroids = self._refine(t, previous_labels)
            drifts = centroid_drifts(new_centroids, self._centroids)
            self._centroids = new_centroids
            n_iter = t + 1
            changed = int(np.count_nonzero(previous_labels != self._labels))
            delta = self.counters.snapshot() - before
            iteration_stats.append(
                IterationStats(
                    iteration=t,
                    assignment_time=timer.iterations[t].get("assignment", 0.0),
                    refinement_time=timer.iterations[t].get("refinement", 0.0),
                    distance_computations=delta.distance_computations,
                    point_accesses=delta.point_accesses,
                    node_accesses=delta.node_accesses,
                    bound_accesses=delta.bound_accesses,
                    bound_updates=delta.bound_updates,
                    changed=changed,
                    sse=(
                        compute_sse(self.X, self._labels, self._centroids)
                        if record_sse
                        else None
                    ),
                )
            )
            if float(drifts.max(initial=0.0)) <= tol:
                converged = True
                break
            self._update_bounds(drifts)

        result = KMeansResult(
            algorithm=self.name,
            n=n,
            d=d,
            k=self.k,
            labels=self._labels.copy(),
            centroids=self._centroids.copy(),
            n_iter=n_iter,
            converged=converged,
            sse=compute_sse(self.X, self._labels, self._centroids),
            counters=self.counters.snapshot(),
            footprint_floats=self.counters.footprint_floats,
            assignment_time=timer.total("assignment"),
            refinement_time=timer.total("refinement"),
            setup_time=timer.total("setup"),
            init_time=timer.total("init"),
            iteration_stats=iteration_stats,
            extras={"backend": self.backend, **self._extras()},
        )
        return result

    # ------------------------------------------------------------------
    # Hooks for subclasses.
    # ------------------------------------------------------------------

    def _setup(self) -> None:
        """Pre-clustering work: index construction, norm tables, bounds."""

    def _seed(self, init: str, rng: np.random.Generator) -> np.ndarray:
        """Initial ``(k, d)`` centroids drawn by method ``init`` from ``rng``.

        Every backend seeds through the same code (k-means++ through the
        certified D² update, docs/backends.md, "seeding parity"), so both
        backends start from the same centroids under the same RNG stream.
        """
        return initialize_centroids(self.X, self.k, init, seed=rng)

    @abc.abstractmethod
    def _assign(self, iteration: int) -> None:
        """One assignment pass: update ``self._labels`` in place."""

    def _update_bounds(self, drifts: np.ndarray) -> None:
        """Drift-correct stored bounds after centroids moved."""

    def _extras(self) -> Dict[str, Any]:
        """Algorithm-specific result annotations."""
        return {}

    # ------------------------------------------------------------------
    # Refinement.
    # ------------------------------------------------------------------

    def _refine(self, iteration: int, previous_labels: np.ndarray) -> np.ndarray:
        """Compute new centroids according to the refinement mode."""
        if self.refinement == "rescan":
            # Zero-base scatter-add: bincount is bitwise-identical to the
            # previous fill(0) + np.add.at and ~3x faster (repro.core.refinement).
            self._sums[:] = self._cluster_sums()
            self._counts = np.bincount(self._labels, minlength=self.k).astype(np.intp)
            self.counters.add_point_accesses(len(self.X))
        elif self.refinement == "delta":
            # Accumulates into non-zero sums, where bincount's partial-sum
            # rounding would differ from add.at's — see repro.core.refinement.
            moved = np.flatnonzero(previous_labels != self._labels)
            if len(moved):
                moved_points = self.X[moved]
                new = self._labels[moved]
                np.add.at(self._sums, new, moved_points)
                self._counts += np.bincount(new, minlength=self.k)
                old = previous_labels[moved]
                valid = old >= 0
                if valid.any():
                    np.subtract.at(self._sums, old[valid], moved_points[valid])
                    self._counts -= np.bincount(old[valid], minlength=self.k)
            self.counters.add_point_accesses(len(moved))
        elif self.refinement == "none":
            pass  # the algorithm maintained self._sums/_counts during _assign
        else:  # pragma: no cover - guarded by constructor conventions
            raise ConfigurationError(f"unknown refinement mode {self.refinement!r}")
        new_centroids = self._centroids.copy()
        nonempty = self._counts > 0
        new_centroids[nonempty] = self._sums[nonempty] / self._counts[nonempty, None]
        return new_centroids

    def _cluster_sums(self) -> np.ndarray:
        """Zero-base per-cluster sums of every row, for ``rescan`` refinement.

        Any override must be bitwise equal to
        :func:`~repro.core.refinement.accumulate_cluster_sums`.
        """
        return accumulate_cluster_sums(self.X, self._labels, self.k)

    # ------------------------------------------------------------------
    # Shared helpers for subclasses.
    # ------------------------------------------------------------------

    def _full_scan_assign(self) -> np.ndarray:
        """Vectorized Lloyd assignment pass; returns the distance matrix.

        Charges ``n * k`` distances and ``n * k`` point accesses (the
        paper's Table 3 convention: each distance touches its point).
        """
        sq = chunked_sq_distances(self.X, self._centroids, self.counters)
        self.counters.add_point_accesses(sq.size)
        self._labels = np.argmin(sq, axis=1).astype(np.intp)
        return np.sqrt(sq)

    def _point_centroid_distance(self, i: int, j: int) -> float:
        """Counted distance from point ``i`` to centroid ``j``."""
        self.counters.point_accesses += 1
        return euclidean(self.X[i], self._centroids[j], self.counters)

    def _point_distances(self, i: int, centroid_idx: np.ndarray) -> np.ndarray:
        """Counted distances from point ``i`` to a set of centroids."""
        self.counters.point_accesses += len(centroid_idx)
        return one_to_many_distances(
            self.X[i], self._centroids[centroid_idx], self.counters
        )
