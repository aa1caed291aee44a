"""Elkan's algorithm (Elkan 2003) — inter-bound plus drift-bound (Section 4.1).

State per point: an upper bound ``ub(i)`` on the distance to its assigned
centroid and a lower bound ``lb(i, j)`` for every centroid.  Pruning tests:

* global: ``ub(i) <= s(a(i))`` where ``s(j)`` is half the distance from
  ``c_j`` to its closest other centroid — the point cannot leave its cluster;
* local (per candidate ``j``): ``lb(i, j) >= ub(i)`` or
  ``0.5 * d(c_a, c_j) >= ub(i)``.

After refinement, ``ub`` grows by the assigned centroid's drift and every
``lb(i, j)`` shrinks by ``c_j``'s drift — the ``n * k`` bound updates that
make Elkan memory- and update-heavy, which the paper's Figures 10/11 call
out and this implementation's counters reproduce.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import KMeansAlgorithm
from repro.core.pruning import centroid_separations


class ElkanKMeans(KMeansAlgorithm):
    """Elkan's triangle-inequality k-means with full per-centroid bounds.

    The two bound families of Section 4.1 can be ablated independently:

    ``use_inter``
        The inter-centroid bounds — the global test ``ub <= s(a)`` and the
        local test ``0.5 * d(c_a, c_j) >= ub`` (costs k(k-1)/2 distances
        per iteration).
    ``use_drift``
        The drift-maintained lower-bound matrix ``lb(i, j)`` (costs n*k
        bound updates per iteration).

    Both default on (the paper's Elka); turning one off reproduces the
    ablation of which mechanism carries the pruning on a given dataset.
    """

    name = "elkan"

    def __init__(self, *, use_inter: bool = True, use_drift: bool = True) -> None:
        super().__init__()
        if not use_inter and not use_drift:
            from repro.common.exceptions import ConfigurationError

            raise ConfigurationError(
                "at least one of use_inter/use_drift must be enabled"
            )
        self.use_inter = bool(use_inter)
        self.use_drift = bool(use_drift)
        self._ub: np.ndarray | None = None
        self._lb: np.ndarray | None = None

    def _setup(self) -> None:
        n = len(self.X)
        self.counters.record_footprint(n * self.k + n)

    def _initial_scan(self) -> None:
        """First-iteration full scan seeding ``ub`` and the ``lb`` matrix."""
        dists = self._full_scan_assign()
        self._lb = dists
        self._ub = dists[np.arange(len(self.X)), self._labels].copy()
        self.counters.add_bound_updates(dists.size + len(self.X))

    def _assign(self, iteration: int) -> None:
        if iteration == 0:
            self._initial_scan()
            return

        if self.use_inter:
            cc, s = centroid_separations(self._centroids, self.counters)
        else:
            cc = None
            s = np.zeros(self.k)  # never prunes
        n = len(self.X)
        labels = self._labels
        ub = self._ub
        lb = self._lb
        counters = self.counters
        # Global test, vectorized (n bound reads); survivors go pointwise.
        counters.add_bound_accesses(n)
        for i in np.flatnonzero(ub > s[labels]):
            i = int(i)
            a = int(labels[i])
            u = float(ub[i])
            # Candidate filter: both Elkan conditions over all j != a.
            row = lb[i]
            counters.bound_accesses += self.k
            mask = row < u
            if cc is not None:
                mask &= 0.5 * cc[a] < u
            mask[a] = False
            candidates = np.flatnonzero(mask)
            if len(candidates) == 0:
                continue
            # Tighten ub to the exact distance, then re-test.
            da = self._point_centroid_distance(i, a)
            ub[i] = da
            lb[i, a] = da
            counters.add_bound_updates(2)
            u = da
            for j in candidates:
                counters.bound_accesses += 2
                if lb[i, j] >= u or (
                    cc is not None and 0.5 * cc[int(labels[i]), j] >= u
                ):
                    continue
                dij = self._point_centroid_distance(i, int(j))
                lb[i, j] = dij
                counters.add_bound_updates(1)
                if dij < u:
                    labels[i] = j
                    ub[i] = dij
                    counters.add_bound_updates(1)
                    u = dij

    def _update_bounds(self, drifts: np.ndarray) -> None:
        if self.use_drift:
            self._lb -= drifts[None, :]
            np.maximum(self._lb, 0.0, out=self._lb)
            self.counters.add_bound_updates(self._lb.size)
        else:
            # Ablation: without drift maintenance the matrix is invalid
            # after refinement; zero is the only sound lower bound.
            self._lb.fill(0.0)
        self._ub += drifts[self._labels]
        self.counters.add_bound_updates(len(self._ub))
