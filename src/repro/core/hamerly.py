"""Hamerly's algorithm (Hamerly 2010) — one global lower bound (Section 4.2.1).

Instead of Elkan's ``n * k`` bounds, each point stores only ``ub(i)`` and a
single ``lb(i)``: a lower bound on the distance to the *second-closest*
centroid.  The global test ``max(lb(i), s(a)) >= ub(i)`` keeps the point in
place; on failure the upper bound is tightened and re-tested; only then does
a full scan over all ``k`` centroids happen, refreshing both bounds exactly.

Space drops from O(nk) to O(n) and so does the bound-update cost — the
trade-off that puts Hame on the paper's leaderboard (Figure 12).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import KMeansAlgorithm
from repro.core.pruning import centroid_separations, second_max, two_smallest


class HamerlyKMeans(KMeansAlgorithm):
    """Hamerly's k-means with global upper/lower bounds."""

    name = "hamerly"

    def __init__(self) -> None:
        super().__init__()
        self._ub: np.ndarray | None = None
        self._lb: np.ndarray | None = None

    def _setup(self) -> None:
        self.counters.record_footprint(2 * len(self.X))

    def _initial_scan(self) -> None:
        """First-iteration full scan seeding ``ub`` and ``lb``."""
        dists = self._full_scan_assign()
        n = len(self.X)
        idx = np.arange(n)
        self._ub = dists[idx, self._labels].copy()
        masked = dists.copy()
        masked[idx, self._labels] = np.inf
        self._lb = masked.min(axis=1) if self.k > 1 else np.full(n, np.inf)
        self.counters.add_bound_updates(2 * n)

    def _assign(self, iteration: int) -> None:
        if iteration == 0:
            self._initial_scan()
            return
        _, s = centroid_separations(self._centroids, self.counters)
        labels = self._labels
        ub = self._ub
        lb = self._lb
        counters = self.counters
        # Global test, vectorized over all points (2n bound reads either way);
        # only survivors enter the pointwise tighten-and-rescan loop.
        thresholds = np.maximum(lb, s[labels])
        counters.add_bound_accesses(2 * len(self.X))
        for i in np.flatnonzero(ub > thresholds):
            i = int(i)
            a = int(labels[i])
            threshold = float(thresholds[i])
            # Tighten the upper bound with one exact distance, re-test.
            da = self._point_centroid_distance(i, a)
            ub[i] = da
            counters.add_bound_updates(1)
            if da <= threshold:
                continue
            self._rescan_point(i)

    def _rescan_point(self, i: int) -> None:
        """Full scan of all centroids; refresh labels and both bounds."""
        dists = self._point_distances(i, np.arange(self.k))
        best, d1, d2 = two_smallest(dists)
        self._labels[i] = best
        self._ub[i] = d1
        self._lb[i] = d2
        self.counters.add_bound_updates(2)

    def _update_bounds(self, drifts: np.ndarray) -> None:
        top_j, top, second = second_max(drifts)
        self._ub += drifts[self._labels]
        decay = np.where(self._labels == top_j, second, top)
        self._lb -= decay
        self.counters.add_bound_updates(2 * len(self.X))
