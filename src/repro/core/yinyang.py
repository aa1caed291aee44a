"""Yinyang k-means (Ding et al. 2015) — group pruning (Section 4.2.3).

Centroids are grouped once, in the first iteration, by a small k-means run
over the initial centroids (``t = ceil(k / 10)`` groups).  Each point keeps
an upper bound and one lower bound *per group* on the distance to the
nearest non-assigned centroid of that group.  Pruning runs in three tiers:

* global: ``ub(i) <= min_g lb(i, g)`` — the point stays put;
* group: groups with ``lb(i, g) >= ub(i)`` are skipped wholesale;
* local: within a scanned group, centroid ``j`` is skipped when its
  individually reconstructed bound ``lb_old(i, g) - drift(j)`` still
  exceeds the current upper bound.

Group bounds decay by the *maximum* drift within the group, which is why
Yinyang's bound maintenance is so much cheaper than Elkan's (Figure 11).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import KMeansAlgorithm
from repro.core.pruning import (
    GroupView,
    default_group_count,
    group_centroids_kmeans,
)


class YinyangKMeans(KMeansAlgorithm):
    """Yinyang k-means with global/group/local pruning tiers."""

    name = "yinyang"

    def __init__(self, t: Optional[int] = None, *, group_seed: int = 0) -> None:
        super().__init__()
        self._t_param = t
        self._group_seed = group_seed
        self.groups: Optional[GroupView] = None
        self._ub: Optional[np.ndarray] = None
        self._glb: Optional[np.ndarray] = None  # (n, t) group lower bounds
        self._last_drifts: Optional[np.ndarray] = None

    def _setup(self) -> None:
        t = self._t_param if self._t_param is not None else default_group_count(self.k)
        self._t = max(1, min(int(t), self.k))
        n = len(self.X)
        self.counters.record_footprint(n * self._t + n)

    def _initial_scan(self) -> None:
        """First-iteration grouping + full scan seeding ``ub`` and ``glb``.

        The vectorized backend overrides this with a certified GEMM scan
        that evaluates exactly only the ``n*(t+1)`` entries stored here, in
        the same einsum-family bits (``VectorizedYinyangKMeans``).
        """
        self.groups = GroupView(
            group_centroids_kmeans(self._centroids, self._t, seed=self._group_seed)
        )
        dists = self._full_scan_assign()
        n = len(self.X)
        self._ub = dists[np.arange(n), self._labels].copy()
        masked = dists.copy()
        masked[np.arange(n), self._labels] = np.inf
        self._glb = np.empty((n, self.groups.t))
        for g, members in enumerate(self.groups.members):
            self._glb[:, g] = masked[:, members].min(axis=1)
        self.counters.add_bound_updates(n * (self.groups.t + 1))

    def _assign(self, iteration: int) -> None:
        if iteration == 0:
            self._initial_scan()
            return

        counters = self.counters
        glb = self._glb
        ub = self._ub
        # Global test, vectorized over points ((t+1) * n bound reads either
        # way); only survivors enter the pointwise group scan.
        gmins = glb.min(axis=1)
        counters.add_bound_accesses((self.groups.t + 1) * len(self.X))
        for i in np.flatnonzero(ub > gmins):
            i = int(i)
            gmin = float(gmins[i])
            a = int(self._labels[i])
            da = self._point_centroid_distance(i, a)
            ub[i] = da
            counters.add_bound_updates(1)
            if da <= gmin:
                continue
            self._scan_groups(i, da)

    def _scan_groups(self, i: int, da: float) -> None:
        """Scan every group whose bound fails; maintain exact two-nearest.

        Group bounds are assembled *after* the scan from the collected
        evidence — exact distances of computed centroids (excluding the
        final winner) and the local-filter lower bounds of skipped ones.
        Assembling per-centroid keeps every refreshed bound attached to the
        right group even when the running best hops between groups
        mid-scan; a running "runner-up per group" would leave the
        dethroned winner's group with a stale, too-large bound.
        """
        counters = self.counters
        old_a = int(self._labels[i])
        best = old_a
        best_d = da
        group_decay = self._group_decay
        scanned: list[int] = []
        computed: list[tuple[int, float]] = []
        skip_bounds: dict[int, float] = {}
        for g, members in enumerate(self.groups.members):
            counters.bound_accesses += 1
            if self._glb[i, g] >= best_d:
                continue
            scanned.append(g)
            others = members[members != old_a]
            if len(others) == 0:
                continue
            # Per-centroid local filter against the pre-drift group bound,
            # then one vectorized distance block for the survivors (Ding's
            # implementation batches the group scan the same way).
            old_bound = self._glb[i, g] + group_decay[g]
            per_j = old_bound - self._last_drifts[others]
            counters.add_bound_accesses(len(others))
            mask = per_j < best_d
            if not mask.all():
                skipped_min = float(per_j[~mask].min())
                skip_bounds[g] = min(skip_bounds.get(g, np.inf), skipped_min)
            survivors = others[mask]
            if len(survivors) == 0:
                continue
            dists = self._point_distances(i, survivors)
            for pos, j in enumerate(survivors):
                dij = float(dists[pos])
                computed.append((int(j), dij))
                if dij < best_d:
                    best_d = dij
                    best = int(j)
        # Assemble refreshed bounds per group from the scan evidence.
        group_min = dict(skip_bounds)
        for j, dij in computed:
            if j == best:
                continue
            g = int(self.groups.group_of[j])
            group_min[g] = min(group_min.get(g, np.inf), dij)
        for g in scanned:
            value = group_min.get(g, np.inf)
            if np.isfinite(value):
                self._glb[i, g] = value
                counters.add_bound_updates(1)
        if best != old_a:
            self._labels[i] = best
            self._ub[i] = best_d
            counters.add_bound_updates(1)
            # The old assigned centroid now participates in its group bound
            # (its exact distance is known from the ub tightening).
            g_old = int(self.groups.group_of[old_a])
            self._glb[i, g_old] = min(self._glb[i, g_old], da)
            counters.add_bound_updates(1)

    def _update_bounds(self, drifts: np.ndarray) -> None:
        self._last_drifts = drifts.copy()
        decay = self.groups.max_drift_per_group(drifts)
        self._group_decay = decay
        # Note: no clipping at zero here — the local filter reconstructs the
        # pre-drift bound as ``glb + decay``, which requires the subtraction
        # to be exact.  Negative bounds are harmless (their tests just fail).
        self._glb -= decay[None, :]
        self._ub += drifts[self._labels]
        self.counters.add_bound_updates(self._glb.size + len(self._ub))
