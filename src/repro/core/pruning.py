"""Shared pruning primitives used by the sequential algorithms.

Everything in Section 4 builds from a few ingredients: the half inter-
centroid separation ``s(j)`` (Elkan's inter-bound), per-cluster centroid
drifts, and — for the Yinyang family — a grouping of the ``k`` centroids.
They are factored out here so every algorithm computes them identically and
charges the same counters.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.common.distance import centroid_pairwise_distances, chunked_sq_distances
from repro.common.rng import SeedLike, ensure_rng
from repro.instrumentation.counters import OpCounters


def half_min_separation(cc: np.ndarray) -> np.ndarray:
    """``s(j) = 0.5 * min_{j' != j} d(c_j, c_j')`` from a distance matrix."""
    if cc.shape[0] == 1:
        return np.full(1, np.inf)
    masked = cc.copy()
    np.fill_diagonal(masked, np.inf)
    return 0.5 * masked.min(axis=1)


def two_smallest(values: np.ndarray) -> Tuple[int, float, float]:
    """Index of the minimum plus the two smallest values of ``values``.

    Ties break toward the lower index, matching ``np.argmin``.
    """
    best = int(np.argmin(values))
    best_val = float(values[best])
    if len(values) == 1:
        return best, best_val, np.inf
    rest = np.delete(values, best)
    return best, best_val, float(rest.min())


def second_max(values: np.ndarray) -> Tuple[int, float, float]:
    """Argmax, max and second-max of ``values`` (for Hamerly's lb update)."""
    top = int(np.argmax(values))
    top_val = float(values[top])
    if len(values) == 1:
        return top, top_val, 0.0
    rest = np.delete(values, top)
    return top, top_val, float(rest.max())


def default_group_count(k: int) -> int:
    """Yinyang's default number of groups, ``t = ceil(k / 10)``."""
    return max(1, -(-k // 10))


def group_centroids_kmeans(
    centroids: np.ndarray,
    t: int,
    seed: SeedLike = 0,
    iterations: int = 5,
) -> np.ndarray:
    """Group ``k`` centroids into ``t`` groups with a small k-means run.

    This is Yinyang's first-iteration grouping (Section 4.2.3).  The run is
    uncounted: the paper treats grouping as setup overhead measured by
    wall-clock, not as part of the pruning-power accounting.
    """
    k = len(centroids)
    t = min(t, k)
    if t <= 1:
        return np.zeros(k, dtype=np.intp)
    rng = ensure_rng(seed)
    seeds = rng.choice(k, size=t, replace=False)
    means = centroids[seeds].copy()
    labels = np.zeros(k, dtype=np.intp)
    for _ in range(iterations):
        # Uncounted by design (see docstring): kernel invoked without counters.
        sq = chunked_sq_distances(centroids, means)
        labels = np.argmin(sq, axis=1).astype(np.intp)
        for g in range(t):
            members = centroids[labels == g]
            if len(members):
                means[g] = members.mean(axis=0)
    return _compact_groups(labels, t)


def group_centroids_by_drift(drifts: np.ndarray, t: int) -> np.ndarray:
    """Regroup centroids by drift magnitude (Kwedlo's modification).

    Sorting by drift and chunking keeps each group's maximum drift close to
    its members' drifts, so the per-group bound decays slowly for stable
    groups — the tightening Regroup gets over Yinyang.
    """
    k = len(drifts)
    t = min(max(1, t), k)
    order = np.argsort(drifts, kind="stable")
    labels = np.empty(k, dtype=np.intp)
    for g, chunk in enumerate(np.array_split(order, t)):
        labels[chunk] = g
    return labels


def _compact_groups(labels: np.ndarray, t: int) -> np.ndarray:
    """Renumber group labels so they are consecutive starting at zero."""
    used = np.unique(labels)
    mapping = {int(old): new for new, old in enumerate(used)}
    return np.asarray([mapping[int(g)] for g in labels], dtype=np.intp)


class GroupView:
    """Precomputed membership lists for a centroid grouping."""

    def __init__(self, group_of: np.ndarray) -> None:
        self.group_of = np.asarray(group_of, dtype=np.intp)
        self.t = int(self.group_of.max()) + 1 if len(self.group_of) else 0
        self.members: List[np.ndarray] = [
            np.flatnonzero(self.group_of == g) for g in range(self.t)
        ]

    def max_drift_per_group(self, drifts: np.ndarray) -> np.ndarray:
        """Per-group maximum centroid drift (the group bound decay)."""
        out = np.zeros(self.t)
        for g, idx in enumerate(self.members):
            if len(idx):
                out[g] = float(drifts[idx].max())
        return out


def centroid_separations(
    centroids: np.ndarray, counters: Optional[OpCounters] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Centroid distance matrix and the derived ``s(j)`` vector."""
    cc = centroid_pairwise_distances(centroids, counters)
    return cc, half_min_separation(cc)
