"""Common node and tree machinery for all five index structures.

:class:`TreeNode` is the paper's Definition 1: every node — regardless of
which tree built it — carries a pivot point ``p`` (the mean of the points it
covers), a covering radius ``r``, the sum vector ``sv`` of its points, the
distance ``psi`` from its pivot to its parent's pivot, the covered point
count ``num``, and its height ``h``.  Leaves additionally hold the indices of
their points.

The sum vector and count are what make the *incremental refinement* of
Section 5.1.2 possible: a whole node can move between clusters by adding and
subtracting ``sv``/``num`` without touching its points.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.common.distance import euclidean, one_to_many_distances
from repro.common.validation import check_data_matrix, check_positive
from repro.instrumentation.counters import OpCounters


class TreeNode:
    """Augmented index node (paper Definition 1)."""

    __slots__ = (
        "pivot",
        "radius",
        "sv",
        "psi",
        "children",
        "point_indices",
        "num",
        "height",
    )

    def __init__(
        self,
        pivot: np.ndarray,
        radius: float,
        sv: np.ndarray,
        num: int,
        height: int,
        *,
        psi: float = 0.0,
        children: Optional[List["TreeNode"]] = None,
        point_indices: Optional[np.ndarray] = None,
    ) -> None:
        self.pivot = pivot
        self.radius = float(radius)
        self.sv = sv
        self.num = int(num)
        self.height = int(height)
        self.psi = float(psi)
        self.children = children if children is not None else []
        self.point_indices = point_indices

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def iter_subtree(self) -> Iterator["TreeNode"]:
        """Yield this node and every descendant (pre-order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def subtree_point_indices(self) -> np.ndarray:
        """Indices of every point covered by this node."""
        parts = [
            node.point_indices
            for node in self.iter_subtree()
            if node.point_indices is not None
        ]
        if not parts:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else f"internal[{len(self.children)}]"
        return f"TreeNode({kind}, num={self.num}, r={self.radius:.4g}, h={self.height})"


@dataclass(frozen=True)
class TreeStats:
    """Aggregate statistics consumed as meta-features (paper Table 1)."""

    height: int
    n_internal: int
    n_leaves: int
    leaf_height_mean: float
    leaf_height_std: float
    leaf_radius_mean: float
    leaf_radius_std: float
    leaf_psi_mean: float
    leaf_psi_std: float
    leaf_size_mean: float
    leaf_size_std: float
    root_radius: float

    @property
    def n_nodes(self) -> int:
        return self.n_internal + self.n_leaves


def make_leaf(
    X: np.ndarray,
    indices: np.ndarray,
    height: int,
    counters: Optional[OpCounters] = None,
) -> TreeNode:
    """Construct a leaf node covering ``X[indices]`` with exact statistics.

    The covering-radius scan evaluates one distance per covered point; when
    ``counters`` is given those are charged as construction cost (part of
    the paper's Figure 7 build-cost comparison).
    """
    points = X[indices]
    sv = points.sum(axis=0)
    pivot = sv / len(indices)
    radius = (
        float(one_to_many_distances(pivot, points, counters).max())
        if len(points)
        else 0.0
    )
    return TreeNode(
        pivot, radius, sv, len(indices), height,
        point_indices=np.asarray(indices, dtype=np.intp),
    )


def make_internal(
    children: Sequence[TreeNode],
    height: int,
    counters: Optional[OpCounters] = None,
) -> TreeNode:
    """Construct an internal node aggregating ``children``.

    The pivot is the mass-weighted mean of child pivots (i.e. the exact mean
    of all covered points because child ``sv`` are exact); the radius is the
    smallest ball around that pivot covering every child ball; each child's
    ``psi`` is set to its distance from the new pivot (Eq. 12 plumbing).
    One pivot-gap distance per child is charged to ``counters``.
    """
    sv = np.sum([child.sv for child in children], axis=0)
    num = sum(child.num for child in children)
    pivot = sv / num
    radius = 0.0
    for child in children:
        dist = euclidean(child.pivot, pivot, counters)
        child.psi = dist
        radius = max(radius, dist + child.radius)
    return TreeNode(pivot, radius, sv, num, height, children=list(children))


class MetricTree(abc.ABC):
    """Base class for the five index structures.

    Subclasses implement :meth:`_build` returning the root
    :class:`TreeNode`; construction-time counters record the distance
    computations spent building (part of the Figure 7 comparison).
    """

    #: human-readable index name, overridden by subclasses
    name: str = "metric-tree"

    def __init__(
        self,
        X: np.ndarray,
        *,
        capacity: int = 30,
        counters: Optional[OpCounters] = None,
    ) -> None:
        self.X = check_data_matrix(X)
        check_positive(capacity, "capacity")
        self.capacity = int(capacity)
        self.counters = counters if counters is not None else OpCounters()
        self.root = self._build()
        self.root.psi = 0.0

    @abc.abstractmethod
    def _build(self) -> TreeNode:
        """Build and return the root node over ``self.X``."""

    # ------------------------------------------------------------------
    # Generic queries shared by all ball-shaped trees.
    # ------------------------------------------------------------------

    def range_search(
        self, center: np.ndarray, radius: float, counters: Optional[OpCounters] = None
    ) -> np.ndarray:
        """Indices of all points within ``radius`` of ``center``.

        Used by the pre-assignment Search method (Section 3.2).  Whole
        subtrees strictly inside the query ball are reported without
        per-point distance computations.
        """
        counters = counters if counters is not None else self.counters
        hits: List[np.ndarray] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            counters.add_node_accesses()
            dist = euclidean(node.pivot, center, counters)
            if dist - node.radius > radius:
                continue  # ball entirely outside the query
            if dist + node.radius <= radius:
                hits.append(node.subtree_point_indices())
                continue  # ball entirely inside: take it wholesale
            if node.is_leaf:
                points = self.X[node.point_indices]
                counters.add_point_accesses(len(points))
                dists = one_to_many_distances(center, points, counters)
                hits.append(node.point_indices[dists <= radius])
            else:
                stack.extend(node.children)
        if not hits:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(hits)

    def knn_search(
        self,
        query: np.ndarray,
        n_neighbors: int,
        counters: Optional[OpCounters] = None,
    ) -> np.ndarray:
        """Indices of the ``n_neighbors`` nearest points to ``query``.

        Classic best-first branch-and-bound over the ball structure: nodes
        are visited in order of their optimistic distance
        ``max(0, d(query, pivot) - radius)`` and pruned once that bound
        exceeds the current k-th best distance.  Ties break toward lower
        point indices, matching a stable brute-force scan.
        """
        import heapq

        counters = counters if counters is not None else self.counters
        if n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
        n_neighbors = min(n_neighbors, len(self.X))
        # Max-heap of the current best (negative distance, negative index).
        best: List[tuple] = []

        def kth_distance() -> float:
            return -best[0][0] if len(best) == n_neighbors else np.inf

        def offer(dist: float, index: int) -> None:
            item = (-dist, -index)
            if len(best) < n_neighbors:
                heapq.heappush(best, item)
            elif item > best[0]:
                heapq.heapreplace(best, item)

        root_dist = euclidean(self.root.pivot, query, counters)
        frontier = [(max(0.0, root_dist - self.root.radius), 0, self.root)]
        tiebreak = 1
        while frontier:
            bound, _, node = heapq.heappop(frontier)
            if bound > kth_distance():
                continue
            counters.add_node_accesses(1)
            if node.is_leaf:
                points = self.X[node.point_indices]
                counters.add_point_accesses(len(points))
                dists = one_to_many_distances(query, points, counters)
                for pos in np.argsort(dists, kind="stable"):
                    offer(float(dists[pos]), int(node.point_indices[pos]))
            else:
                for child in node.children:
                    dist = euclidean(child.pivot, query, counters)
                    child_bound = max(0.0, dist - child.radius)
                    if child_bound <= kth_distance():
                        heapq.heappush(frontier, (child_bound, tiebreak, child))
                        tiebreak += 1
        ordered = sorted(best, key=lambda item: (-item[0], -item[1]))
        return np.asarray([-index for _, index in ordered], dtype=np.intp)

    # ------------------------------------------------------------------
    # Statistics / meta-features.
    # ------------------------------------------------------------------

    def node_count(self) -> int:
        return sum(1 for _ in self.root.iter_subtree())

    def leaves(self) -> List[TreeNode]:
        return [node for node in self.root.iter_subtree() if node.is_leaf]

    def stats(self) -> TreeStats:
        """Compute the Table 1 tree/leaf meta-feature aggregates.

        The "imbalance of tree" features use leaf *depths* (distance from
        the root): a balanced tree has equal depths (std 0); skewed splits
        show up as depth variance.
        """
        leaf_depths: List[int] = []
        leaf_radii: List[float] = []
        leaf_psis: List[float] = []
        leaf_sizes: List[int] = []
        n_internal = 0
        max_height = self.root.height
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if node.is_leaf:
                leaf_depths.append(depth)
                leaf_radii.append(node.radius)
                leaf_psis.append(node.psi)
                leaf_sizes.append(node.num)
            else:
                n_internal += 1
                stack.extend((child, depth + 1) for child in node.children)
        leaf_heights = leaf_depths
        heights = np.asarray(leaf_heights, dtype=float)
        radii = np.asarray(leaf_radii, dtype=float)
        psis = np.asarray(leaf_psis, dtype=float)
        sizes = np.asarray(leaf_sizes, dtype=float)
        return TreeStats(
            height=max_height,
            n_internal=n_internal,
            n_leaves=len(leaf_heights),
            leaf_height_mean=float(heights.mean()),
            leaf_height_std=float(heights.std()),
            leaf_radius_mean=float(radii.mean()),
            leaf_radius_std=float(radii.std()),
            leaf_psi_mean=float(psis.mean()),
            leaf_psi_std=float(psis.std()),
            leaf_size_mean=float(sizes.mean()),
            leaf_size_std=float(sizes.std()),
            root_radius=self.root.radius,
        )

    def space_cost_floats(self) -> int:
        """Auxiliary memory estimate in float64 slots (paper Section A.2).

        Each leaf stores two vectors (pivot, sv), four scalars and up to
        ``f`` point indices (~``2d + 4 + f``); internal nodes store two
        vectors, four scalars and child pointers (~``2d + 6``).
        """
        d = self.X.shape[1]
        total = 0
        for node in self.root.iter_subtree():
            if node.is_leaf:
                total += 2 * d + 4 + len(node.point_indices)
            else:
                total += 2 * d + 4 + len(node.children)
        return total

    def check_invariants(self) -> None:
        """Raise AssertionError if Definition 1 invariants are violated.

        Verified: every point lies within its leaf's ball; every child ball
        lies within its parent's ball; ``sv``/``num`` aggregate exactly;
        ``psi`` matches the parent-pivot distance; all points appear in
        exactly one leaf.
        """
        seen = np.zeros(len(self.X), dtype=bool)
        for node in self.root.iter_subtree():
            assert node.num > 0
            if node.is_leaf:
                idx = node.point_indices
                assert len(np.unique(idx)) == len(idx), "duplicate index in leaf"
                assert not seen[idx].any(), "point covered by two leaves"
                seen[idx] = True
                pts = self.X[idx]
                # repro: ignore[R001] — brute-force invariant oracle, deliberately uncounted
                dists = np.linalg.norm(pts - node.pivot, axis=1)
                assert dists.max() <= node.radius + 1e-7
                assert np.allclose(node.sv, pts.sum(axis=0), atol=1e-6)
                assert node.num == len(idx)
            else:
                assert node.num == sum(c.num for c in node.children)
                assert np.allclose(
                    node.sv, np.sum([c.sv for c in node.children], axis=0), atol=1e-6
                )
                for child in node.children:
                    # repro: ignore[R001] — brute-force invariant oracle, deliberately uncounted
                    gap = float(np.linalg.norm(child.pivot - node.pivot))
                    assert abs(child.psi - gap) <= 1e-7
                    assert gap + child.radius <= node.radius + 1e-7
        assert seen.all(), "some points not covered by any leaf"
