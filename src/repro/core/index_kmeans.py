"""Index-based k-means (Section 3): batch assignment via tree filtering.

This is the Pelleg-Moore / Kanungo *filtering algorithm* generalized to any
ball-shaped index (Ball-tree, M-tree, Cover-tree, HKT) plus the kd-tree
hyperplane variant.  Each iteration descends from the root carrying a
candidate centroid set:

* the node's two nearest candidates ``c_1, c_2`` are found from its pivot;
* if ``d(p, c_2) - d(p, c_1) > 2r`` (Eq. 2/9) the whole node is assigned to
  ``c_1`` — its precomputed sum vector and count move in batch, saving
  ``num * k`` distances and ``num`` data accesses;
* otherwise candidates with ``d(p, c_j) - r > d(p, c_1) + r`` are filtered
  out and the children recurse with the shrunken set;
* leaves that cannot be batch-assigned scan their points over the surviving
  candidates only.

For kd-trees the filter uses Kanungo's hyperplane test instead: candidate
``c_j`` is pruned when the cell corner farthest toward ``c_j`` is still
closer to ``c_1``.

Refinement is incremental by construction: cluster sums are aggregated from
node sum vectors during the descent, so no point is ever re-read.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.common.distance import chunked_sq_distances, one_to_many_distances
from repro.common.exceptions import ConfigurationError
from repro.core.base import KMeansAlgorithm
from repro.indexes import INDEX_CLASSES, MetricTree, TreeNode
from repro.indexes.kd_tree import KDTree


class IndexKMeans(KMeansAlgorithm):
    """Pure index-based k-means over any of the five tree indexes."""

    name = "index"
    refinement = "none"

    def __init__(
        self,
        index: str = "ball-tree",
        *,
        capacity: int = 30,
        tree: Optional[MetricTree] = None,
        **index_kwargs,
    ) -> None:
        super().__init__()
        self.index_name = index.lower()
        if self.index_name not in INDEX_CLASSES and tree is None:
            known = ", ".join(sorted(INDEX_CLASSES))
            raise ConfigurationError(
                f"unknown index {index!r}; known indexes: {known}"
            )
        self.capacity = int(capacity)
        self.index_kwargs = index_kwargs
        self.tree = tree
        self.name = f"index-{self.index_name}" if tree is None else f"index-{tree.name}"

    def _setup(self) -> None:
        if self.tree is None or self.tree.X is not self.X:
            cls = INDEX_CLASSES[self.index_name]
            kwargs = dict(self.index_kwargs)
            if self.index_name != "cover-tree":
                kwargs.setdefault("capacity", self.capacity)
            self.tree = cls(self.X, **kwargs)
        self.counters.record_footprint(self.tree.space_cost_floats())
        self._use_hyperplane = isinstance(self.tree, KDTree)

    def _assign(self, iteration: int) -> None:
        self._sums.fill(0.0)
        self._counts.fill(0)
        all_candidates = np.arange(self.k, dtype=np.intp)
        self._descend(self.tree.root, all_candidates)

    def _descend(self, node: TreeNode, candidates: np.ndarray) -> None:
        counters = self.counters
        counters.add_node_accesses(1)
        dists = self._node_centroid_distances(node, candidates)
        order = np.argsort(dists, kind="stable")
        best = int(candidates[order[0]])
        d1 = float(dists[order[0]])
        d2 = float(dists[order[1]]) if len(candidates) > 1 else np.inf
        if d2 - d1 > 2.0 * node.radius or len(candidates) == 1:
            self._assign_whole_node(node, best)
            return
        keep = dists - node.radius <= d1 + node.radius
        if self._use_hyperplane:
            keep &= self._hyperplane_keep(node, candidates, best)
        keep[order[0]] = True
        surviving = candidates[keep]
        if node.is_leaf:
            self._assign_leaf_points(node, surviving)
        else:
            for child in node.children:
                self._descend(child, surviving)

    def _node_centroid_distances(
        self, node: TreeNode, candidates: np.ndarray
    ) -> np.ndarray:
        return one_to_many_distances(
            node.pivot, self._centroids[candidates], self.counters
        )

    def _hyperplane_keep(
        self, node: TreeNode, candidates: np.ndarray, best: int
    ) -> np.ndarray:
        """Kanungo's corner test: keep ``c_j`` only if some cell corner is
        closer to it than to the current best centroid."""
        keep = np.ones(len(candidates), dtype=bool)
        c1 = self._centroids[best]
        for pos, j in enumerate(candidates):
            j = int(j)
            if j == best:
                continue
            cj = self._centroids[j]
            corner = self.tree.farthest_corner(node, cj - c1)
            self.counters.add_distances(2)
            # repro: ignore[R001] — both corner distances charged manually on the line above
            if np.sum((corner - cj) ** 2) >= np.sum((corner - c1) ** 2):
                keep[pos] = False
        return keep

    def _assign_whole_node(self, node: TreeNode, cluster: int) -> None:
        """Batch assignment: move the node's sum vector and labels at once."""
        self._sums[cluster] += node.sv
        self._counts[cluster] += node.num
        idx = node.subtree_point_indices()
        self._labels[idx] = cluster

    def _assign_leaf_points(self, node: TreeNode, candidates: np.ndarray) -> None:
        idx = node.point_indices
        points = self.X[idx]
        self.counters.add_point_accesses(len(idx) * len(candidates))
        sq = chunked_sq_distances(points, self._centroids[candidates], self.counters)
        winners = candidates[np.argmin(sq, axis=1)]
        self._apply_leaf_winners(node, winners, points)

    def _apply_leaf_winners(
        self, node: TreeNode, winners: np.ndarray, points: np.ndarray
    ) -> None:
        """Fold a leaf's per-point winners into labels and cluster sums.

        Accumulation is deliberately *per point, in leaf storage order*
        (``np.add.at`` applies its updates sequentially in element order).
        Together with the descent's depth-first decision order this makes
        the full iteration's sum update one well-defined sequence of scalar
        additions per (cluster, dimension).
        """
        idx = node.point_indices
        self._labels[idx] = winners
        # ``points`` is the block the caller already fetched (and charged)
        # for the distance scan — reusing it avoids a second gather.
        np.add.at(self._sums, winners, points)
        self._counts += np.bincount(winners, minlength=self.k)

    def _extras(self) -> dict:
        return {
            "index": self.tree.name,
            "index_nodes": self.tree.node_count(),
            "index_build_distances": self.tree.counters.distance_computations,
        }
