"""Vectorized NumPy backend: Lloyd and Yinyang.

The reference implementations run their assignment passes point by point
— faithful to the paper's pseudocode and easy to audit, but dominated by
Python interpreter overhead.  Plain Lloyd's chunked direct-differencing
scan also leaves GEMM throughput on the table.  The classes here are
drop-in replacements selected with ``backend="vectorized"`` (see
:func:`repro.core.make_algorithm` and ``docs/backends.md``).  Each
subclasses its reference implementation and replaces only the
per-iteration assignment pass: the certified blocked GEMM scan with exact
near-tie fallback for Lloyd, and array-held group bounds with masked
batch updates for Yinyang, whose seeding and group scans pick their exact
entries from certified GEMM scores.  Setup, initialization, refinement
and drift correction are inherited unchanged (refinement is the shared
scatter-add of :mod:`repro.core.refinement`, and k-means++ seeding
batches its D² updates through the same bit-identical kernels, see
:mod:`repro.core.initialization`).

Elkan, Hamerly and index k-means have no vectorized implementation: in
2-core sweeps none of them was the fastest method in most runs at any
shape measured, and certified-GEMM Lloyd beat them even where they
computed a tenth of its distances (``docs/backends.md``).

Exactness contract
------------------
The vectorized backend is not "close to" the reference — it is *equal*:

* identical labels, centroids (bitwise), iteration counts;
* identical :class:`~repro.instrumentation.counters.OpCounters` totals per
  iteration.

Both follow from two invariants, enforced by
``tests/test_backend_conformance.py`` and ``tests/test_golden_traces.py``:

1. every stored distance comes from the same exact family as the
   reference's (the two families are described in
   :mod:`repro.common.distance`): full scans from the einsum family
   (:func:`~repro.common.distance.chunked_sq_distances`, or
   :func:`~repro.common.distance.gathered_sq_distances` on the entries a
   bound keeps), every other distance from
   :func:`~repro.common.distance.paired_distances`, a dot-family batch
   kernel that is bit-identical per row to the scalar ``euclidean`` the
   reference calls.  GEMM scores only choose which entries to evaluate,
   and only under a rounding-error certificate
   (:func:`~repro.common.distance.certified_argmin`), so every pruning
   test sees the same 64-bit float and takes the same branch;
2. the per-point scan order is preserved by swapping loop nesting, never by
   changing the decision procedure: the reference iterates points outer /
   groups inner, the vectorized code iterates groups outer / points (as
   arrays) inner.  Per-point state (current best, upper bound) is held in
   arrays and updated after each group, which reproduces the reference's
   sequential semantics exactly because points never interact within an
   assignment pass.

Counters are charged per *pruning decision* — one distance per row-pair
actually evaluated, one bound access per bound read by a test — never per
BLAS call.  A batched kernel that evaluates 10k distances in one call
charges 10k, and a test that short-circuits for some points charges only
the points that reached it.  This keeps every Table 3-style metric
backend-independent: the paper's tables measure algorithmic work, and both
backends do the same algorithmic work.
"""

from __future__ import annotations

import functools
from typing import Dict, Tuple, Type

import numpy as np

from repro.common.distance import (
    centroid_scores,
    certificate_margin,
    certified_argmin,
    nearest_and_group_minima,
    nearest_centroids,
    paired_distances,
    sq_norms,
)
from repro.core.base import KMeansAlgorithm
from repro.core.lloyd import LloydKMeans
from repro.core.pruning import GroupView, group_centroids_kmeans
from repro.core.yinyang import YinyangKMeans


# Lloyd's assignment is independent across points, so its pass is a
# module-level function over an arbitrary contiguous *row slice*: running
# it on ``X[lo:hi]`` produces exactly the rows ``[lo, hi)`` of the
# full-matrix pass, bitwise.  :class:`VectorizedLloydKMeans` calls it on
# the full matrix; the sharded engine (``repro.exec.sharded``) calls it on
# each shard's row range from the shard threads.  It keeps no
# module-global state because the R007 parallel-safety rule reaches it
# from those threads' target.


def lloyd_assign_rows(
    X_rows: np.ndarray,
    centroids: np.ndarray,
    x_sq_rows: np.ndarray,
    c_sq: np.ndarray,
    counters,
) -> np.ndarray:
    """Lloyd assignment for one row slice; returns the slice's labels.

    The certified nearest-centroid op (:func:`nearest_centroids`) with the
    slice's cached row norms and the global centroid norms.  Its labels
    equal the exact kernel's argmin row by row, so the slice result equals
    the full-scan rows bitwise.  Charges the paper's Lloyd cost: ``n*k``
    distances, each touching its point.
    """
    counters.add_point_accesses(len(X_rows) * len(centroids))
    return nearest_centroids(X_rows, centroids, counters, x_sq=x_sq_rows, c_sq=c_sq)


def exact_group_cells(
    X_rows: np.ndarray, C_group: np.ndarray, survive: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Yinyang (point, group) cells evaluated exactly, survivor by survivor.

    ``survive[i, j]`` marks the members ``C_group[j]`` that point
    ``X_rows[i]`` must evaluate.  Returns per point the minimum survivor
    distance, its first-index argmin over the members and the
    second-smallest survivor distance (``inf`` with one survivor) — the
    reference's candidate loop, in its dot-family bits.  Uncharged: the
    caller charges every survivor.  The fallback of the certified scan in
    :class:`VectorizedYinyangKMeans`.
    """
    srow, scol = np.nonzero(survive)
    dists = np.full(survive.shape, np.inf)
    dists[srow, scol] = paired_distances(X_rows[srow], C_group[scol])
    second = (
        np.partition(dists, 1, axis=1)[:, 1]
        if len(C_group) > 1
        else np.full(len(X_rows), np.inf)
    )
    return dists.min(axis=1), np.argmin(dists, axis=1), second


class VectorizedYinyangKMeans(YinyangKMeans):
    """Yinyang on certified GEMM scores, with group-major scan order.

    Iteration 0 runs :func:`nearest_and_group_minima`: one blocked GEMM
    names each point's label and, per group, its nearest other member;
    only those ``t + 1`` entries per point — the ones that become ``ub``
    and ``glb`` — are evaluated exactly, in the einsum family of the
    reference's full scan, so the bounds are the reference's bits.

    In later iterations the reference scans each survivor's groups in
    ascending group order, maintaining a running best and assembling
    refreshed group bounds from the scan evidence.  Here the group loop is
    outermost: per group, the entry test and the local per-centroid filter
    run as masked blocks over all scanning points at once, with per-point
    running state (``best``, ``best_d``) carried between groups in arrays.
    One GEMM scores each entering point against the group's local-filter
    survivors; the certified argmin names the group minimum, and only that
    entry — plus the group runner-up of a point whose best moved there —
    is evaluated exactly, with the dot-family kernel the reference's
    candidate loop uses.  Cells whose certificate fails take the exact
    survivor block (:func:`exact_group_cells`).  The bound-assembly
    evidence — minimum skipped local bound and the computed group minimum
    per (point, group) — is accumulated in arrays and resolved after the
    scan, excluding the final winner exactly as the reference's
    per-centroid assembly does.

    Counters are charged per survivor, as the reference charges its
    candidate loop; the exact evaluations re-evaluate distances already
    charged (the :class:`VectorizedLloydKMeans` convention).
    """

    backend = "vectorized"

    def _setup(self) -> None:
        super()._setup()
        self._scan_bufs = None
        self._x_sq: np.ndarray | None = None

    def _scan_scratch(self, m: int, t: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reusable ``(n, t)`` scan-evidence buffers, sliced to ``m`` rows.

        Allocated on first use (the grouping — hence ``t`` — only exists
        after iteration 0) and reinitialized per call; slicing a persistent
        buffer produces the same values as per-iteration allocations.
        """
        if self._scan_bufs is None or self._scan_bufs[0].shape[1] != t:
            n = len(self.X)
            self._scan_bufs = (np.empty((n, t)), np.empty((n, t)), np.empty((n, t), dtype=bool))
        skip_min, comp_min, scanned = (buf[:m] for buf in self._scan_bufs)
        skip_min.fill(np.inf)
        comp_min.fill(np.inf)
        scanned.fill(False)
        return skip_min, comp_min, scanned

    def _initial_scan(self) -> None:
        """Grouping + certified seeding of ``ub`` and ``glb``.

        Same grouping, labels, bounds and charges as the reference's full
        scan (``n*k`` distances and point accesses, ``n*(t+1)`` bound
        writes).  ``sqrt`` is monotone, so the square root of the minimum
        squared distance is the minimum of the square roots.
        """
        self.groups = GroupView(
            group_centroids_kmeans(self._centroids, self._t, seed=self._group_seed)
        )
        n = len(self.X)
        self._labels, own_sq, group_sq = nearest_and_group_minima(
            self.X, self._centroids, self.groups.members, self.counters
        )
        self.counters.add_point_accesses(n * self.k)
        self._ub = np.sqrt(own_sq)
        self._glb = np.sqrt(group_sq)
        self.counters.add_bound_updates(n * (self.groups.t + 1))

    def _assign(self, iteration: int) -> None:
        if iteration == 0:
            self._initial_scan()
            return

        counters = self.counters
        glb = self._glb
        ub = self._ub
        t = self.groups.t
        # Global test ((t+1) * n bound reads), identical to the reference.
        # A column-wise running minimum: ``min(axis=1)`` over t columns
        # costs about four times as much, for the same values.
        gmins = functools.reduce(np.minimum, glb.T)
        counters.add_bound_accesses((t + 1) * len(self.X))
        active = np.flatnonzero(ub > gmins)
        if len(active) == 0:
            return
        counters.add_point_accesses(len(active))
        d_a = paired_distances(
            np.take(self.X, active, axis=0),
            self._centroids[self._labels[active]],
            counters,
        )
        ub[active] = d_a
        counters.add_bound_updates(len(active))
        keep = d_a > gmins[active]
        scan = active[keep]
        if len(scan) == 0:
            return
        self._scan_groups_batch(scan, d_a[keep])

    def _scan_groups_batch(self, scan: np.ndarray, da: np.ndarray) -> None:
        """Group-major scan of every failing point; exact two-tier pruning.

        ``scan`` holds the point indices whose tightened upper bound still
        exceeds their minimum group bound; ``da`` their exact distances to
        their assigned centroids.  Mirrors the reference ``_scan_groups``
        with the point loop vectorized away.
        """
        counters = self.counters
        m = len(scan)
        t = self.groups.t
        group_decay = self._group_decay
        old_a = self._labels[scan].copy()
        best = old_a.copy()
        best_d = da.copy()
        # Scan evidence, resolved after the group loop: minimum skipped
        # local-filter bound and the computed group minimum per (point,
        # group), plus the runner-up in the group of each point's best.
        skip_min, comp_min, scanned = self._scan_scratch(m, t)
        runner_up = np.full(m, np.inf)
        if self._x_sq is None:
            self._x_sq = sq_norms(self.X)
        c_sq = sq_norms(self._centroids)
        two_margin = certificate_margin(self._x_sq[scan], float(c_sq.max()), self.X.shape[1])
        # Bounds are written only after the loop, so one gather serves it.
        glb_scan = np.take(self._glb, scan, axis=0)
        for g in range(t):
            counters.add_bound_accesses(m)
            enter = glb_scan[:, g] < best_d
            scanned[:, g] = enter
            rows = np.flatnonzero(enter)
            if len(rows) == 0:
                continue
            members = self.groups.members[g]
            # Member-major (s, rows) masks: the per-row reductions below
            # then run along axis 0, elementwise over rows.
            others = members[:, None] != old_a[rows]
            counters.add_bound_accesses(int(others.sum()))
            # Per-centroid local filter against the pre-drift group bound.
            old_bound = glb_scan[rows, g] + group_decay[g]
            per_j = old_bound - self._last_drifts[members][:, None]
            survive = (per_j < best_d[rows]) & others
            skipped = others & ~survive
            if skipped.any():
                skip_min[rows, g] = np.where(skipped, per_j, np.inf).min(axis=0)
            n_surv = survive.sum(axis=0)
            total = int(n_surv.sum())
            if total == 0:
                continue
            # The reference evaluates every survivor, and so is charged.
            counters.add_point_accesses(total)
            counters.add_distances(total)
            live = np.flatnonzero(n_surv)
            rows, survive, n_surv = rows[live], survive[:, live].T, n_surv[live]
            X_rows = np.take(self.X, scan[rows], axis=0)
            C_g = self._centroids[members]
            # Certified group minimum among the survivors; non-survivors
            # score +inf, so they never win.
            scores = np.where(survive, centroid_scores(X_rows, C_g, c_sq[members]), np.inf)
            garg, sure = certified_argmin(scores, two_margin[rows], lone=n_surv == 1)
            gmin = np.empty(len(rows))
            runner = np.full(len(rows), np.inf)
            ok = np.flatnonzero(sure)
            gmin[ok] = paired_distances(X_rows[ok], C_g[garg[ok]])
            fb = np.flatnonzero(~sure)
            if len(fb):
                gmin[fb], garg[fb], runner[fb] = exact_group_cells(
                    X_rows[fb], C_g, survive[fb]
                )
            comp_min[rows, g] = gmin
            # Running-best update: the certified minimum is strict (and
            # stays strict through ``sqrt``, docs/backends.md), and the
            # fallback's first-index argmin over ascending member order
            # equals the reference's sequential strict-< scan.
            improved = gmin < best_d[rows]
            # The runner-up matters only where the best moves into this
            # group: it becomes the group's bound if the best stays here.
            # ``scores`` already has the winner masked.
            two = np.flatnonzero(improved & sure & (n_surv > 1))
            if len(two):
                second, sure2 = certified_argmin(
                    scores[two], two_margin[rows[two]], lone=n_surv[two] == 2
                )
                runner[two] = paired_distances(X_rows[two], C_g[second])
                late = two[~sure2]
                if len(late):
                    runner[late] = exact_group_cells(X_rows[late], C_g, survive[late])[2]
            upd = rows[improved]
            best[upd] = members[garg[improved]]
            best_d[upd] = gmin[improved]
            runner_up[upd] = runner[improved]
        # Assemble refreshed bounds from the scan evidence.  The final
        # winner's distance is excluded from its own group's bound; it is
        # always that group's smallest computed distance, so the exclusion
        # is the runner-up there and the minimum everywhere else.
        moved = best != old_a
        excl = comp_min
        g_best = self.groups.group_of[best]
        excl[moved, g_best[moved]] = runner_up[moved]
        value = np.minimum(skip_min, excl)
        write = scanned & np.isfinite(value)
        wrow, wcol = np.nonzero(write)
        if len(wrow):
            self._glb[scan[wrow], wcol] = value[wrow, wcol]
            counters.add_bound_updates(len(wrow))
        mv = np.flatnonzero(moved)
        if len(mv):
            p = scan[mv]
            self._labels[p] = best[mv]
            self._ub[p] = best_d[mv]
            counters.add_bound_updates(len(mv))
            # The old assigned centroid now participates in its group bound
            # (its exact distance is known from the ub tightening).
            g_old = self.groups.group_of[old_a[mv]]
            self._glb[p, g_old] = np.minimum(self._glb[p, g_old], da[mv])
            counters.add_bound_updates(len(mv))


class VectorizedLloydKMeans(LloydKMeans):
    """Lloyd's algorithm on the certified nearest-centroid op.

    The reference full scan uses :func:`chunked_sq_distances` — direct
    differencing in the einsum family (exact, though not the pointwise
    helpers' dot-family bits), far from GEMM speed.  This class runs
    :func:`nearest_centroids` instead: a cache-blocked GEMM scan that
    proves each row's winner against a rounding-error margin and
    recomputes only the near-tie suspects with the exact kernel (the
    derivation is in its docstring).  Genuine ties
    always take the exact path and inherit ``np.argmin``'s first-index
    rule on the same bits the reference sees, so labels are bit-identical
    while almost every row runs at GEMM speed.

    Counter totals are unchanged: ``n * k`` distances and ``n * k`` point
    accesses per iteration, charged up front like the reference — the
    exact-fallback recomputation re-evaluates distances already charged,
    which the cost model treats as one logical evaluation.
    """

    backend = "vectorized"

    def _setup(self) -> None:
        super()._setup()
        self._x_sq: np.ndarray | None = None

    def _assign(self, iteration: int) -> None:
        if self._x_sq is None:
            self._x_sq = sq_norms(self.X)
        self._labels = lloyd_assign_rows(
            self.X, self._centroids, self._x_sq, sq_norms(self._centroids), self.counters
        )


#: registry of vectorized implementations, keyed by algorithm name
VECTORIZED_ALGORITHMS: Dict[str, Type[KMeansAlgorithm]] = {
    "lloyd": VectorizedLloydKMeans,
    "yinyang": VectorizedYinyangKMeans,
}

__all__ = [
    "VECTORIZED_ALGORITHMS",
    "VectorizedLloydKMeans",
    "VectorizedYinyangKMeans",
    "lloyd_assign_rows",
]
