"""Vectorized NumPy backend: bound-based trio, Lloyd, and index k-means.

The reference implementations in :mod:`repro.core.elkan`,
:mod:`repro.core.hamerly` and :mod:`repro.core.yinyang` run their pruning
loops point by point — faithful to the paper's pseudocode and easy to
audit, but dominated by Python interpreter overhead, so the "accelerated"
methods often lose to plain vectorized Lloyd on wall-clock.  Newling &
Fleuret's and Raff's implementations show the fix: bound-based pruning only
pays when the bound *bookkeeping* is batched too.  The same applies to the
paper's other pipeline half: the reference :class:`IndexKMeans` descent
(Section 3, Eq. 2/9) makes one tiny NumPy call per tree node, and plain
Lloyd's chunked direct-differencing scan leaves the expansion trick's GEMM
throughput on the table.

The classes here are drop-in replacements selected with
``backend="vectorized"`` (see :func:`repro.core.make_algorithm` and
``docs/backends.md``).  Each subclasses its reference implementation and
replaces only the per-iteration assignment pass — array-held bounds and
masked batch updates for the trio (Yinyang's seeding and group scans also
pick their exact entries from certified GEMM scores), the certified
blocked GEMM scan with exact near-tie fallback for Lloyd, and a
frontier-batched breadth-first traversal for index k-means; setup,
initialization, refinement and drift correction are inherited unchanged
(refinement itself is the shared scatter-add of
:mod:`repro.core.refinement`, and k-means++ seeding batches its D²
updates through the same bit-identical kernels, see
:mod:`repro.core.initialization`).

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
   bound keeps), every other distance from a dot-family batch kernel that
   is bit-identical per row to the scalar helper the reference calls
   (:func:`~repro.common.distance.paired_distances` for ``euclidean``,
   :func:`~repro.common.distance.block_distances` for
   ``one_to_many_distances``).  GEMM scores only choose which entries to
   evaluate, and only under a rounding-error certificate
   (:func:`~repro.common.distance.certified_argmin`), so every pruning
   test sees the same 64-bit float and takes the same branch;
2. the per-point scan order is preserved by swapping loop nesting, never by
   changing the decision procedure: the reference iterates points outer /
   candidates inner, the vectorized code iterates candidates outer / points
   (as arrays) inner.  Per-point state (current best, upper bound) is held
   in arrays and updated after each candidate column, which reproduces the
   reference's sequential semantics exactly because points never interact
   within an assignment pass.

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
from typing import Dict, List, Tuple, Type

import numpy as np

from repro.common.distance import (
    block_distances,
    centroid_scores,
    certificate_margin,
    certified_argmin,
    chunked_sq_distances,
    nearest_and_group_minima,
    nearest_centroids,
    paired_distances,
    sq_norms,
)
from repro.core.base import KMeansAlgorithm
from repro.core.elkan import ElkanKMeans
from repro.core.hamerly import HamerlyKMeans
from repro.core.index_kmeans import IndexKMeans
from repro.core.lloyd import LloydKMeans
from repro.core.pruning import GroupView, centroid_separations, group_centroids_kmeans
from repro.core.refinement import accumulate_cluster_sums
from repro.core.yinyang import YinyangKMeans


# ----------------------------------------------------------------------
# Row-subset assignment kernels.
#
# The per-point assignment logic of Lloyd/Elkan/Hamerly is independent
# across points (points never interact within an assignment pass — the
# module-docstring invariant), so each pass is exposed as a module-level
# function over an arbitrary contiguous *row slice*: running it on
# ``X[lo:hi]`` produces exactly the rows ``[lo, hi)`` of the full-matrix
# pass, bitwise.  The classes below call them on the full matrix; the
# sharded engine (``repro.exec.sharded``) calls them on each shard's row
# range from the shard threads.  They keep no module-global state because
# the R007 parallel-safety rule reaches them from those threads' target.
#
# Each kernel charges the slice's share of the per-iteration counters;
# centroid-level work (``centroid_separations``) is *not* charged here —
# it happens once per iteration in the caller, so sharded counter totals
# equal single-process totals.
# ----------------------------------------------------------------------


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


def elkan_seed_rows(
    X_rows: np.ndarray, centroids: np.ndarray, counters
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elkan iteration-0 full scan for one row slice.

    Returns ``(labels, ub, lb)`` for the slice — the per-row restriction
    of :meth:`repro.core.elkan.ElkanKMeans._initial_scan`
    (:func:`chunked_sq_distances` is row-subset invariant), with the same
    charges: ``n*k`` distances + point accesses, ``n*k + n`` bound writes.
    """
    sq = chunked_sq_distances(X_rows, centroids, counters)
    counters.add_point_accesses(sq.size)
    labels = np.argmin(sq, axis=1).astype(np.intp)
    dists = np.sqrt(sq)
    ub = dists[np.arange(len(X_rows)), labels].copy()
    counters.add_bound_updates(dists.size + len(X_rows))
    return labels, ub, dists


def elkan_assign_rows(
    X_rows: np.ndarray,
    centroids: np.ndarray,
    labels: np.ndarray,
    ub: np.ndarray,
    lb: np.ndarray,
    half_cc,
    s: np.ndarray,
    counters,
    *,
    cand_buf=None,
) -> None:
    """Elkan assignment pass over one row slice, in place.

    ``labels``/``ub``/``lb`` are the slice's bound state and are updated in
    place.  ``half_cc`` (``0.5 * cc``, or None when inter-bounds are off)
    and ``s`` are centroid-level context computed — and charged — once per
    iteration by the caller.  ``cand_buf`` optionally supplies the
    ``(n, k)`` candidate scratch; a fresh allocation is value-identical.
    """
    n = len(X_rows)
    k = len(centroids)
    # Global test (n bound reads), identical to the reference.
    counters.add_bound_accesses(n)
    active = np.flatnonzero(ub > s[labels])
    if len(active) == 0:
        return
    # Candidate filter: both Elkan conditions over all j != a, one
    # masked block instead of a per-point loop (k bound reads each).
    a0 = labels[active]
    u0 = ub[active]
    counters.add_bound_accesses(len(active) * k)
    if cand_buf is not None:
        cand = np.less(lb[active], u0[:, None], out=cand_buf[: len(active)])
    else:
        cand = np.less(lb[active], u0[:, None])
    if half_cc is not None:
        cand &= half_cc[a0] < u0[:, None]
    cand[np.arange(len(active)), a0] = False
    has = cand.any(axis=1)
    pts = active[has]
    if len(pts) == 0:
        return
    cand = cand[has]
    # Tighten ub to the exact distance for every surviving point.
    a = labels[pts]
    counters.add_point_accesses(len(pts))
    d_a = paired_distances(X_rows[pts], centroids[a], counters)
    ub[pts] = d_a
    lb[pts, a] = d_a
    counters.add_bound_updates(2 * len(pts))
    u = d_a.copy()
    # Candidate scan, column-major: ascending j preserves each point's
    # reference scan order; u/labels update per column, so the running
    # best a point carries into column j+1 matches the reference's
    # sequential inner loop.
    for j in range(k):
        rows = np.flatnonzero(cand[:, j])
        if len(rows) == 0:
            continue
        p = pts[rows]
        counters.add_bound_accesses(2 * len(rows))
        skip = lb[p, j] >= u[rows]
        if half_cc is not None:
            skip |= half_cc[labels[p], j] >= u[rows]
        todo = rows[~skip]
        if len(todo) == 0:
            continue
        q = pts[todo]
        counters.add_point_accesses(len(q))
        d_j = paired_distances(X_rows[q], centroids[j], counters)
        lb[q, j] = d_j
        counters.add_bound_updates(len(q))
        better = d_j < u[todo]
        if better.any():
            moved = todo[better]
            labels[pts[moved]] = j
            ub[pts[moved]] = d_j[better]
            u[moved] = d_j[better]
            counters.add_bound_updates(int(better.sum()))


def hamerly_seed_rows(
    X_rows: np.ndarray, centroids: np.ndarray, counters
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hamerly iteration-0 full scan for one row slice.

    Returns ``(labels, ub, lb)`` — the per-row restriction of
    :meth:`repro.core.hamerly.HamerlyKMeans._initial_scan` with the same
    charges (``n*k`` distances + point accesses, ``2n`` bound writes).
    """
    sq = chunked_sq_distances(X_rows, centroids, counters)
    counters.add_point_accesses(sq.size)
    labels = np.argmin(sq, axis=1).astype(np.intp)
    dists = np.sqrt(sq)
    n = len(X_rows)
    idx = np.arange(n)
    ub = dists[idx, labels].copy()
    if len(centroids) > 1:
        masked = dists.copy()
        masked[idx, labels] = np.inf
        lb = masked.min(axis=1)
    else:
        lb = np.full(n, np.inf)
    counters.add_bound_updates(2 * n)
    return labels, ub, lb


def hamerly_assign_rows(
    X_rows: np.ndarray,
    centroids: np.ndarray,
    labels: np.ndarray,
    ub: np.ndarray,
    lb: np.ndarray,
    s: np.ndarray,
    counters,
    *,
    thresh_buf=None,
) -> None:
    """Hamerly assignment pass over one row slice, in place.

    ``s`` is the half-separation vector computed — and charged — once per
    iteration by the caller; ``thresh_buf`` optionally supplies the length
    ``n`` threshold scratch (fresh allocation is value-identical).
    """
    k = len(centroids)
    # Global test over all points (2n bound reads), as in the reference.
    if thresh_buf is not None:
        thresholds = np.maximum(lb, s[labels], out=thresh_buf[: len(X_rows)])
    else:
        thresholds = np.maximum(lb, s[labels])
    counters.add_bound_accesses(2 * len(X_rows))
    active = np.flatnonzero(ub > thresholds)
    if len(active) == 0:
        return
    # Tighten the upper bound with one exact distance per survivor.
    counters.add_point_accesses(len(active))
    d_a = paired_distances(X_rows[active], centroids[labels[active]], counters)
    ub[active] = d_a
    counters.add_bound_updates(len(active))
    rescan = active[d_a > thresholds[active]]
    if len(rescan) == 0:
        return
    # Full rescan block: every entry bit-identical to the reference's
    # one_to_many_distances row, so argmin tie-breaking is preserved.
    counters.add_point_accesses(len(rescan) * k)
    dists = block_distances(X_rows[rescan], centroids, counters)
    best = np.argmin(dists, axis=1)
    d1 = dists[np.arange(len(rescan)), best]
    if k > 1:
        d2 = np.partition(dists, 1, axis=1)[:, 1]
    else:
        d2 = np.full(len(rescan), np.inf)
    labels[rescan] = best
    ub[rescan] = d1
    lb[rescan] = d2
    counters.add_bound_updates(2 * len(rescan))


class VectorizedElkanKMeans(ElkanKMeans):
    """Elkan's algorithm with batched bound tests (candidate-major order).

    The reference scans each global-test survivor's candidate centroids in
    ascending index order, tightening ``ub`` first.  Here the candidate
    filter runs as one masked ``(survivors, k)`` comparison, tightening as
    one paired-distance call, and the candidate scan as a loop over
    centroid *columns* with the surviving point set shrinking per column —
    the same decisions in the same per-point order, interpreted k times
    instead of n times.
    """

    backend = "vectorized"

    def _setup(self) -> None:
        super()._setup()
        # Per-fit scratch, reused every iteration: the (n, k) candidate
        # matrix, the (2, k, k) + (k, k) center-center buffers, and the
        # half-separation matrix shared by both pruning passes below.
        n, k = len(self.X), self.k
        self._cand_buf = np.empty((n, k), dtype=bool)
        self._cc_scratch = np.empty((2, k, k)) if self.use_inter else None
        self._cc_work = np.empty((k, k)) if self.use_inter else None
        self._half_cc = np.empty((k, k)) if self.use_inter else None

    def _assign(self, iteration: int) -> None:
        if iteration == 0:
            self._initial_scan()
            return
        half_cc, s = self._separation_context()
        elkan_assign_rows(
            self.X,
            self._centroids,
            self._labels,
            self._ub,
            self._lb,
            half_cc,
            s,
            self.counters,
            cand_buf=self._cand_buf,
        )

    def _separation_context(self):
        """Per-iteration centroid-level context ``(half_cc, s)``.

        Computed (and charged) once per iteration; the sharded engine calls
        this in the supervisor before its shard threads start and every
        shard reads the result, so counter totals match the single-process
        pass.
        """
        if not self.use_inter:
            return None, np.zeros(self.k)  # never prunes
        cc, s = centroid_separations(
            self._centroids,
            self.counters,
            scratch=self._cc_scratch,
            work=self._cc_work,
        )
        # One center-center pass per iteration: the candidate filter and
        # the per-column scan both test against 0.5 * cc; halving once
        # (exact scaling, bit-invisible) replaces two full passes.
        return np.multiply(cc, 0.5, out=self._half_cc), s


class VectorizedHamerlyKMeans(HamerlyKMeans):
    """Hamerly's algorithm with batched tighten-and-rescan.

    One paired-distance call tightens every global-test survivor's upper
    bound; the points that still fail rescan all ``k`` centroids in one
    ``(rescans, k)`` block with a vectorized two-smallest reduction.
    """

    backend = "vectorized"

    def _setup(self) -> None:
        super()._setup()
        n, k = len(self.X), self.k
        self._thresh_buf = np.empty(n)
        self._cc_scratch = np.empty((2, k, k))
        self._cc_work = np.empty((k, k))

    def _assign(self, iteration: int) -> None:
        if iteration == 0:
            self._initial_scan()
            return
        s = self._separation_context()
        hamerly_assign_rows(
            self.X,
            self._centroids,
            self._labels,
            self._ub,
            self._lb,
            s,
            self.counters,
            thresh_buf=self._thresh_buf,
        )

    def _separation_context(self) -> np.ndarray:
        """Per-iteration half-separation vector ``s`` (charged once)."""
        _, s = centroid_separations(
            self._centroids,
            self.counters,
            scratch=self._cc_scratch,
            work=self._cc_work,
        )
        return s


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


class VectorizedIndexKMeans(IndexKMeans):
    """Index-based k-means with a frontier-batched breadth-first traversal.

    The reference descends the tree recursively, making one tiny NumPy call
    per node (Section 3's filtering algorithm).  This class processes whole
    BFS *frontiers* instead: one :func:`block_distances` call yields the
    pivot-to-centroid matrix for every frontier node, the Eq. 2/9 batch
    test and the ring filter ``d_j - r <= d_1 + r`` run array-wise over the
    frontier, pruned subtrees queue their ``sv``/``num`` batch assignment,
    and all surviving leaves are scanned in one concatenated
    :func:`chunked_sq_distances` call.

    Exactness
    ---------
    * Per-node decisions are identical: ``block_distances`` entries are
      bit-identical to the reference's ``one_to_many_distances``; masked
      ``argmin``/``partition`` reproduce the stable-argsort two-smallest
      over each node's (ascending) candidate set; the kd-tree hyperplane
      filter reuses the inherited per-node corner test verbatim.  So every
      node is batch-assigned / filtered / descended exactly as in the
      reference, and each leaf sees the same candidate set.
    * The sum update is replayed, not re-derived: the reference's
      depth-first descent performs one well-defined sequence of additions
      into ``self._sums`` — per visited node in left-to-right pre-order,
      either its ``sv`` vector (batch assignment) or its points one by one
      (leaf fold, ``np.add.at``).  The traversal buffers every decision,
      sorts by pre-order rank (``MetricTree.preorder_nodes``), stacks the
      addend rows in exactly that order and folds them with the same
      sequential bincount scatter-add the shared refinement step uses
      (:func:`repro.core.refinement.accumulate_cluster_sums`) — from the
      zeroed per-iteration base this is bit-identical to the reference's
      addition sequence, so the refined centroids match bitwise.  Label
      writes and integer counts are order-independent and applied in bulk
      (whole subtrees via precomputed pre-order point ranges).
    * Counters charge per pruning decision, as always: node accesses per
      frontier node, one distance per (node, surviving candidate) pair
      actually tested, leaf point accesses/distances per (point, candidate)
      pair scanned — the full-matrix kernel calls themselves are uncounted.
    """

    backend = "vectorized"

    def _setup(self) -> None:
        super()._setup()
        # Pre-order flattening of the tree (parallel arrays indexed by
        # left-to-right pre-order rank = reference visit order), cached on
        # the tree itself so repeated fits over a prebuilt index pay it once.
        flat = self.tree.preorder_flat()
        self._nodes = flat.nodes
        self._pivots = flat.pivots
        self._radii = flat.radii
        self._svs = flat.svs
        self._leaf_flags = flat.leaf_flags
        self._child_flat = flat.child_flat
        self._child_offsets = flat.child_offsets
        # Each subtree covers the contiguous slice perm[start[r]:end[r]],
        # replacing the reference's per-call subtree walk for
        # (order-independent) bulk label writes.
        self._perm = flat.perm
        self._subtree_starts = flat.subtree_starts
        self._subtree_ends = flat.subtree_ends

    def _assign(self, iteration: int) -> None:
        self._sums.fill(0.0)
        self._counts.fill(0)
        counters = self.counters
        centroids = self._centroids
        k = self.k
        nodes = self._nodes
        # Decisions accumulate as parallel arrays: batch-assigned node ranks
        # with their winning cluster, and surviving-leaf ranks with their
        # candidate masks (winners filled in after the batched scan).
        batch_rank_parts: List[np.ndarray] = []
        batch_best_parts: List[np.ndarray] = []
        leaf_rank_parts: List[np.ndarray] = []
        leaf_mask_parts: List[np.ndarray] = []
        frontier_ranks = np.array([0], dtype=np.intp)
        frontier_masks = np.ones((1, k), dtype=bool)
        while len(frontier_ranks):
            m = len(frontier_ranks)
            counters.add_node_accesses(m)
            # One distance per (node, candidate) pair, as in the reference;
            # the full (m, k) block itself is an uncounted kernel call.
            counters.add_distances(int(frontier_masks.sum()))
            dists = block_distances(self._pivots[frontier_ranks], centroids)
            np.copyto(dists, np.inf, where=~frontier_masks)
            best = np.argmin(dists, axis=1)
            d1 = dists[np.arange(m), best]
            d2 = (
                np.partition(dists, 1, axis=1)[:, 1]
                if k > 1
                else np.full(m, np.inf)
            )
            radii = self._radii[frontier_ranks]
            # Eq. 2/9 batch test; single-candidate nodes have d2 = inf and
            # batch-assign too, matching the reference's explicit branch.
            batch = d2 - d1 > 2.0 * radii
            if batch.any():
                batch_rank_parts.append(frontier_ranks[batch])
                batch_best_parts.append(best[batch])
            survivors = np.flatnonzero(~batch)
            if len(survivors) == 0:
                break
            # Ring filter over the whole frontier: candidates with
            # d_j - r > d_1 + r cannot win anywhere inside the ball.
            keep = dists[survivors] - radii[survivors, None] <= (
                d1[survivors] + radii[survivors]
            )[:, None]
            surv_ranks = frontier_ranks[survivors]
            surv_best = best[survivors]
            if self._use_hyperplane:
                for pos, row in enumerate(survivors):
                    cand_idx = np.flatnonzero(frontier_masks[row])
                    keep[pos, cand_idx] &= self._hyperplane_keep(
                        nodes[int(surv_ranks[pos])], cand_idx, int(surv_best[pos])
                    )
            keep[np.arange(len(survivors)), surv_best] = True
            leaf_sel = self._leaf_flags[surv_ranks]
            if leaf_sel.any():
                leaf_rank_parts.append(surv_ranks[leaf_sel])
                leaf_mask_parts.append(keep[leaf_sel])
            int_sel = ~leaf_sel
            int_ranks = surv_ranks[int_sel]
            if len(int_ranks):
                # CSR-style frontier expansion: gather every surviving
                # internal node's children in one shot.
                starts = self._child_offsets[int_ranks]
                cnts = self._child_offsets[int_ranks + 1] - starts
                rep = np.repeat(np.arange(len(int_ranks)), cnts)
                within = np.arange(int(cnts.sum())) - (np.cumsum(cnts) - cnts)[rep]
                frontier_ranks = self._child_flat[starts[rep] + within]
                frontier_masks = keep[int_sel][rep]
            else:
                frontier_ranks = np.empty(0, dtype=np.intp)
        empty = np.empty(0, dtype=np.intp)
        batch_ranks = (
            np.concatenate(batch_rank_parts) if batch_rank_parts else empty
        )
        batch_best = (
            np.concatenate(batch_best_parts) if batch_best_parts else empty
        )
        leaf_ranks = np.concatenate(leaf_rank_parts) if leaf_rank_parts else empty
        leaf_masks = (
            np.vstack(leaf_mask_parts)
            if leaf_mask_parts
            else np.empty((0, k), dtype=bool)
        )
        leaf_points, leaf_idx, leaf_winners, leaf_offsets = self._scan_leaves_batch(
            leaf_ranks, leaf_masks
        )
        # Replay: stack every decision's addend rows in reference (pre-order)
        # order — one sv row per batch-assigned node, the leaf's point rows
        # per scanned leaf — and fold them with one sequential bincount
        # scatter-add.  Bin-internal accumulation runs in row order, so each
        # (cluster, dim) cell sums in exactly the reference's sequence.
        n_batch = len(batch_ranks)
        order = np.argsort(np.concatenate([batch_ranks, leaf_ranks]))
        addends: List[np.ndarray] = []
        keys: List[np.ndarray] = []
        for pos in order:
            if pos < n_batch:
                addends.append(self._svs[batch_ranks[pos]][None])
                keys.append(batch_best[pos : pos + 1])
            else:
                lo, hi = leaf_offsets[pos - n_batch], leaf_offsets[pos - n_batch + 1]
                addends.append(leaf_points[lo:hi])
                keys.append(leaf_winners[lo:hi])
        if addends:
            self._sums[:] = accumulate_cluster_sums(
                np.concatenate(addends), np.concatenate(keys), k
            )
        # Labels and integer counts are order-independent: bulk subtree
        # slice writes for batch assignments, one write for all leaf points.
        lo = self._subtree_starts[batch_ranks]
        hi = self._subtree_ends[batch_ranks]
        np.add.at(self._counts, batch_best, hi - lo)
        for pos in range(n_batch):
            self._labels[self._perm[lo[pos] : hi[pos]]] = batch_best[pos]
        if len(leaf_winners):
            self._labels[leaf_idx] = leaf_winners
            self._counts += np.bincount(leaf_winners, minlength=k)

    def _scan_leaves_batch(
        self, leaf_ranks: np.ndarray, leaf_masks: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One concatenated exact scan over every surviving leaf.

        Returns ``(points, point_indices, winners, offsets)`` where leaf
        ``i`` (in ``leaf_ranks`` order) owns rows
        ``offsets[i]:offsets[i+1]``.  Winners are bit-identical to the
        reference's per-leaf ``candidates[argmin]``: each group scans the
        exact column subset the reference scans (chunked entries are row-
        and column-subset invariant), so argmin sees the same floats in the
        same candidate order.
        """
        d = self.X.shape[1]
        if len(leaf_ranks) == 0:
            empty_idx = np.empty(0, dtype=np.intp)
            return np.empty((0, d)), empty_idx, empty_idx, np.zeros(1, dtype=np.intp)
        counters = self.counters
        # A leaf's perm slice is its own point_indices (see FlatTree).
        lstarts = self._subtree_starts[leaf_ranks]
        sizes = self._subtree_ends[leaf_ranks] - lstarts
        pairs = sizes * leaf_masks.sum(axis=1)
        counters.add_point_accesses(int(pairs.sum()))
        counters.add_distances(int(pairs.sum()))
        rep = np.repeat(np.arange(len(leaf_ranks)), sizes)
        offsets = np.zeros(len(leaf_ranks) + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        within = np.arange(int(offsets[-1])) - offsets[:-1][rep]
        idx = self._perm[lstarts[rep] + within]
        points = self.X[idx]
        # Group leaves sharing the same surviving-candidate set and scan
        # each group over those columns only — the same
        # ``chunked_sq_distances(points, centroids[candidates])`` call the
        # reference makes per leaf (entry- and subset-invariant), but one
        # rectangular kernel per distinct candidate set instead of one per
        # leaf, and no wasted columns for well-pruned frontiers.
        groups: Dict[bytes, List[int]] = {}
        for pos in range(len(leaf_ranks)):
            groups.setdefault(leaf_masks[pos].tobytes(), []).append(pos)
        winners = np.empty(len(points), dtype=np.intp)
        for leaf_positions in groups.values():
            cand = np.flatnonzero(leaf_masks[leaf_positions[0]])
            rowpos = (
                slice(offsets[leaf_positions[0]], offsets[leaf_positions[0] + 1])
                if len(leaf_positions) == 1
                else np.concatenate(
                    [np.arange(offsets[i], offsets[i + 1]) for i in leaf_positions]
                )
            )
            sq = chunked_sq_distances(points[rowpos], self._centroids[cand])
            winners[rowpos] = cand[np.argmin(sq, axis=1)]
        return points, idx, winners, offsets


#: registry of vectorized implementations, keyed by algorithm name
VECTORIZED_ALGORITHMS: Dict[str, Type[KMeansAlgorithm]] = {
    "lloyd": VectorizedLloydKMeans,
    "elkan": VectorizedElkanKMeans,
    "hamerly": VectorizedHamerlyKMeans,
    "yinyang": VectorizedYinyangKMeans,
    "index": VectorizedIndexKMeans,
}

__all__ = [
    "VECTORIZED_ALGORITHMS",
    "VectorizedElkanKMeans",
    "VectorizedHamerlyKMeans",
    "VectorizedIndexKMeans",
    "VectorizedLloydKMeans",
    "VectorizedYinyangKMeans",
    "elkan_assign_rows",
    "elkan_seed_rows",
    "hamerly_assign_rows",
    "hamerly_seed_rows",
    "lloyd_assign_rows",
]
