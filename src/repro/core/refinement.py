"""Shared vectorized refinement step: scatter-add centroid update + drift.

Every algorithm funnels refinement through :meth:`KMeansAlgorithm._refine`;
this module holds the two kernels that step is built from so both execution
backends (and UniK's incremental variant) share one implementation:

* :func:`accumulate_cluster_sums` — per-cluster point sums via a flattened
  ``np.bincount`` scatter-add;
* :func:`centroid_drifts` — per-centroid movement after refinement (the
  quantity every bound-update rule of Section 4 consumes).

Bit-identity
------------
``np.bincount`` with weights and ``np.add.at`` both accumulate their
operands *sequentially in element order* into the output bucket, so from a
zero base the two produce bitwise-identical sums — ``bincount`` is simply
~3x faster because it runs one fused C loop over a contiguous weights
array instead of ufunc inner-loop dispatch per row.  That equivalence is
regression-tested in ``tests/test_backend_conformance.py``
(``test_scatter_add_matches_add_at``); it does **not** hold when
accumulating into a non-zero base (the partial sum would be formed before
the base is added, changing the rounding sequence), which is why the
``delta`` refinement mode in :mod:`repro.core.base` keeps ``np.add.at``.

Counter semantics: neither kernel charges counters itself — refinement
point-access charges are mode-dependent (``rescan`` re-reads every point,
``delta`` only the movers, ``none`` nothing) and stay with the caller.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

#: Opts this module into R008 (backend-purity): any distance arithmetic
#: here must go through the counted kernels in ``repro.common.distance``.
BACKEND_ROUTED = True


def accumulate_cluster_sums(
    X: np.ndarray, labels: np.ndarray, k: int
) -> np.ndarray:
    """Per-cluster sums of the rows of ``X``, grouped by ``labels``.

    Returns a fresh ``(k, d)`` array; entry ``j`` is the sum of every row
    with ``labels == j``, accumulated in ascending row order — bitwise
    identical to ``out = zeros((k, d)); np.add.at(out, labels, X)``.
    """
    n, d = X.shape
    flat_idx = (labels[:, None] * d + np.arange(d)).ravel()
    flat = np.bincount(flat_idx, weights=X.ravel(), minlength=k * d)
    return flat.reshape(k, d)


def merge_shard_assignments(
    X: np.ndarray,
    k: int,
    shard_labels: Sequence[np.ndarray],
    shard_ranges: Sequence[Tuple[int, int]],
    *,
    lost: Sequence[int] = (),
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold per-shard assignment outputs into ``(labels, sums, counts)``.

    The sharded engine's merge step: shard ``r`` covers the contiguous row
    range ``shard_ranges[r] = (lo, hi)`` of ``X`` and contributes the label
    slice ``shard_labels[r]``.  Shards are folded **in shard-rank order**
    regardless of worker completion order, and the centroid sums come from
    one :func:`accumulate_cluster_sums` scatter-add over the concatenated
    rows — so with every shard present the result is *bitwise* equal to the
    unsharded ``accumulate_cluster_sums(X, labels, k)``.

    That replay discipline is load-bearing: summing per-shard *partial*
    ``(k, d)`` sums would associate the float additions differently (e.g.
    rows ``[1.0, 1.0, 1e16]`` split ``[1.0] | [1.0, 1e16]`` — the full fold
    yields ``1.0000000000000002e16``, the partial-sum merge ``1e16``), and
    bit-identity to the single-process backend is the engine's contract
    (R011 lints exactly this ordering discipline; see docs/sharding.md).

    ``lost`` names shard ranks with no usable labels (``degrade`` policy):
    their rows are excluded from the fold and keep label ``-1`` in the
    returned full-length label vector.  Counts are integer bincounts over
    the surviving rows (integer addition is associative, so per-shard
    count merging and a global bincount agree exactly).
    """
    n, d = X.shape
    if len(shard_labels) != len(shard_ranges):
        raise ValueError(
            f"{len(shard_labels)} label slices but {len(shard_ranges)} ranges"
        )
    labels = np.full(n, -1, dtype=np.intp)
    lost_set = frozenset(int(r) for r in lost)
    expected = 0
    survivors = []
    for rank, (lo, hi) in enumerate(shard_ranges):
        if lo != expected or hi < lo:
            raise ValueError(
                f"shard ranges must partition [0, {n}) contiguously; "
                f"shard {rank} covers [{lo}, {hi}) after {expected}"
            )
        expected = hi
        if rank in lost_set:
            continue
        slice_labels = shard_labels[rank]
        if slice_labels is None or len(slice_labels) != hi - lo:
            raise ValueError(
                f"shard {rank} labels cover {0 if slice_labels is None else len(slice_labels)} "
                f"rows, range is [{lo}, {hi})"
            )
        labels[lo:hi] = slice_labels
        survivors.append(rank)
    if expected != n:
        raise ValueError(f"shard ranges cover [0, {expected}), data has {n} rows")
    if len(survivors) == len(shard_ranges):
        # No loss: one scatter-add over the full matrix, bit-identical to
        # the unsharded refinement fold.
        sums = accumulate_cluster_sums(X, labels, k)
        counts = np.bincount(labels, minlength=k).astype(np.intp)
        return labels, sums, counts
    if survivors:
        rows = np.concatenate([np.arange(*shard_ranges[r]) for r in survivors])
        sums = accumulate_cluster_sums(X[rows], labels[rows], k)
        counts = np.bincount(labels[rows], minlength=k).astype(np.intp)
    else:
        sums = np.zeros((k, d))
        counts = np.zeros(k, dtype=np.intp)
    return labels, sums, counts


def centroid_drifts(new_centroids: np.ndarray, old_centroids: np.ndarray) -> np.ndarray:
    """Per-centroid Euclidean drift after one refinement step.

    NOT charged to distance_computations: drift is convergence/bound-
    maintenance bookkeeping computed once per iteration for every algorithm
    by the shared skeleton, so the Table 3 counters isolate assignment-phase
    pruning work (Lloyd's baseline stays exactly ``n * k`` per iteration).
    See docs/static_analysis.md ("the drift convention").
    """
    # repro: ignore[R001] — uncounted by the drift convention documented above
    return np.linalg.norm(new_centroids - old_centroids, axis=1)
