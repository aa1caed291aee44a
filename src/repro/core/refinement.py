"""Shared vectorized refinement step: scatter-add centroid update + drift.

Every algorithm funnels refinement through :meth:`KMeansAlgorithm._refine`;
this module holds the two kernels that step is built from so both execution
backends (and UniK's incremental variant) share one implementation:

* :func:`accumulate_cluster_sums` — per-cluster point sums via a flattened
  ``np.bincount`` scatter-add;
* :func:`accumulate_column_sums` — the same sums for a block of columns,
  from a transposed copy of the points, which lets the sharded engine
  split the scatter-add by column;
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

import numpy as np


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


def accumulate_column_sums(
    xt_cols: np.ndarray, labels: np.ndarray, k: int, out: np.ndarray
) -> None:
    """Per-cluster sums of a block of columns, written into ``out``.

    ``xt_cols`` is a ``(c, n)`` block of rows of the contiguous
    transposed point matrix, ``out`` a ``(k, c)`` view of the matching
    columns of the sums.  Each column is one ``np.bincount`` over the
    labels, which folds every bucket in ascending row order from zero:
    ``out[:, j]`` is bitwise equal to column ``j`` of
    :func:`accumulate_cluster_sums` (and of ``np.add.at``).  A split of
    the columns is therefore exact, unlike a merge of partial sums over
    row ranges.
    """
    for j, column in enumerate(xt_cols):
        out[:, j] = np.bincount(labels, weights=column, minlength=k)


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
