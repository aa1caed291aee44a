"""Instrumented Euclidean distance kernels.

Four layers are provided:

* scalar helpers (:func:`euclidean`, :func:`sq_euclidean`) used by the
  pointwise pruning loops of the sequential algorithms, each charging one
  distance computation to the supplied :class:`OpCounters`;
* row-wise batch kernels (:func:`one_to_many_distances`,
  :func:`paired_distances`, :func:`block_distances`) that evaluate many
  scalar distances in one NumPy call while staying **bit-identical** to the
  scalar helpers (see below) — these back the vectorized execution backend
  of :mod:`repro.core.vectorized`;
* bulk kernels (:func:`pairwise_sq_distances`, :func:`chunked_sq_distances`,
  :func:`distances_to_centroids`) used by bulk phases, charging the number
  of row-pairs evaluated;
* the certified GEMM layer: speculative scores (:func:`centroid_scores`)
  with a rounding-error certificate (:func:`certificate_margin`,
  :func:`certified_argmin`), and the two ops built on it —
  :func:`nearest_centroids` behind vectorized Lloyd, ``KMeans.predict``
  and the serving ``Predictor``, and :func:`nearest_and_group_minima`
  behind vectorized Yinyang's iteration 0 — whose results provably equal
  the exact kernel's.

All layers count identically: a "distance computation" is one full
``d``-dimensional evaluation, regardless of how the arithmetic is batched.
That is the counter-semantics contract of ``docs/backends.md``: counters
measure the paper's cost model, never the number of BLAS calls.

Bit-identity: two exact families
--------------------------------
Exact (difference-then-square) distances come in two families whose
values may differ in the last bits, because they sum the ``d`` squares in
different orders:

* the **dot family** — the scalar helpers reduce ``diff @ diff`` with
  NumPy's 1-D dot, and the row-wise batch kernels reduce each row through
  a batched matmul of shape ``(m, 1, d) @ (m, d, 1)``, which dispatches to
  the same per-row dot kernel and so produces the *same 64-bit float* as
  the scalar path for every row;
* the **einsum family** — :func:`chunked_sq_distances` and
  :func:`gathered_sq_distances` reduce with ``einsum("ijk,ijk->ij")``,
  whose pairwise summation differs from the dot kernel's (at 200k x 16,
  k=64, about a third of the entries differ from :func:`sq_euclidean` in
  the last bits).  Within the family every entry is bitwise independent
  of the chunk size and of which row and column subset shares a call.

Each stored bound and label comes from exactly one family on both
backends.  The full scans — iteration 0 of Elkan, Hamerly and Yinyang,
Lloyd's labels, the leaf scans of index k-means — come from the einsum
family: the reference computes them with :func:`chunked_sq_distances`,
the vectorized backend with the same kernel, or with
:func:`gathered_sq_distances` on just the entries a bound keeps.  Every
later distance — bound tightening, candidate scans, rescans — comes
from the dot family: the reference calls the scalar helpers and the
vectorized backend the row-wise kernels (:func:`paired_distances`,
:func:`block_distances`).  This is what lets the vectorized backend
reproduce the reference backend's labels, bounds, tie-breaking, and
convergence trajectory exactly — ``tests/test_backend_conformance.py``
and the hypothesis parity properties enforce it.  The expansion-based
bulk kernels (:func:`pairwise_sq_distances`,
:func:`centroid_pairwise_distances`) trade exactness for speed and are
only used where both backends share the same call site; the GEMM scores
of :func:`centroid_scores` never reach a bound or a label without a
certificate (:func:`certified_argmin`).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.instrumentation.counters import OpCounters

#: rows per block of :func:`nearest_centroids`: the ``(block, k)`` score
#: buffer stays cache-resident (1024–8192 time within 6% of each other at
#: 200k x 16, k=64); a fixed constant, not a knob, because labels do not
#: depend on it
NEAREST_BLOCK_ROWS = 4096

#: safety factor of the certified margin ``MARGIN_FACTOR·(d+4)·eps·(|x|² +
#: max|c|²)``; the error analysis in :func:`nearest_centroids` needs about
#: ``2d+3``, so 16(d+4) leaves an 8x cushion without inflating the suspect
#: set
MARGIN_FACTOR = 16.0

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.nextafter(0.0, 1.0))  # the smallest subnormal


def sq_euclidean(a: np.ndarray, b: np.ndarray, counters: Optional[OpCounters] = None) -> float:
    """Squared Euclidean distance between two vectors (one counted distance)."""
    if counters is not None:
        counters.distance_computations += 1
    diff = a - b
    return float(diff @ diff)


def euclidean(a: np.ndarray, b: np.ndarray, counters: Optional[OpCounters] = None) -> float:
    """Euclidean distance between two vectors (one counted distance)."""
    return math.sqrt(sq_euclidean(a, b, counters))


def sq_norms(X: np.ndarray) -> np.ndarray:
    """Row-wise squared L2 norms (the ``|a|^2`` terms of the expansion trick).

    Factored out so callers that keep a matrix fixed across many calls
    (the vectorized Lloyd assignment, the serving ``Predictor``) can
    compute the norms once and pass them back via the ``x_sq``/``c_sq``
    hooks of :func:`nearest_centroids`.  Uncounted: norms are reusable
    precomputation, not a distance evaluation.
    """
    X = np.atleast_2d(X)
    return np.einsum("ij,ij->i", X, X)


def pairwise_sq_distances(
    A: np.ndarray,
    B: np.ndarray,
    counters: Optional[OpCounters] = None,
) -> np.ndarray:
    """All-pairs squared distances between rows of ``A`` and rows of ``B``.

    Uses the expansion ``|a-b|^2 = |a|^2 + |b|^2 - 2 a.b`` and clamps tiny
    negative values produced by floating-point cancellation.
    """
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    if counters is not None:
        counters.distance_computations += A.shape[0] * B.shape[0]
    aa = sq_norms(A)
    bb = sq_norms(B)
    sq =aa[:, None] + bb[None, :] - 2.0 * np.matmul(A, B.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def pairwise_distances(
    A: np.ndarray, B: np.ndarray, counters: Optional[OpCounters] = None
) -> np.ndarray:
    """All-pairs Euclidean distances between rows of ``A`` and rows of ``B``."""
    return np.sqrt(pairwise_sq_distances(A, B, counters))


def _rowwise_sq_norms(diff: np.ndarray) -> np.ndarray:
    """Per-row ``diff[i] @ diff[i]``, bit-identical to the scalar helpers.

    A batched matmul of shape ``(m, 1, d) @ (m, d, 1)`` runs the same dot
    reduction per row as ``sq_euclidean``'s 1-D ``diff @ diff``, so every
    output element equals the scalar result exactly (not just to rounding).
    A plain ``einsum("ij,ij->i", ...)`` does *not* have this property — its
    pairwise summation order differs from the dot kernel's.
    """
    diff = np.ascontiguousarray(diff)
    return np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]


def one_to_many_distances(
    x: np.ndarray, Y: np.ndarray, counters: Optional[OpCounters] = None
) -> np.ndarray:
    """Distances from one vector to every row of ``Y`` (counts ``len(Y)``).

    Direct differencing with the row-wise dot reduction — bit-identical to
    the scalar helpers — so candidate loops, leaf scans and pivot-gap
    computations that switch to this kernel keep the exact tie-breaking of
    the code they replace.
    """
    if counters is not None:
        counters.distance_computations += Y.shape[0]
    return np.sqrt(_rowwise_sq_norms(Y - x))


def paired_sq_distances(
    A: np.ndarray, B: np.ndarray, counters: Optional[OpCounters] = None
) -> np.ndarray:
    """Row-paired squared distances ``|A[i] - B[i]|^2`` (counts ``len(A)``).

    ``B`` may be a single ``(d,)`` vector, broadcast against every row of
    ``A``.  Bit-identical to calling :func:`sq_euclidean` per row — the
    bound-tightening kernel of the vectorized backend (many points, each to
    its own assigned centroid).
    """
    A = np.atleast_2d(A)
    diff = A - B
    if counters is not None:
        counters.distance_computations += diff.shape[0]
    return _rowwise_sq_norms(diff)


def paired_distances(
    A: np.ndarray, B: np.ndarray, counters: Optional[OpCounters] = None
) -> np.ndarray:
    """Row-paired Euclidean distances, bit-identical to :func:`euclidean`."""
    return np.sqrt(paired_sq_distances(A, B, counters))


def block_sq_distances(
    A: np.ndarray, B: np.ndarray, counters: Optional[OpCounters] = None
) -> np.ndarray:
    """All-pairs squared distances with scalar-identical numerics.

    Returns the ``(len(A), len(B))`` block where entry ``(i, j)`` is
    bit-identical to ``sq_euclidean(A[i], B[j])``; charges one distance per
    entry.  Slower than :func:`pairwise_sq_distances` (no expansion trick)
    but exact — the rescan kernel of the vectorized backend, where every
    entry must reproduce the reference backend's pointwise loop.
    """
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    if counters is not None:
        counters.distance_computations += A.shape[0] * B.shape[0]
    diff = A[:, None, :] - B[None, :, :]
    flat = _rowwise_sq_norms(diff.reshape(-1, diff.shape[-1]))
    return flat.reshape(A.shape[0], B.shape[0])


def block_distances(
    A: np.ndarray, B: np.ndarray, counters: Optional[OpCounters] = None
) -> np.ndarray:
    """All-pairs Euclidean distances, entry-identical to :func:`euclidean`."""
    return np.sqrt(block_sq_distances(A, B, counters))


def distances_to_centroids(
    x: np.ndarray, centroids: np.ndarray, counters: Optional[OpCounters] = None
) -> np.ndarray:
    """Distances from one point to every centroid (counts ``k`` distances)."""
    return one_to_many_distances(x, centroids, counters)


def centroid_pairwise_distances(
    centroids: np.ndarray,
    counters: Optional[OpCounters] = None,
    *,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Symmetric centroid-to-centroid distance matrix.

    Charges ``k(k-1)/2`` distance computations — the cost the paper assigns
    to Elkan's inter-bound (Section 4.1).

    ``scratch`` optionally supplies a reusable ``(2, k, k)`` float64 buffer
    (Gram matrix + result); per-iteration callers avoid two allocations and
    the returned matrix aliases ``scratch[1]``.  The buffered path runs the
    same operations in the same association order — ``(aa_i + aa_j)`` first,
    then subtract ``2 * gram`` — so every entry is bit-identical to the
    allocating path.
    """
    k = centroids.shape[0]
    if counters is not None:
        counters.distance_computations += k * (k - 1) // 2
    aa = np.einsum("ij,ij->i", centroids, centroids)
    if scratch is None:
        sq = aa[:, None] + aa[None, :] - 2.0 * (centroids @ centroids.T)
    else:
        gram, sq = scratch[0], scratch[1]
        np.matmul(centroids, centroids.T, out=gram)
        np.add(aa[:, None], aa[None, :], out=sq)
        np.multiply(gram, 2.0, out=gram)
        np.subtract(sq, gram, out=sq)
    np.maximum(sq, 0.0, out=sq)
    np.fill_diagonal(sq, 0.0)
    return np.sqrt(sq, out=sq)


def chunked_sq_distances(
    A: np.ndarray,
    B: np.ndarray,
    counters: Optional[OpCounters] = None,
    *,
    chunk: int = 512,
) -> np.ndarray:
    """All-pairs squared distances via direct differencing, chunked.

    Slower than :func:`pairwise_sq_distances` but exact (no cancellation).
    It is the einsum family of the module docstring, *not* the dot family
    of the per-point helpers: entries may differ from :func:`sq_euclidean`
    in the last bits.  Every entry is bitwise independent of ``chunk`` and
    equals the matching :func:`gathered_sq_distances` entry, so a full scan
    and a gathered subset of it agree exactly.

    Counter parity: charges exactly one distance per row-pair, identical to
    :func:`pairwise_sq_distances`, regardless of ``chunk`` — the charge is
    taken once up front, never inside the chunk loop, so chunk size is a
    pure memory/throughput knob with no effect on any Table 3 metric
    (regression-tested in ``tests/test_common_distance.py``).
    """
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    if counters is not None:
        counters.distance_computations += A.shape[0] * B.shape[0]
    out = np.empty((A.shape[0], B.shape[0]))
    for start in range(0, A.shape[0], chunk):
        stop = min(start + chunk, A.shape[0])
        diff = A[start:stop, None, :] - B[None, :, :]
        out[start:stop] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def gathered_sq_distances(
    A: np.ndarray,
    B: np.ndarray,
    cols: np.ndarray,
    counters: Optional[OpCounters] = None,
) -> np.ndarray:
    """``out[i, p] = |A[i] − B[cols[i, p]]|²`` in the einsum family.

    Each entry is bit-identical to ``chunked_sq_distances(A, B)[i,
    cols[i, p]]`` — same differences, same ``einsum`` reduction over ``d``
    — without evaluating the other columns.  Charges ``cols.size``.
    """
    A = np.atleast_2d(A)
    if counters is not None:
        counters.distance_computations += cols.size
    # Subtracting into the gathered buffer skips a fresh (m, p, d)
    # allocation; the differences are the same ``A[i] − B[j]`` floats.
    diff = np.take(B, cols, axis=0)
    np.subtract(A[:, None, :], diff, out=diff)
    return np.einsum("ijk,ijk->ij", diff, diff)


def centroid_scores(X: np.ndarray, C: np.ndarray, c_sq: np.ndarray) -> np.ndarray:
    """Speculative GEMM scores ``s_j = |c_j|² − 2 x·c_j``, shape ``(m, k)``.

    ``|x − c_j|²`` minus the row constant ``|x|²``, up to rounding.  Never
    a distance in its own right — callers certify what they read from it
    (:func:`certified_argmin`, :func:`certificate_margin`) and charge the
    distances their algorithm decided to evaluate — so uncounted.
    ``c_sq`` is ``sq_norms(C)``.  A single ``(d,)`` centroid with a scalar
    ``c_sq`` gives shape ``(m,)``, one matrix-vector product.
    """
    scores = np.matmul(X, -2.0 * C.T)
    scores += c_sq
    return scores


def certificate_margin(x_sq: np.ndarray, c_sq_max: float, d: int) -> np.ndarray:
    """Per-row certificate threshold ``2M`` for :func:`centroid_scores`.

    ``M = MARGIN_FACTOR·(d+4)·(eps·S + tiny)`` with ``S = |x|² +
    max|c|²``; the error analysis of the two-sided use, a runner-up gap,
    is in :func:`nearest_centroids`.  ``c_sq_max`` may bound any superset
    of the scored centroids.  Up to the ``tiny`` term the margin is linear
    in ``x_sq`` and ``c_sq_max``, so ``certificate_margin(x_sq, 0, d) +
    certificate_margin(0, c_sq, d)`` is at least the whole and may be
    subtracted in those two parts.

    One-sided use, ``|x|²`` included (the k-means++ D² update).  For one
    centroid ``c``, the full score ``s = |x|² + s_c`` adds a computed
    ``|x|²`` to the :func:`centroid_scores` value and subtracts the margin
    in parts.  Against the true ``D = |x − c|²``, with ``u``, ``γ_m`` and
    ``S`` as in :func:`nearest_centroids`:

    * the three terms err by ``γ_d |x|²``, ``γ_d |c|²`` and
      ``γ_d (|x|² + |c|²)`` (the dot), together ≤ ``d·eps·S``;
    * the additions and subtractions (at most four, each on a value of
      size at most ``2S``) err by ≤ ``4u·2S = 4·eps·S``;

    so the computed ``s − 2M`` is within ``E_s ≈ (d+4)·eps·S`` of
    ``D − 2M``.  The exact kernel's ``e`` errs from ``D`` by ≤ ``E_e ≈
    (d+2)·eps·S``.  So a computed ``s − 2M ≥ closest_sq`` gives ``e ≥ D − E_e ≥
    closest_sq + 2M − E_s − E_e ≥ closest_sq``: the strict-``<`` D²
    update keeps ``closest_sq``.  ``2M ≥ E_s + E_e ≈ (2d+6)·eps·S`` is all
    that is needed, so ``16(d+4)`` leaves a 16x cushion.  The ``tiny``
    term covers gradual underflow, at most half the smallest subnormal per
    operation.  Any overflow leaves ``s − 2M`` at ``±inf`` or NaN: NaN and
    ``+inf`` must not be trusted, and ``−inf`` never reaches a distance.
    """
    return (2.0 * MARGIN_FACTOR * (d + 4)) * (_EPS * (x_sq + c_sq_max) + _TINY)


def certified_argmin(
    scores: np.ndarray,
    two_margin: np.ndarray,
    lone: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Speculative row argmin of ``scores`` and whether it is certified.

    Returns ``(winner, certified)``.  A certified row's winner is the
    strict, unique minimum of the exact distances of both families over
    the row's candidates (the argument in :func:`nearest_centroids`), so
    no tie-breaking is involved.  ``scores`` is overwritten: each row's
    winner becomes ``+inf``, so a second call yields the runner-up and its
    certificate.  Excluded candidates are ``+inf`` entries; ``lone`` flags
    rows with exactly one candidate, certified when its score is finite.
    NaN and overflow never certify, nor does a row without a finite score,
    whose gap is ``inf − inf``: callers that expect such rows silence
    NumPy's invalid-value warning around the call.
    """
    rows = np.arange(len(scores))
    winner = np.argmin(scores, axis=1)
    best = scores[rows, winner]
    scores[rows, winner] = np.inf
    # argmin + gather is the row min, NaN included, at half the cost of
    # ``min(axis=1)`` on short rows.
    gap = scores[rows, np.argmin(scores, axis=1)] - best
    # NaN fails the first test, an overflowed runner-up the second; a lone
    # row's gap is +inf exactly when its only score is finite.
    bounded = gap < np.inf
    if lone is not None:
        bounded |= lone
    return winner, (gap > two_margin) & bounded


def nearest_centroids(
    X: np.ndarray,
    C: np.ndarray,
    counters: Optional[OpCounters] = None,
    *,
    x_sq: Optional[np.ndarray] = None,
    c_sq: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Index of the nearest row of ``C`` for every row of ``X`` (certified).

    Returns exactly ``np.argmin(chunked_sq_distances(X, C), axis=1)`` —
    first index on ties — at GEMM speed, charging ``len(X) * len(C)``
    distances.  ``x_sq`` / ``c_sq`` optionally supply cached row norms
    (:func:`sq_norms`).

    For each block of :data:`NEAREST_BLOCK_ROWS` rows one GEMM yields the
    scores ``s_j = |c_j|² − 2 x·c_j`` (:func:`centroid_scores`; ``|x|²``
    is constant along a row, so it is left out); the argmin of the scores
    is the speculative label, and the runner-up is the min after masking
    the winner with ``inf``.  A row is *certified* when its runner-up gap
    exceeds twice the margin ``M = MARGIN_FACTOR·(d+4)·(eps·S + tiny)``,
    ``S = |x|² + max|c|²`` (:func:`certificate_margin`,
    :func:`certified_argmin`).  The uncertified rows — near-ties, genuine
    ties, non-finite values — are recomputed with the exact kernel after
    all blocks.

    Why the margin covers the ``|x|²``-free form.  Let ``u = eps/2`` and
    ``γ_m = m·u / (1 − m·u)``, so a length-``m`` dot product in any
    summation order errs by at most ``γ_m Σ|a_i b_i|`` (Higham, Thm 3.1).
    For the exact reals ``f_j = |c_j|² − 2 x·c_j``:

    * ``fl(|c_j|²)`` errs by ≤ ``γ_d |c_j|²``;
    * ``x·(−2c_j)`` (scaling by −2 is exact) errs by
      ≤ ``2γ_d |x||c_j| ≤ γ_d (|x|² + |c_j|²)``;
    * the final add errs by ≤ ``u`` times its result, itself
      ≤ ``(1+γ_d)(|c_j|² + 2|x||c_j|) ≤ 2(1+γ_d) S``;

    so ``|s_j − f_j| ≤ E_s ≈ (d+1)·eps·S``.  An exact kernel differences
    then sums ``d`` squares, in whatever order its family uses, so its
    entry ``e_j`` errs from the true ``D_j = |x − c_j|² ≤ 2S`` by
    ≤ ``γ_{d+2} D_j ≤ E_e ≈ (d+2)·eps·S``.  Because ``D_j − D_w = f_j −
    f_w``, a gap ``s_j − s_w > 2M`` for every ``j ≠ w`` gives ``e_j − e_w
    ≥ (s_j − s_w) − 2E_s − 2E_e > 2(M − E_s − E_e) ≥ 0``: the exact row
    has the strict, unique minimum ``w``, with no tie-breaking involved.
    ``M ≥ E_s + E_e ≈ (2d+3)·eps·S`` is all that is needed; the ``tiny``
    term (the smallest subnormal) absorbs the absolute error of gradual
    underflow, and overflow makes the gap or the margin non-finite, which
    never certifies.

    Labels therefore do not depend on the block size or on which rows
    share a call: any row subset gets the same labels bit for bit.
    """
    X = np.atleast_2d(X)
    C = np.atleast_2d(C)
    m, d = X.shape
    k = C.shape[0]
    if counters is not None:
        counters.distance_computations += m * k
    labels = np.zeros(m, dtype=np.intp)
    if k == 1 or m == 0:
        return labels
    x_sq = sq_norms(X) if x_sq is None else x_sq
    c_sq = sq_norms(C) if c_sq is None else c_sq
    two_margin = certificate_margin(x_sq, float(c_sq.max()), d)
    suspects = []
    for lo in range(0, m, NEAREST_BLOCK_ROWS):
        hi = min(lo + NEAREST_BLOCK_ROWS, m)
        winner, certified = certified_argmin(
            centroid_scores(X[lo:hi], C, c_sq), two_margin[lo:hi]
        )
        labels[lo:hi] = winner
        if not certified.all():
            suspects.append(lo + np.flatnonzero(~certified))
    if suspects:
        suspects = np.concatenate(suspects)
        exact = chunked_sq_distances(X[suspects], C)
        labels[suspects] = np.argmin(exact, axis=1)
    return labels


def nearest_and_group_minima(
    X: np.ndarray,
    C: np.ndarray,
    members: Sequence[np.ndarray],
    counters: Optional[OpCounters] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest centroid plus per-group runner-up minima, certified.

    ``members`` partitions the rows of ``C`` into ``t`` groups.  With
    ``E = chunked_sq_distances(X, C)`` returns ``(labels, own_sq,
    group_sq)``, bitwise equal to

    * ``labels = np.argmin(E, axis=1)`` (first index on ties),
    * ``own_sq[i] = E[i, labels[i]]``,
    * ``group_sq[i, g]`` = the min of ``E[i, j]`` over the members ``j`` of
      group ``g`` other than ``labels[i]`` (``inf`` when there is none),

    charging ``len(X) * len(C)`` distances.  Per block of
    :data:`NEAREST_BLOCK_ROWS` rows one GEMM gives the scores; the
    certified argmin names the label, and with the label masked, a second
    certified argmin per group names the group's minimum.  Only those
    ``t + 1`` entries per row are evaluated exactly, with
    :func:`gathered_sq_distances`, so they are the very bits ``E`` holds.
    A group with one candidate left needs no certificate.  Rows where any
    certificate fails are recomputed whole with the exact kernel after
    all blocks, as in :func:`nearest_centroids`.
    """
    X = np.atleast_2d(X)
    C = np.atleast_2d(C)
    m, d = X.shape
    k = C.shape[0]
    t = len(members)
    if counters is not None:
        counters.distance_computations += m * k
    labels = np.empty(m, dtype=np.intp)
    own_sq = np.empty(m)
    group_sq = np.empty((m, t))
    if m == 0:
        return labels, own_sq, group_sq
    group_of = np.empty(k, dtype=np.intp)
    for g, mem in enumerate(members):
        group_of[mem] = g
    c_sq = sq_norms(C)
    two_margin = certificate_margin(sq_norms(X), float(c_sq.max()), d)
    sizes = np.array([len(mem) for mem in members])
    suspects = []
    for lo in range(0, m, NEAREST_BLOCK_ROWS):
        hi = min(lo + NEAREST_BLOCK_ROWS, m)
        margin = two_margin[lo:hi]
        scores = centroid_scores(X[lo:hi], C, c_sq)
        # With k == 1 the label is every row's lone candidate.
        winner, certified = certified_argmin(scores, margin, lone=np.full(hi - lo, k == 1))
        # Candidates left per (row, group) once the label is masked.
        left = sizes[None, :] - (group_of[winner][:, None] == np.arange(t))
        cols = np.empty((hi - lo, t + 1), dtype=np.intp)
        cols[:, 0] = winner
        for g, mem in enumerate(members):
            # A group whose only member is the label has no candidate left.
            with np.errstate(invalid="ignore"):
                gwin, gcert = certified_argmin(scores[:, mem], margin, lone=left[:, g] == 1)
            empty = left[:, g] == 0
            certified &= gcert | empty
            cols[:, g + 1] = np.where(empty, winner, mem[gwin])
        exact = gathered_sq_distances(X[lo:hi], C, cols)
        labels[lo:hi] = winner
        own_sq[lo:hi] = exact[:, 0]
        group_sq[lo:hi] = np.where(left == 0, np.inf, exact[:, 1:])
        if not certified.all():
            suspects.append(lo + np.flatnonzero(~certified))
    if suspects:
        suspects = np.concatenate(suspects)
        exact = chunked_sq_distances(X[suspects], C)
        rows = np.arange(len(suspects))
        labels[suspects] = np.argmin(exact, axis=1)
        own_sq[suspects] = exact[rows, labels[suspects]]
        exact[rows, labels[suspects]] = np.inf
        for g, mem in enumerate(members):
            group_sq[suspects, g] = exact[:, mem].min(axis=1)
    return labels, own_sq, group_sq


def norms(X: np.ndarray) -> np.ndarray:
    """Row-wise L2 norms (used by the norm-based bounds of Section 4.3)."""
    return np.sqrt(sq_norms(X))
