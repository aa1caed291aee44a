"""Property-based tests (hypothesis) on core invariants.

These verify the load-bearing guarantees across randomly generated inputs:
tree invariants for every index, trajectory equivalence of the accelerated
methods, bound soundness of the block-vector filter, range-search
correctness, and batch-vs-scalar parity of the distance kernels (the
bit-identity contract the vectorized backend is built on, see
``docs/backends.md``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.common.distance import (
    chunked_sq_distances,
    euclidean,
    one_to_many_distances,
    paired_distances,
    paired_sq_distances,
    pairwise_sq_distances,
    sq_euclidean,
)
from repro.core import make_algorithm
from repro.instrumentation.counters import OpCounters
from repro.core.initialization import init_kmeans_plus_plus
from repro.core.lloyd import LloydKMeans
from repro.core.pruning import half_min_separation, second_max, two_smallest
from repro.core.vector import block_norms
from repro.indexes import build_index

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def datasets(min_n=20, max_n=120, min_d=1, max_d=8):
    """Strategy producing well-behaved float data matrices."""
    return st.builds(
        lambda n, d, seed: np.random.default_rng(seed).normal(size=(n, d)) * 3.0,
        st.integers(min_n, max_n),
        st.integers(min_d, max_d),
        st.integers(0, 10_000),
    )


@settings(**SETTINGS)
@given(X=datasets(), name=st.sampled_from(
    ["ball-tree", "kd-tree", "m-tree", "cover-tree", "hkt", "anchors"]))
def test_tree_invariants_hold_for_random_data(X, name):
    tree = build_index(name, X, **({} if name == "cover-tree" else {"capacity": 8}))
    tree.check_invariants()


@settings(**SETTINGS)
@given(X=datasets(min_n=30), seed=st.integers(0, 1000))
def test_range_search_equals_bruteforce(X, seed):
    rng = np.random.default_rng(seed)
    tree = build_index("ball-tree", X, capacity=6)
    center = X[int(rng.integers(0, len(X)))] + rng.normal(0, 0.5, size=X.shape[1])
    radius = float(rng.uniform(0.1, 5.0))
    hits = set(tree.range_search(center, radius))
    brute = set(np.flatnonzero(np.linalg.norm(X - center, axis=1) <= radius))
    assert hits == brute


@settings(**SETTINGS)
@given(
    X=datasets(min_n=40, max_n=150),
    k=st.integers(2, 8),
    name=st.sampled_from(
        ["elkan", "hamerly", "yinyang", "drake", "heap", "annular",
         "exponion", "drift", "vector", "pami20", "unik", "index", "sphere"]
    ),
)
def test_accelerated_methods_match_lloyd(X, k, name):
    C0 = init_kmeans_plus_plus(X, k, seed=0)
    base = LloydKMeans().fit(X, k, initial_centroids=C0, max_iter=40)
    result = make_algorithm(name).fit(X, k, initial_centroids=C0, max_iter=40)
    assert result.sse == pytest.approx(base.sse, rel=1e-7, abs=1e-9)


@settings(**SETTINGS)
@given(X=datasets(min_n=10, max_n=60, min_d=2), blocks=st.integers(1, 4))
def test_block_norm_bound_soundness(X, blocks):
    """The block-vector inner-product bound never exceeds the true distance."""
    blocks = min(blocks, X.shape[1])
    A, B = X[: len(X) // 2], X[len(X) // 2 :]
    if len(A) == 0 or len(B) == 0:
        return
    ab = block_norms(A, blocks)
    bb = block_norms(B, blocks)
    an = np.einsum("ij,ij->i", A, A)
    bn = np.einsum("ij,ij->i", B, B)
    for i in range(len(A)):
        for j in range(len(B)):
            sq = an[i] + bn[j] - 2.0 * float(ab[i] @ bb[j])
            bound = np.sqrt(max(sq, 0.0))
            assert bound <= np.linalg.norm(A[i] - B[j]) + 1e-7


@settings(**SETTINGS)
@given(values=arrays(np.float64, st.integers(1, 30),
                     elements=st.floats(-1e6, 1e6, allow_nan=False)))
def test_two_smallest_consistency(values):
    idx, lo, hi = two_smallest(values)
    assert lo == values.min()
    assert idx == int(np.argmin(values))
    if len(values) > 1:
        assert hi >= lo
        assert hi == np.partition(np.delete(values, idx), 0)[0]


@settings(**SETTINGS)
@given(values=arrays(np.float64, st.integers(1, 30),
                     elements=st.floats(0, 1e6, allow_nan=False)))
def test_second_max_consistency(values):
    idx, top, second = second_max(values)
    assert top == values.max()
    assert second <= top


@settings(**SETTINGS)
@given(X=datasets(min_n=5, max_n=30, min_d=2, max_d=4))
def test_half_min_separation_soundness(X):
    """s(j) is half the distance to j's true nearest other centroid."""
    from repro.common.distance import centroid_pairwise_distances

    cc = centroid_pairwise_distances(X)
    s = half_min_separation(cc)
    for j in range(len(X)):
        others = np.delete(np.linalg.norm(X - X[j], axis=1), j)
        assert s[j] == pytest.approx(others.min() / 2.0, rel=1e-9)


@settings(**SETTINGS)
@given(X=datasets(min_n=30, max_n=100), k=st.integers(2, 6))
def test_sse_never_increases_with_iterations(X, k):
    """Lloyd's SSE is non-increasing in the iteration budget."""
    C0 = init_kmeans_plus_plus(X, k, seed=1)
    previous = np.inf
    for budget in [1, 3, 10]:
        result = LloydKMeans().fit(X, k, initial_centroids=C0, max_iter=budget)
        assert result.sse <= previous + 1e-9
        previous = result.sse


# ---------------------------------------------------------------------------
# Batch-vs-scalar kernel parity (the vectorized-backend bit-identity contract).
# ---------------------------------------------------------------------------


@settings(**SETTINGS)
@given(X=datasets(min_n=2, max_n=60, min_d=1), seed=st.integers(0, 10_000))
def test_one_to_many_bitwise_equals_scalar_loop(X, seed):
    """one_to_many_distances == looped euclidean() to *exact* equality.

    The sampled Y deliberately contains duplicate rows (gathered with
    replacement) and can be a single row; d=1 comes from the strategy.
    Exact equality — not allclose — is the documented contract: it is what
    preserves tie-breaking when a pointwise candidate loop is batched.
    """
    rng = np.random.default_rng(seed)
    x = X[int(rng.integers(len(X)))]
    m = 1 + int(rng.integers(len(X)))  # m=1: the single-point degenerate
    Y = X[rng.integers(0, len(X), size=m)]  # sampling w/ replacement: dupes
    batch = one_to_many_distances(x, Y)
    scalar = np.array([euclidean(x, y) for y in Y])
    assert (batch == scalar).all()


@settings(**SETTINGS)
@given(X=datasets(min_n=2, max_n=60, min_d=1), seed=st.integers(0, 10_000))
def test_paired_kernels_bitwise_equal_scalar_loop(X, seed):
    rng = np.random.default_rng(seed)
    half = len(X) // 2
    A, B = X[:half], X[half : 2 * half]
    sq = paired_sq_distances(A, B)
    assert (sq == np.array([sq_euclidean(a, b) for a, b in zip(A, B)])).all()
    # A (d,) second operand broadcasts against every row of A — the
    # tighten-to-own-centroid kernel of the vectorized backend.
    b = X[int(rng.integers(len(X)))]
    batch = paired_distances(A, b)
    assert (batch == np.array([euclidean(a, b) for a in A])).all()


@settings(**SETTINGS)
@given(
    dists=arrays(
        np.float64,
        st.tuples(st.integers(1, 25), st.integers(1, 8)),
        # A tiny value alphabet forces many exact duplicates per row — the
        # tie-heavy regime where argmin conventions actually matter.
        elements=st.sampled_from([0.0, 1.0, 2.0]),
    ),
    seed=st.integers(0, 10_000),
)
def test_batched_argmin_breaks_ties_toward_lowest_index(dists, seed):
    """np.argmin == the reference backends' strict-< first-wins scan.

    Every vectorized assignment pass funnels through a row-wise ``argmin``
    (Lloyd's full scan, Yinyang's masked survivor scan), while the
    reference loops candidates in ascending order keeping the first
    strictly smaller distance.  Both resolve duplicated distances to the
    *lowest* index; this pins that convention, including through the
    masked-inf and candidate-subset formulations.
    """
    best = np.argmin(dists, axis=1)
    for row, winner in zip(dists, best):
        scan = 0
        for j in range(1, len(row)):
            if row[j] < row[scan]:  # strict <: ties keep the earlier index
                scan = j
        assert winner == scan
    # Candidate-subset invariance: masking non-candidates to inf and taking
    # the full-width argmin equals the subset argmin mapped back through
    # the ascending candidate list (empty masks excluded — a scanned row
    # always keeps at least one candidate).
    rng = np.random.default_rng(seed)
    k = dists.shape[1]
    cand = np.flatnonzero(rng.random(k) < 0.5)
    if len(cand) == 0:
        cand = np.array([int(rng.integers(k))])
    masked = np.full_like(dists, np.inf)
    masked[:, cand] = dists[:, cand]
    assert (np.argmin(masked, axis=1) == cand[np.argmin(dists[:, cand], axis=1)]).all()


@settings(**SETTINGS)
@given(X=datasets(min_n=4, max_n=40, min_d=1), chunk=st.integers(1, 7))
def test_bulk_kernels_match_scalar_loop_tightly(X, chunk):
    """The expansion/einsum bulk kernels agree with the scalar loop to a
    tight tolerance (they don't promise bit-identity — see the distance
    module docstring) and chunking is numerically invisible."""
    A, B = X[: len(X) // 2], X[len(X) // 2 :]
    looped = np.array([[sq_euclidean(a, b) for b in B] for a in A])
    np.testing.assert_allclose(
        pairwise_sq_distances(A, B), looped, rtol=1e-9, atol=1e-9
    )
    chunked = chunked_sq_distances(A, B, chunk=chunk)
    np.testing.assert_allclose(chunked, looped, rtol=1e-12, atol=1e-12)
    # Chunk size must be bitwise-invisible, not just approximately so.
    assert (chunked == chunked_sq_distances(A, B, chunk=len(A) + 1)).all()


@settings(**SETTINGS)
@given(X=datasets(min_n=4, max_n=30, min_d=1), chunk=st.integers(1, 5))
def test_kernel_counter_charges_are_batch_invariant(X, chunk):
    """Every kernel charges per pruning-model distance, never per BLAS call."""
    A, B = X[: len(X) // 2], X[len(X) // 2 :]
    expected = len(A) * len(B)
    counters = OpCounters()
    pairwise_sq_distances(A, B, counters)
    assert counters.distance_computations == expected
    counters = OpCounters()
    chunked_sq_distances(A, B, counters, chunk=chunk)
    assert counters.distance_computations == expected
    counters = OpCounters()
    one_to_many_distances(A[0], B, counters)
    assert counters.distance_computations == len(B)
    counters = OpCounters()
    paired_sq_distances(A, A[::-1], counters)
    assert counters.distance_computations == len(A)


@settings(**SETTINGS)
@given(X=datasets(min_n=20, max_n=80), k=st.integers(1, 6))
def test_labels_point_to_nearest_centroid_at_convergence(X, k):
    k = min(k, len(X))
    result = LloydKMeans().fit(X, k, seed=0, max_iter=60)
    if not result.converged:
        return
    dists = np.linalg.norm(X[:, None] - result.centroids[None, :], axis=2)
    best = dists[np.arange(len(X)), result.labels]
    assert (best <= dists.min(axis=1) + 1e-9).all()
