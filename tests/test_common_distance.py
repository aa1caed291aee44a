"""Unit tests for the instrumented distance kernels."""

import numpy as np
import pytest

from repro.common.distance import (
    block_distances,
    block_sq_distances,
    centroid_pairwise_distances,
    chunked_sq_distances,
    distances_to_centroids,
    euclidean,
    gathered_sq_distances,
    norms,
    one_to_many_distances,
    paired_distances,
    paired_sq_distances,
    pairwise_distances,
    pairwise_sq_distances,
    sq_euclidean,
)
from repro.instrumentation.counters import OpCounters


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestScalarDistances:
    def test_euclidean_matches_numpy(self, rng):
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert euclidean(a, b) == pytest.approx(np.linalg.norm(a - b))

    def test_sq_euclidean(self, rng):
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert sq_euclidean(a, b) == pytest.approx(np.linalg.norm(a - b) ** 2)

    def test_counts_one_distance(self, rng):
        counters = OpCounters()
        euclidean(rng.normal(size=3), rng.normal(size=3), counters)
        assert counters.distance_computations == 1

    def test_zero_distance(self):
        a = np.array([1.0, 2.0])
        assert euclidean(a, a) == 0.0


class TestBatchDistances:
    def test_pairwise_matches_bruteforce(self, rng):
        A = rng.normal(size=(7, 4))
        B = rng.normal(size=(5, 4))
        got = pairwise_distances(A, B)
        want = np.linalg.norm(A[:, None] - B[None, :], axis=2)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_pairwise_counts(self, rng):
        counters = OpCounters()
        pairwise_sq_distances(rng.normal(size=(7, 4)), rng.normal(size=(5, 4)), counters)
        assert counters.distance_computations == 35

    def test_pairwise_clamps_negative(self):
        # Identical rows can produce tiny negatives under expansion.
        A = np.full((3, 8), 1e8)
        sq = pairwise_sq_distances(A, A)
        assert (sq >= 0.0).all()

    def test_chunked_matches_pairwise(self, rng):
        A = rng.normal(size=(600, 3))
        B = rng.normal(size=(4, 3))
        np.testing.assert_allclose(
            chunked_sq_distances(A, B, chunk=128),
            pairwise_sq_distances(A, B),
            atol=1e-9,
        )

    def test_chunked_counts(self, rng):
        counters = OpCounters()
        chunked_sq_distances(rng.normal(size=(10, 2)), rng.normal(size=(3, 2)), counters)
        assert counters.distance_computations == 30

    def test_distances_to_centroids(self, rng):
        x = rng.normal(size=4)
        C = rng.normal(size=(6, 4))
        got = distances_to_centroids(x, C)
        np.testing.assert_allclose(got, np.linalg.norm(C - x, axis=1), atol=1e-12)

    def test_distances_to_centroids_counts_k(self, rng):
        counters = OpCounters()
        distances_to_centroids(rng.normal(size=4), rng.normal(size=(6, 4)), counters)
        assert counters.distance_computations == 6


class TestChunkedCounterParity:
    """Chunk size is a memory knob — it must never change a Table 3 metric.

    Regression for the counter-parity contract of ``chunked_sq_distances``:
    the charge is one distance per row-pair, taken once up front, exactly
    as ``pairwise_sq_distances`` charges — for *every* chunk size,
    including chunks that don't divide n and chunks larger than n.
    """

    @pytest.mark.parametrize("chunk", [1, 3, 7, 512, 10_000])
    def test_charge_is_chunk_invariant(self, rng, chunk):
        A = rng.normal(size=(23, 3))
        B = rng.normal(size=(5, 3))
        counters = OpCounters()
        chunked_sq_distances(A, B, counters, chunk=chunk)
        assert counters.distance_computations == 23 * 5

    def test_charge_equals_pairwise(self, rng):
        A = rng.normal(size=(17, 4))
        B = rng.normal(size=(6, 4))
        chunked_counters = OpCounters()
        pairwise_counters = OpCounters()
        chunked_sq_distances(A, B, chunked_counters, chunk=4)
        pairwise_sq_distances(A, B, pairwise_counters)
        assert (
            chunked_counters.distance_computations
            == pairwise_counters.distance_computations
            == 17 * 6
        )

    def test_values_are_chunk_invariant_bitwise(self, rng):
        A = rng.normal(size=(50, 4))
        B = rng.normal(size=(7, 4))
        baseline = chunked_sq_distances(A, B, chunk=512)
        for chunk in (1, 13, 50):
            assert (chunked_sq_distances(A, B, chunk=chunk) == baseline).all()

    @pytest.mark.parametrize("d", [1, 3, 16, 37])
    def test_gathered_pairs_are_subset_invariant_bitwise(self, rng, d):
        # The einsum family: a gathered pair equals the full scan's entry
        # bit for bit, whatever rows and columns share the call and however
        # the scan is chunked.  The certified Yinyang seeding relies on it.
        A = rng.normal(size=(60, d)) * 10.0 ** rng.integers(-3, 4, size=(60, 1)) + 7.0
        B = rng.normal(size=(9, d)) + 7.0
        full = {chunk: chunked_sq_distances(A, B, chunk=chunk) for chunk in (1, 7, 512)}
        for n_rows, n_pairs in [(1, 1), (1, 9), (13, 1), (60, 4), (37, 20)]:
            rows = rng.choice(len(A), size=n_rows, replace=n_rows > len(A))
            cols = rng.integers(0, len(B), size=(n_rows, n_pairs))
            gathered = gathered_sq_distances(A[rows], B, cols)
            assert gathered.shape == (n_rows, n_pairs)
            for baseline in full.values():
                assert (gathered == baseline[rows[:, None], cols]).all()

    def test_gathered_counts_pairs(self, rng):
        counters = OpCounters()
        gathered_sq_distances(
            rng.normal(size=(5, 2)), rng.normal(size=(3, 2)),
            np.zeros((5, 4), dtype=np.intp), counters,
        )
        assert counters.as_dict() == {
            **OpCounters().as_dict(), "distance_computations": 20,
        }

    def test_only_distance_counter_is_touched(self, rng):
        counters = OpCounters()
        chunked_sq_distances(rng.normal(size=(9, 2)), rng.normal(size=(4, 2)),
                             counters, chunk=2)
        assert counters.point_accesses == 0
        assert counters.bound_accesses == 0
        assert counters.bound_updates == 0
        assert counters.node_accesses == 0


class TestRowwiseExactKernels:
    """The bit-identity layer backing ``repro.core.vectorized``."""

    def test_one_to_many_bitwise_scalar_parity(self, rng):
        x = rng.normal(size=6)
        Y = rng.normal(size=(9, 6))
        batch = one_to_many_distances(x, Y)
        assert (batch == np.array([euclidean(x, y) for y in Y])).all()

    def test_paired_bitwise_scalar_parity(self, rng):
        A = rng.normal(size=(8, 5))
        B = rng.normal(size=(8, 5))
        sq = paired_sq_distances(A, B)
        assert (sq == np.array([sq_euclidean(a, b) for a, b in zip(A, B)])).all()

    def test_paired_broadcasts_single_vector(self, rng):
        A = rng.normal(size=(8, 5))
        b = rng.normal(size=5)
        batch = paired_distances(A, b)
        assert (batch == np.array([euclidean(a, b) for a in A])).all()

    def test_paired_counts_rows(self, rng):
        counters = OpCounters()
        paired_sq_distances(rng.normal(size=(8, 5)), rng.normal(size=5), counters)
        assert counters.distance_computations == 8

    def test_block_bitwise_scalar_parity(self, rng):
        A = rng.normal(size=(6, 4))
        B = rng.normal(size=(5, 4))
        block = block_sq_distances(A, B)
        for i in range(6):
            for j in range(5):
                assert block[i, j] == sq_euclidean(A[i], B[j])

    def test_block_distances_counts_all_pairs(self, rng):
        counters = OpCounters()
        block_distances(rng.normal(size=(6, 4)), rng.normal(size=(5, 4)), counters)
        assert counters.distance_computations == 30

    def test_gathered_rows_keep_parity(self, rng):
        # Fancy-indexed (gathered) operands are the common case inside the
        # vectorized backend; parity must survive the gather.
        X = rng.normal(size=(30, 5))
        C = rng.normal(size=(4, 5))
        idx = rng.integers(0, 30, size=12)
        labels = rng.integers(0, 4, size=12)
        sq = paired_sq_distances(X[idx], C[labels])
        want = np.array(
            [sq_euclidean(X[i], C[j]) for i, j in zip(idx, labels)]
        )
        assert (sq == want).all()


class TestCentroidMatrix:
    def test_symmetric_zero_diagonal(self, rng):
        C = rng.normal(size=(5, 3))
        cc = centroid_pairwise_distances(C)
        np.testing.assert_allclose(cc, cc.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(cc), 0.0, atol=1e-12)

    def test_counts_half_matrix(self, rng):
        counters = OpCounters()
        centroid_pairwise_distances(rng.normal(size=(5, 3)), counters)
        assert counters.distance_computations == 10  # k(k-1)/2

    def test_values_match_bruteforce(self, rng):
        C = rng.normal(size=(4, 6))
        cc = centroid_pairwise_distances(C)
        want = np.linalg.norm(C[:, None] - C[None, :], axis=2)
        np.testing.assert_allclose(cc, want, atol=1e-9)


class TestNorms:
    def test_matches_numpy(self, rng):
        X = rng.normal(size=(8, 5))
        np.testing.assert_allclose(norms(X), np.linalg.norm(X, axis=1), atol=1e-12)

    def test_single_row(self):
        assert norms(np.array([[3.0, 4.0]]))[0] == pytest.approx(5.0)
