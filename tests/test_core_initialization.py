"""Unit tests for centroid initialization."""

import numpy as np
import pytest

from repro.common.exceptions import ConfigurationError
from repro.core.initialization import (
    init_kmeans_plus_plus,
    init_random,
    initialize_centroids,
)
from repro.instrumentation.counters import OpCounters


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(3).normal(size=(200, 4))


class TestRandomInit:
    def test_shape(self, data):
        assert init_random(data, 7, seed=0).shape == (7, 4)

    def test_centroids_are_data_points(self, data):
        centroids = init_random(data, 5, seed=1)
        for c in centroids:
            assert (np.linalg.norm(data - c, axis=1) < 1e-12).any()

    def test_distinct_rows(self, data):
        centroids = init_random(data, 10, seed=2)
        assert len(np.unique(centroids, axis=0)) == 10

    def test_deterministic(self, data):
        np.testing.assert_array_equal(
            init_random(data, 4, seed=9), init_random(data, 4, seed=9)
        )


class TestKMeansPlusPlus:
    def test_shape(self, data):
        assert init_kmeans_plus_plus(data, 6, seed=0).shape == (6, 4)

    def test_centroids_are_data_points(self, data):
        centroids = init_kmeans_plus_plus(data, 5, seed=1)
        for c in centroids:
            assert (np.linalg.norm(data - c, axis=1) < 1e-12).any()

    def test_spreads_better_than_random(self):
        # On well-separated blobs, k-means++ should hit distinct blobs far
        # more reliably: compare minimum pairwise centroid separation.
        from repro.datasets import make_blobs

        X, _ = make_blobs(600, 2, 6, cluster_std=0.05, center_box=(-50, 50), seed=5)

        def min_sep(C):
            d = np.linalg.norm(C[:, None] - C[None, :], axis=2)
            np.fill_diagonal(d, np.inf)
            return d.min()

        pp = np.mean([min_sep(init_kmeans_plus_plus(X, 6, seed=s)) for s in range(10)])
        rnd = np.mean([min_sep(init_random(X, 6, seed=s)) for s in range(10)])
        assert pp > rnd

    def test_duplicate_data_fallback(self):
        X = np.ones((50, 3))
        centroids = init_kmeans_plus_plus(X, 3, seed=0)
        assert centroids.shape == (3, 3)

    def test_counts_distances(self, data):
        counters = OpCounters()
        init_kmeans_plus_plus(data, 4, seed=0, counters=counters)
        assert counters.distance_computations == 4 * len(data)


class TestOverflowedTotal:
    """Finite data whose D² total overflows still seeds (one draw per pick)."""

    def test_total_overflow_draws_from_max_scaled_weights(self):
        # Every D² is finite but their sum is not; the weights are divided
        # by their maximum.  Scaling X by a power of two scales every D² by
        # its square exactly, so the picks are those of the data scaled
        # down to a finite total.
        X = np.random.default_rng(0).normal(size=(2000, 2))
        big, small = X * 1e153, X * 1e153 * 2.0**-600
        for seed in range(5):
            centroids = init_kmeans_plus_plus(big, 4, seed=seed)
            assert np.array_equal(
                centroids, init_kmeans_plus_plus(small, 4, seed=seed) * 2.0**600
            )
            assert len(np.unique(centroids, axis=0)) == 4

    def test_overflowed_rows_share_the_mass(self):
        # Rows ±1e200 from the rest have a D² of inf: after a pick among
        # the unit-scale rows, the next two picks are those two rows.
        X = np.vstack([np.random.default_rng(1).normal(size=(40, 2)),
                       [[1e200, 0.0], [-1e200, 0.0]]])
        far = {1e200, -1e200}
        seeded = 0
        for seed in range(10):
            with np.errstate(over="ignore"):  # the far rows' D² overflow
                centroids = init_kmeans_plus_plus(X, 3, seed=seed)
            if abs(centroids[0, 0]) < 1e100:
                seeded += 1
                assert set(centroids[1:, 0]) == far
        assert seeded

    def test_fit_seeds_on_overflowed_total(self):
        from repro.core import KMeans

        X = np.random.default_rng(0).normal(size=(2000, 2)) * 1e153
        for backend in ("reference", "vectorized"):
            model = KMeans(k=4, algorithm="lloyd", backend=backend, seed=0,
                           max_iter=3)
            with np.errstate(over="ignore"):  # the SSE itself overflows
                result = model.fit(X)
            assert np.isfinite(result.centroids).all()


class TestDispatch:
    def test_known_methods(self, data):
        for method in ["random", "k-means++", "kmeans++", "K-MEANS++"]:
            assert initialize_centroids(data, 3, method, seed=0).shape == (3, 4)

    def test_unknown_method(self, data):
        with pytest.raises(ConfigurationError, match="unknown initialization"):
            initialize_centroids(data, 3, "farthest-first")
