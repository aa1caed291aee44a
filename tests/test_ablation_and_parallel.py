"""Tests for the Elkan bound ablation and the parallel harness."""

import numpy as np
import pytest

from repro.common.exceptions import ConfigurationError, ValidationError
from repro.core.elkan import ElkanKMeans
from repro.core.lloyd import LloydKMeans
from repro.datasets import make_blobs
from repro.eval.parallel import parallel_compare


@pytest.fixture(scope="module")
def data():
    X, _ = make_blobs(500, 6, 6, seed=111)
    return X


class TestElkanAblation:
    @pytest.mark.parametrize("use_inter,use_drift",
                             [(True, True), (True, False), (False, True)])
    def test_all_variants_exact(self, use_inter, use_drift, data, centroids_factory):
        C0 = centroids_factory(data, 10)
        base = LloydKMeans().fit(data, 10, initial_centroids=C0, max_iter=50)
        variant = ElkanKMeans(use_inter=use_inter, use_drift=use_drift)
        result = variant.fit(data, 10, initial_centroids=C0, max_iter=50)
        np.testing.assert_array_equal(result.labels, base.labels)

    def test_both_off_rejected(self):
        with pytest.raises(ConfigurationError):
            ElkanKMeans(use_inter=False, use_drift=False)

    def test_full_elkan_prunes_most(self, data, centroids_factory):
        C0 = centroids_factory(data, 10)
        full = ElkanKMeans().fit(data, 10, initial_centroids=C0, max_iter=30)
        no_inter = ElkanKMeans(use_inter=False).fit(
            data, 10, initial_centroids=C0, max_iter=30
        )
        no_drift = ElkanKMeans(use_drift=False).fit(
            data, 10, initial_centroids=C0, max_iter=30
        )
        # The full configuration prunes at least as much as either ablation;
        # the inter-bound's own k(k-1)/2 distances per iteration are its
        # overhead, so grant that allowance when comparing with no_inter.
        inter_overhead = (10 * 9 // 2) * full.n_iter
        assert (
            full.counters.distance_computations
            <= no_inter.counters.distance_computations + inter_overhead
        )
        assert full.counters.distance_computations <= no_drift.counters.distance_computations

    def test_no_drift_saves_bound_updates(self, data, centroids_factory):
        C0 = centroids_factory(data, 10)
        full = ElkanKMeans().fit(data, 10, initial_centroids=C0, max_iter=30)
        no_drift = ElkanKMeans(use_drift=False).fit(
            data, 10, initial_centroids=C0, max_iter=30
        )
        assert no_drift.counters.bound_updates < full.counters.bound_updates


class TestParallelHarness:
    def test_matches_serial_counters(self, data):
        from repro.eval import compare_algorithms

        serial = compare_algorithms(
            ["lloyd", "hamerly"], data, 5, repeats=1, max_iter=5, seed=3
        )
        parallel = parallel_compare(
            ["lloyd", "hamerly"], data, 5, repeats=1, max_iter=5, seed=3,
            max_workers=2,
        )
        for s, p in zip(serial, parallel):
            assert s.algorithm == p.algorithm
            assert s.distance_computations == p.distance_computations
            assert s.sse == pytest.approx(p.sse)

    def test_accepts_knob_configs(self, data):
        from repro.core.knobs import KnobConfig

        records = parallel_compare(
            [KnobConfig(bound="yinyang")], data, 4, repeats=1, max_iter=3,
            max_workers=2,
        )
        assert records[0].algorithm == "yinyang"

    def test_rejects_unpicklable_specs(self, data):
        with pytest.raises(TypeError, match="names or KnobConfig"):
            parallel_compare([lambda: LloydKMeans()], data, 3)

    @pytest.mark.parametrize("max_workers", (0, -3))
    def test_rejects_max_workers_below_one(self, data, max_workers):
        with pytest.raises(ValidationError, match="max_workers"):
            parallel_compare(["lloyd"], data, 3, max_workers=max_workers)
