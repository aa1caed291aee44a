"""Differential conformance: the vectorized backend ≡ the reference backend.

The vectorized backend (``repro.core.vectorized``) promises *bit-identical*
trajectories: from the same initial centroids, every (algorithm, task) pair
must produce the same labels, the same centroids (exact float equality, not
approximate), the same iteration count, and the same counter totals — per
iteration, not just in aggregate.  The reference scalar implementations are
the ground truth for ``OpCounters`` semantics; a vectorized implementation
that computes the right clustering but charges different counters is a
conformance failure (it would silently change the paper's Table 3 metrics).

The perf test at the bottom enforces the point of the backend: on the
20k x 16 synthetic workload the vectorized backend must beat the reference
by at least 2x wall-clock, and the measurement is recorded to
``BENCH_backends.json`` at the repo root (the CI perf-smoke artifact; the
file is not tracked).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.common.exceptions import ConfigurationError
from repro.core import (
    BACKENDS,
    VECTORIZED_ALGORITHMS,
    KMeans,
    make_algorithm,
)
from repro.core.initialization import init_kmeans_plus_plus
from repro.datasets import make_blobs, make_spatial, make_uniform

from tests.trace_utils import golden_path, golden_task

VECTORIZED = sorted(VECTORIZED_ALGORITHMS)
MAX_ITER = 60

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_backends.json"

#: wall-clock advantage the vectorized backend must demonstrate (ISSUE 3)
MIN_SPEEDUP = 2.0


def _read_report() -> dict:
    """The report an earlier perf test wrote, or an empty one."""
    if BENCH_PATH.exists():
        return json.loads(BENCH_PATH.read_text())
    return {"algorithms": {}}


def _dataset(name: str) -> np.ndarray:
    if name == "blobs":
        X, _ = make_blobs(350, 6, 5, seed=11)
        return X
    if name == "spatial":
        return make_spatial(400, hotspots=12, seed=17)
    if name == "uniform":
        return make_uniform(250, 4, seed=19)
    raise AssertionError(name)


_DATASETS = {name: _dataset(name) for name in ("blobs", "spatial", "uniform")}


def _run_pair(name, X, k, seed, max_iter=MAX_ITER, **kwargs):
    C0 = init_kmeans_plus_plus(X, k, seed=seed)
    reference = make_algorithm(name, backend="reference", **kwargs).fit(
        X, k, initial_centroids=C0, max_iter=max_iter
    )
    vectorized = make_algorithm(name, backend="vectorized", **kwargs).fit(
        X, k, initial_centroids=C0, max_iter=max_iter
    )
    return reference, vectorized


def _assert_identical(reference, vectorized):
    """The full conformance contract, with per-field diagnostics."""
    __tracebackhide__ = True
    mismatched = np.count_nonzero(reference.labels != vectorized.labels)
    assert mismatched == 0, (
        f"{reference.algorithm}: {mismatched} label(s) diverge between backends"
    )
    # Exact equality, not allclose: the backend contract is bit-identity.
    assert np.array_equal(reference.centroids, vectorized.centroids), (
        f"{reference.algorithm}: centroids diverge by up to "
        f"{np.abs(reference.centroids - vectorized.centroids).max():.3e}"
    )
    assert reference.n_iter == vectorized.n_iter
    assert reference.converged == vectorized.converged
    assert reference.sse == vectorized.sse
    assert reference.counters == vectorized.counters, (
        f"{reference.algorithm}: counter totals diverge:\n"
        f"  reference:  {reference.counters.as_dict()}\n"
        f"  vectorized: {vectorized.counters.as_dict()}"
    )
    assert reference.footprint_floats == vectorized.footprint_floats
    assert len(reference.iteration_stats) == len(vectorized.iteration_stats)
    for ref_it, vec_it in zip(reference.iteration_stats, vectorized.iteration_stats):
        for field in (
            "distance_computations",
            "point_accesses",
            "node_accesses",
            "bound_accesses",
            "bound_updates",
            "changed",
        ):
            assert getattr(ref_it, field) == getattr(vec_it, field), (
                f"{reference.algorithm} iteration {ref_it.iteration}: "
                f"{field} diverges ({getattr(ref_it, field)} vs "
                f"{getattr(vec_it, field)})"
            )


@pytest.mark.parametrize("name", VECTORIZED)
@pytest.mark.parametrize("dataset", sorted(_DATASETS))
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k", [3, 16])
class TestBackendMatrix:
    """Every (algorithm, dataset, seed, k) cell run to convergence."""

    def test_identical_trajectory(self, name, dataset, seed, k):
        reference, vectorized = _run_pair(name, _DATASETS[dataset], k, seed)
        assert reference.converged, "matrix cell must converge within MAX_ITER"
        _assert_identical(reference, vectorized)


@pytest.mark.parametrize("name", VECTORIZED)
class TestBackendEdgeCases:
    def test_k_equals_one(self, name):
        X = _DATASETS["uniform"]
        reference, vectorized = _run_pair(name, X, 1, seed=0)
        _assert_identical(reference, vectorized)

    def test_duplicate_rows_1d(self, name):
        rng = np.random.default_rng(7)
        X = np.repeat(rng.normal(size=(40, 1)), 4, axis=0)
        reference, vectorized = _run_pair(name, X, 5, seed=2)
        _assert_identical(reference, vectorized)

    def test_k_exceeds_cluster_structure(self, name):
        reference, vectorized = _run_pair(name, _DATASETS["blobs"], 25, seed=3)
        _assert_identical(reference, vectorized)

    def test_iteration_cap(self, name):
        # Truncated runs must agree too — parity cannot rely on convergence.
        reference, vectorized = _run_pair(
            name, _DATASETS["spatial"], 12, seed=0, max_iter=3
        )
        assert not reference.converged
        _assert_identical(reference, vectorized)


class TestAlgorithmKnobs:
    """Constructor knobs must conform too, not just the defaults."""

    @pytest.mark.parametrize("t", [1, 2, 5])
    def test_yinyang_group_counts(self, t):
        reference, vectorized = _run_pair(
            "yinyang", _DATASETS["blobs"], 10, seed=1, t=t
        )
        _assert_identical(reference, vectorized)


class TestSeedingParity:
    """k-means++ seeding: both backends draw identical picks (docs/backends.md).

    The vectorized D² update leaves every row with the scalar loop's bits
    (a skipped row untouched, the rest through the bit-identical paired
    kernel), so the probability vector handed to the RNG — and therefore
    every sampled centroid index — matches exactly under the same seed.
    """

    @pytest.mark.parametrize("dataset", sorted(_DATASETS))
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("k", [2, 9])
    def test_seeding_picks_identical(self, dataset, seed, k):
        from repro.instrumentation.counters import OpCounters

        X = _DATASETS[dataset]
        ref_counters, vec_counters = OpCounters(), OpCounters()
        reference = init_kmeans_plus_plus(
            X, k, seed=seed, counters=ref_counters, backend="reference"
        )
        vectorized = init_kmeans_plus_plus(
            X, k, seed=seed, counters=vec_counters, backend="vectorized"
        )
        assert np.array_equal(reference, vectorized)
        assert ref_counters.snapshot() == vec_counters.snapshot()

    @staticmethod
    def _assert_parity(X, k, seed):
        """Identical picks, and both backends charge n per D² update."""
        from repro.instrumentation.counters import OpCounters

        ref_counters, vec_counters = OpCounters(), OpCounters()
        reference = init_kmeans_plus_plus(
            X, k, seed=seed, counters=ref_counters, backend="reference"
        )
        vectorized = init_kmeans_plus_plus(
            X, k, seed=seed, counters=vec_counters, backend="vectorized"
        )
        assert np.array_equal(reference, vectorized)
        for counters in (ref_counters, vec_counters):
            assert counters.distance_computations == k * len(X)
            assert counters.point_accesses == k * len(X)
        assert ref_counters.snapshot() == vec_counters.snapshot()
        TestSeedingParity._assert_same_d2(X, reference)
        return reference

    @staticmethod
    def _assert_same_d2(X, centroids):
        """Both backends' D² arrays are bitwise equal after every update."""
        from repro.core.initialization import _closest_sq_update

        updates = [_closest_sq_update(X, backend) for backend in BACKENDS]
        closest = [np.full(len(X), np.inf) for _ in updates]
        for step, centroid in enumerate(centroids):
            for update, closest_sq in zip(updates, closest):
                update(X, centroid, closest_sq, None)
            reference, vectorized = (c.view(np.int64) for c in closest)
            assert np.array_equal(reference, vectorized), (
                f"update {step}: {np.count_nonzero(reference != vectorized)} "
                "D² entries differ between backends"
            )

    def test_seeding_duplicate_rows(self):
        # Degenerate D² mass (total can hit the uniform-fallback branch).
        # Every pick has exact copies, so the rows equal to a chosen seed
        # sit at distance 0 and must keep that value at every later step.
        rng = np.random.default_rng(3)
        cases = [
            (np.repeat(rng.normal(size=(10, 2)), 6, axis=0), 5),
            (np.repeat(make_blobs(40, 3, 4, seed=2)[0], 3, axis=0), 12),
        ]
        for X, k in cases:
            for seed in range(4):
                self._assert_parity(X, k, seed)

    def test_seeding_single_point_mass(self):
        # All points identical: every step takes the uniform-fallback branch.
        for seed in range(3):
            self._assert_parity(np.ones((30, 3)), 3, seed)

    def test_seeding_near_overflow_disables_pruning(self):
        # Norms near 1e154: squared distances near 1e308 stay finite (so the
        # D² total does too), but 4·closest_sq and the scores' 2x·c term
        # can overflow; a non-finite score must never skip a row.
        from repro.common.distance import paired_sq_distances

        X = np.array([[0.0, 0.0], [0.7, 0.1], [1.0, -0.1], [0.35, 0.05]]) * 1e154
        overflowed = 0
        for seed in range(8):
            picks = self._assert_parity(X, 3, seed)
            closest_sq = paired_sq_distances(X, picks[0])
            assert np.isfinite(closest_sq.sum())
            with np.errstate(over="ignore"):
                overflowed += int(np.isinf(4.0 * closest_sq).any())
        assert overflowed

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_seeding_common_offset(self, offset, d):
        # Unit-scale clusters far from the origin: |x|² ≈ d·offset², so the
        # score cancels to noise and almost no row can be skipped; every
        # near-tie must still reach the exact kernel.
        rng = np.random.default_rng(5)
        centers = rng.normal(size=(6, d)) * 4.0
        X = offset + centers[rng.integers(0, 6, 300)] + rng.normal(size=(300, d))
        for seed in range(4):
            self._assert_parity(X, 8, seed)
        # Centroids off the data, near the rows they compete for.
        self._assert_same_d2(X, X[rng.integers(0, 300, 30)] + rng.normal(size=(30, d)))

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e-160, 1e-162])
    def test_seeding_extreme_scales(self, scale):
        # Squared distances near 1e300, near the bottom of the normal range
        # (1e-300) and subnormal (1e-320; at 1e-162 a few dozen multiples
        # of the smallest subnormal, where only the margin's absolute term
        # covers the rounding).
        X, _ = make_blobs(300, 4, 5, seed=13)
        X = X * scale
        for seed in range(4):
            self._assert_parity(X, 7, seed)
        rng = np.random.default_rng(1)
        self._assert_same_d2(X, X[rng.integers(0, 300, 30)])

    def test_seeding_overflowed_norms(self):
        # |x|² overflows while the distances stay near 1e290: every score
        # is NaN, and a NaN score must never skip.
        rng = np.random.default_rng(4)
        X = 1.5e154 + rng.normal(size=(60, 2)) * 1e145
        with np.errstate(over="ignore"):
            assert np.isinf((X**2).sum(axis=1)).all()
        for seed in range(4):
            self._assert_parity(X, 5, seed)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(1, 60),
        d=st.integers(1, 6),
        k=st.integers(1, 8),
        scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]),
        offset=st.sampled_from([0.0, 1.0, 1e6, 1e8]),
        copies=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_seeding_parity_property(self, n, d, k, scale, offset, copies, seed):
        # Squared distances stay finite, so the D² total is a valid weight.
        assume(scale * offset <= 1e150)
        rng = np.random.default_rng(seed)
        X = np.repeat((rng.normal(size=(n, d)) + offset) * scale, copies, axis=0)
        self._assert_parity(X, min(k, len(X)), seed)

    @staticmethod
    def _spy_exact_rows(monkeypatch):
        """Row counts of the exact kernel's calls, one per vectorized update."""
        import repro.core.initialization as initialization

        evaluated = []
        original = initialization.paired_sq_distances

        def spy(A, B, counters=None):
            evaluated.append(len(np.atleast_2d(A)))
            return original(A, B, counters)

        monkeypatch.setattr(initialization, "paired_sq_distances", spy)
        return evaluated

    def test_seeding_overflowed_score_is_exact(self, monkeypatch):
        # Row 1's score overflows (2x·c > max float) while |x|² and |c|²
        # stay finite; against closest_sq = inf an +inf score would pass
        # the skip test, so only the non-finite guard sends it to the
        # exact kernel.
        from repro.core.initialization import _closest_sq_update

        evaluated = self._spy_exact_rows(monkeypatch)
        X = np.array([[1.0, 0.1], [-0.95, 0.0]]) * 1e154
        closest_sq = np.full(2, np.inf)
        with np.errstate(over="ignore"):  # row 1's exact distance overflows
            _closest_sq_update(X, "vectorized")(X, X[0], closest_sq, None)
        assert evaluated == [2]

    def test_seeding_pruning_skips_rows(self, monkeypatch):
        # The mechanism, not just the outcome: on clustered data the
        # certified score sends well under n rows per step to the exact
        # kernel (0.27·n on average here).
        evaluated = self._spy_exact_rows(monkeypatch)
        X = _DATASETS["blobs"]
        init_kmeans_plus_plus(X, 9, seed=0, backend="vectorized")
        # Update 0, against closest_sq = inf, computes every row.
        assert len(evaluated) == 9
        assert evaluated[0] == len(X)
        assert sum(evaluated) < 0.6 * 9 * len(X)

    def test_fit_threads_seeding_backend(self):
        # fit() without initial_centroids seeds on the algorithm's backend;
        # parity means the cross-backend trajectory still matches exactly.
        X = _DATASETS["blobs"]
        reference = make_algorithm("lloyd").fit(X, 6, seed=42, max_iter=MAX_ITER)
        vectorized = make_algorithm("lloyd", backend="vectorized").fit(
            X, 6, seed=42, max_iter=MAX_ITER
        )
        _assert_identical(reference, vectorized)


class TestRefinementKernels:
    """The shared scatter-add refinement (repro.core.refinement)."""

    def test_scatter_add_matches_add_at(self):
        # bincount-with-weights and np.add.at both accumulate sequentially
        # in element order, so from a zero base they agree bitwise — the
        # property the rescan refinement mode relies on.
        from repro.core.refinement import accumulate_cluster_sums

        rng = np.random.default_rng(11)
        for n, d, k in [(1000, 7, 9), (257, 1, 3), (64, 16, 64)]:
            X = rng.normal(size=(n, d)) * rng.lognormal(size=(n, 1))
            labels = rng.integers(0, k, size=n)
            expected = np.zeros((k, d))
            np.add.at(expected, labels, X)
            assert np.array_equal(accumulate_cluster_sums(X, labels, k), expected)

    def test_drifts_match_norm(self):
        from repro.core.refinement import centroid_drifts

        rng = np.random.default_rng(5)
        old = rng.normal(size=(8, 4))
        new = old + rng.normal(size=(8, 4)) * 0.1
        assert np.array_equal(
            centroid_drifts(new, old), np.linalg.norm(new - old, axis=1)
        )


class TestBackendSelection:
    def test_backend_recorded_in_extras(self):
        X = _DATASETS["uniform"]
        reference, vectorized = _run_pair("lloyd", X, 4, seed=0, max_iter=5)
        assert reference.extras["backend"] == "reference"
        assert vectorized.extras["backend"] == "vectorized"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make_algorithm("elkan", backend="gpu")

    @pytest.mark.parametrize("name", ["unik", "index", "elkan", "hamerly"])
    def test_unvectorized_algorithm_rejected(self, name):
        with pytest.raises(ConfigurationError, match="no vectorized implementation"):
            make_algorithm(name, backend="vectorized")
        with pytest.raises(ConfigurationError, match="no vectorized implementation"):
            KMeans(k=4, algorithm=name, backend="vectorized").fit(_DATASETS["uniform"])

    def test_facade_threads_backend(self):
        X = _DATASETS["uniform"]
        model = KMeans(k=4, algorithm="yinyang", backend="vectorized", seed=0)
        result = model.fit(X)
        assert result.extras["backend"] == "vectorized"

    def test_registry_exposes_backends(self):
        assert BACKENDS == ("reference", "vectorized")
        assert set(VECTORIZED_ALGORITHMS) == {"lloyd", "yinyang"}


class TestShardedArrayBackend:
    """The shards=4 NumPy cell stays bit-identical."""

    def test_sharded_numpy_cell_replays_golden_trace(self):
        golden = json.loads(golden_path("lloyd", 0).read_text())
        X, k, C0, max_iter = golden_task(0)
        result = make_algorithm(
            "lloyd", backend="vectorized", shards=4
        ).fit(X, k, initial_centroids=C0, max_iter=max_iter)
        assert result.n_iter == golden["n_iter"]
        assert result.converged == golden["converged"]
        assert result.sse == golden["sse"]
        assert result.centroids.tolist() == golden["final_centroids"]
        assert result.labels.tolist() == golden["iterations"][-1]["labels"]

    def test_sharded_numpy_cell_matches_single_process(self):
        X = _DATASETS["spatial"]
        C0 = init_kmeans_plus_plus(X, 9, seed=2)
        single = make_algorithm("lloyd", backend="vectorized").fit(
            X, 9, initial_centroids=C0, max_iter=MAX_ITER
        )
        sharded = make_algorithm(
            "lloyd", backend="vectorized", shards=4
        ).fit(X, 9, initial_centroids=C0, max_iter=MAX_ITER)
        assert np.array_equal(sharded.labels, single.labels)
        assert sharded.centroids.tobytes() == single.centroids.tobytes()
        assert sharded.n_iter == single.n_iter
        assert sharded.sse == single.sse
        assert sharded.counters == single.counters


class TestBackendPerformance:
    """The backend must be *worth it*: >= 2x on the 20k x 16 workload."""

    N, D, K, ITERS, COMPONENTS = 20_000, 16, 16, 5, 12

    def test_vectorized_beats_reference(self):
        X, _ = make_blobs(self.N, self.D, self.COMPONENTS, seed=5)
        C0 = init_kmeans_plus_plus(X, self.K, seed=0)
        report = {
            "workload": {
                "n": self.N, "d": self.D, "k": self.K,
                "max_iter": self.ITERS, "dataset": "blobs(seed=5)",
            },
            "min_speedup": MIN_SPEEDUP,
            "algorithms": {},
        }
        failures = []
        for name in VECTORIZED:
            times = {}
            for backend in BACKENDS:
                best = float("inf")
                for _ in range(3):  # best-of-3 to damp scheduler noise
                    algorithm = make_algorithm(name, backend=backend)
                    t0 = time.perf_counter()
                    result = algorithm.fit(
                        X, self.K, initial_centroids=C0, max_iter=self.ITERS
                    )
                    best = min(best, time.perf_counter() - t0)
                times[backend] = best
            self._record(report, failures, name, times)
        # k-means++ seeding is a vectorized hot path too (no fit involved).
        times = {}
        for backend in BACKENDS:
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                init_kmeans_plus_plus(X, self.K, seed=0, backend=backend)
                best = min(best, time.perf_counter() - t0)
            times[backend] = best
        self._record(report, failures, "kmeanspp_init", times)
        BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
        assert not failures, (
            "vectorized backend too slow on the 20k x 16 workload: "
            + "; ".join(failures)
            + f" (see {BENCH_PATH.name})"
        )

    @staticmethod
    def _record(report, failures, name, times):
        speedup = times["reference"] / times["vectorized"]
        report["algorithms"][name] = {
            "reference_s": round(times["reference"], 5),
            "vectorized_s": round(times["vectorized"], 5),
            "speedup": round(speedup, 2),
        }
        if speedup < MIN_SPEEDUP:
            failures.append(f"{name}: {speedup:.2f}x < {MIN_SPEEDUP}x")


#: wall-clock advantage shard-parallel assignment must demonstrate over the
#: single-process vectorized backend on the same workload — only meaningful
#: (and only asserted) with at least two cores to spread shards across.
SHARDED_MIN_SPEEDUP = 1.5


class TestShardedPerformance:
    """Shard-parallel assignment must beat single-process vectorized.

    Runs after :class:`TestBackendPerformance` (file order), which rewrites
    ``BENCH_backends.json`` wholesale; this test re-reads the report (or
    starts an empty one) and adds a ``sharded_lloyd`` entry.  The measurement
    always runs and is always recorded — with the host's core count — but
    the >= 1.5x floor is only asserted on multi-core hosts: on a single
    core the shard threads serialize and the fan-out/merge overhead is
    pure loss, so failing there would gate on hardware, not on a
    regression (the CI runners are multi-core, so the floor is enforced
    on every PR; see docs/sharding.md).
    """

    N, D, K, ITERS, COMPONENTS = 20_000, 16, 16, 5, 12

    def test_sharded_beats_single_process(self):
        import os

        from repro.exec.sharded import SHARDED_ALGORITHMS

        cores = os.cpu_count() or 1
        shards = min(4, max(2, cores))
        X, _ = make_blobs(self.N, self.D, self.COMPONENTS, seed=5)
        C0 = init_kmeans_plus_plus(X, self.K, seed=0)
        report = _read_report()
        single_s = self._best_of(
            lambda: make_algorithm("lloyd", backend="vectorized").fit(
                X, self.K, initial_centroids=C0, max_iter=self.ITERS
            )
        )
        sharded_s = self._best_of(
            lambda: SHARDED_ALGORITHMS["lloyd"](shards=shards).fit(
                X, self.K, initial_centroids=C0, max_iter=self.ITERS
            )
        )
        speedup = single_s / sharded_s
        report["algorithms"]["sharded_lloyd"] = {
            "single_process_s": round(single_s, 5),
            "sharded_s": round(sharded_s, 5),
            "speedup": round(speedup, 2),
            "shards": shards,
            "cores": cores,
            "min_speedup": SHARDED_MIN_SPEEDUP,
            "gated": cores >= 2,
        }
        BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
        assert cores < 2 or speedup >= SHARDED_MIN_SPEEDUP, (
            "shard-parallel assignment too slow on the 20k x 16 workload: "
            f"sharded_lloyd: {speedup:.2f}x < {SHARDED_MIN_SPEEDUP}x "
            f"({shards} shards on {cores} cores) (see {BENCH_PATH.name})"
        )

    @staticmethod
    def _best_of(fit, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fit()
            best = min(best, time.perf_counter() - t0)
        return best


#: wall-clock advantage batched serving must demonstrate over a per-point
#: assignment loop on the 20k x 16 workload (ISSUE 9)
SERVE_MIN_SPEEDUP = 5.0


class TestServingPerformance:
    """Batched serving must beat a per-point assignment loop by >= 5x.

    Runs after the perf tests above (file order), re-reads
    ``BENCH_backends.json`` (or starts an empty report) and adds a gated
    ``serve_predict`` entry under ``algorithms``.  The baseline is the
    obvious serving loop — one ``one_to_many_distances`` call plus argmin
    per query point — against :meth:`Predictor.predict` answering the
    same 20k queries in chunked one-to-many batches.  Both paths use
    counted exact kernels with first-index argmin, so the labels are
    asserted identical, not just the timing (docs/serving.md).
    """

    N, D, K, ITERS, COMPONENTS = 20_000, 16, 16, 5, 12

    def test_batched_predict_beats_per_point(self, tmp_path):
        from repro.common.distance import one_to_many_distances
        from repro.serve import ModelRegistry, Predictor

        X, _ = make_blobs(self.N, self.D, self.COMPONENTS, seed=5)
        C0 = init_kmeans_plus_plus(X, self.K, seed=0)
        result = make_algorithm("lloyd", backend="vectorized").fit(
            X, self.K, initial_centroids=C0, max_iter=self.ITERS
        )
        registry = ModelRegistry(tmp_path / "registry")
        predictor = Predictor(registry, registry.save_model(result))
        centroids = np.asarray(predictor.centroids)

        def per_point():
            return np.array([
                int(np.argmin(one_to_many_distances(x, centroids)))
                for x in X
            ])

        per_point_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            loop_labels = per_point()
            per_point_s = min(per_point_s, time.perf_counter() - t0)
        batched_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            batched_labels = predictor.predict(X)
            batched_s = min(batched_s, time.perf_counter() - t0)
        np.testing.assert_array_equal(batched_labels, loop_labels)

        speedup = per_point_s / batched_s
        report = _read_report()
        report["algorithms"]["serve_predict"] = {
            "per_point_s": round(per_point_s, 5),
            "batched_s": round(batched_s, 5),
            "speedup": round(speedup, 2),
            "min_speedup": SERVE_MIN_SPEEDUP,
            "gated": True,
        }
        BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
        assert speedup >= SERVE_MIN_SPEEDUP, (
            f"serve_predict: {speedup:.2f}x < {SERVE_MIN_SPEEDUP}x on the "
            f"20k x 16 workload (see {BENCH_PATH.name})"
        )
