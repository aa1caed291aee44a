"""Tests for the fault-tolerant sharded data-parallel execution engine.

The engine's contract (``docs/sharding.md``) is *bit-identity*: a sharded
fit produces the same labels, centroids (bitwise), iteration count, and
counter totals as the single-process vectorized backend — under every
shard count and recovery policy that retains all data.  These tests pin
that contract directly, replay the committed golden traces through the
sharded engine, drive the shard threads' fault matrix (transient / raise
/ torn slice x strict / recompute / degrade), and property-check the
rank-order merge discipline against float non-associativity.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import load_project_from_paths
from repro.analysis.interprocedural import _dispatch_sites
from repro.common.exceptions import (
    ConfigurationError,
    ShardFailedError,
    ValidationError,
)
from repro.core import VECTORIZED_ALGORITHMS, make_algorithm
from repro.core.initialization import init_kmeans_plus_plus
from repro.core.refinement import accumulate_cluster_sums, merge_shard_assignments
from repro.datasets import make_blobs
from repro.eval.faults import FaultPlan
from repro.eval.harness import run_algorithm
from repro.eval.parallel import parallel_compare
from repro.eval.runtime import ExecutionPolicy
from repro.exec import sharded
from repro.exec.sharded import (
    SHARDED_ALGORITHMS,
    DegradedIteration,
    ShardFailurePolicy,
    make_sharded_algorithm,
    shard_bounds,
)

from tests.trace_utils import golden_path, golden_task, traced_class

REPO_ROOT = Path(__file__).resolve().parent.parent

COUNTER_FIELDS = (
    "changed",
    "distance_computations",
    "point_accesses",
    "node_accesses",
    "bound_accesses",
    "bound_updates",
)


@pytest.fixture(scope="module")
def task():
    """The golden task: uniform data, the pruning worst case (~10+ iters)."""
    return golden_task(0)


def assert_results_identical(got, want, *, context=""):
    """The engine's whole contract: bitwise-equal model and counters."""
    assert np.array_equal(got.labels, want.labels), f"{context}: labels diverge"
    assert got.centroids.tobytes() == want.centroids.tobytes(), (
        f"{context}: centroids are not bitwise identical"
    )
    assert got.n_iter == want.n_iter, f"{context}: iteration count diverges"
    assert got.sse == want.sse, f"{context}: SSE diverges"
    assert got.counters == want.counters, f"{context}: counter totals diverge"


class TestShardBounds:
    def test_partitions_contiguously(self):
        ranges = shard_bounds(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]

    def test_remainder_goes_to_first_shards(self):
        sizes = [hi - lo for lo, hi in shard_bounds(11, 4)]
        assert sizes == [3, 3, 3, 2]

    def test_single_shard_covers_everything(self):
        assert shard_bounds(7, 1) == [(0, 7)]

    def test_one_row_per_shard(self):
        assert shard_bounds(3, 3) == [(0, 1), (1, 2), (2, 3)]

    def test_deterministic_in_shape_alone(self):
        assert shard_bounds(1000, 7) == shard_bounds(1000, 7)

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValidationError):
            shard_bounds(10, 0)


class TestShardFailurePolicy:
    @pytest.mark.parametrize("mode", ("strict", "recompute", "degrade"))
    def test_parse_known_modes(self, mode):
        assert ShardFailurePolicy.parse(mode).mode == mode

    def test_parse_none_defaults_to_strict(self):
        assert ShardFailurePolicy.parse(None).mode == "strict"

    def test_parse_instance_passthrough(self):
        policy = ShardFailurePolicy(mode="degrade")
        assert ShardFailurePolicy.parse(policy) is policy

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardFailurePolicy(mode="heroic")


class TestDegradedIteration:
    def test_round_trips_through_dict(self):
        record = DegradedIteration(
            iteration=3, shards=(1, 2), point_ranges=((10, 20), (20, 30)),
            error_types=("WorkerCrashError", "RunTimeoutError"),
        )
        assert DegradedIteration.from_dict(record.as_dict()) == record


class TestBitIdentity:
    """Sharded == single-process vectorized, bitwise, for every algorithm."""

    @pytest.mark.parametrize("shards", (2, 3, 4, 5))
    @pytest.mark.parametrize("name", sorted(SHARDED_ALGORITHMS))
    def test_inline_runner_matches_vectorized(self, name, shards, task):
        X, k, C0, max_iter = task
        want = VECTORIZED_ALGORITHMS[name]().fit(
            X, k, initial_centroids=C0, max_iter=max_iter
        )
        got = SHARDED_ALGORITHMS[name](shards=shards).fit(
            X, k, initial_centroids=C0, max_iter=max_iter
        )
        assert_results_identical(got, want, context=f"{name}/shards={shards}")
        assert got.extras["shards"] == shards

    def test_more_shards_than_rows_clamps(self):
        X, _ = make_blobs(6, 2, 2, seed=1)
        result = SHARDED_ALGORITHMS["lloyd"](shards=50).fit(
            X, 2, max_iter=5, seed=0
        )
        assert result.extras["shards"] == 6


class TestGoldenReplay:
    """The sharded engine must replay the committed golden trajectories."""

    @pytest.mark.parametrize("name", ("lloyd", "elkan", "hamerly"))
    def test_sharded_replays_golden_trace(self, name):
        golden = json.loads(golden_path(name, 0).read_text())
        X, k, C0, max_iter = golden_task(0)
        algorithm = traced_class(SHARDED_ALGORITHMS[name])(shards=4)
        result = algorithm.fit(X, k, initial_centroids=C0, max_iter=max_iter)
        assert result.n_iter == golden["n_iter"]
        assert result.converged == golden["converged"]
        assert result.sse == golden["sse"]
        assert result.centroids.tolist() == golden["final_centroids"]
        assert len(algorithm.trace_labels) == len(golden["iterations"])
        for t, (labels, stats, want) in enumerate(
            zip(algorithm.trace_labels, result.iteration_stats,
                golden["iterations"])
        ):
            assert labels.tolist() == want["labels"], (
                f"sharded {name} iteration {t}: labels diverge from golden"
            )
            for field in COUNTER_FIELDS:
                assert getattr(stats, field) == want[field], (
                    f"sharded {name} iteration {t}: {field} diverges"
                )


@pytest.fixture(scope="module")
def chaos_task():
    X, _ = make_blobs(120, 4, 4, seed=7)
    C0 = init_kmeans_plus_plus(X, 4, seed=0)
    return X, 4, C0


class TestInlineRunner:
    """The shard threads: concurrency, joins, faults, and policies.

    Test names carry ``inline`` and, where one applies, the policy name,
    so the CI ``chaos-shard`` matrix's ``-k <policy>`` cells pick them up.
    """

    def _fit(self, chaos_task, *, policy, fault, retries=0):
        X, k, C0 = chaos_task
        algorithm = SHARDED_ALGORITHMS["lloyd"](
            shards=3,
            shard_policy=policy,
            fault_plan=FaultPlan.parse(fault) if fault else None,
            execution=ExecutionPolicy(retries=retries, backoff_base=0.01),
        )
        return algorithm.fit(X, k, initial_centroids=C0, max_iter=6)

    @pytest.fixture(scope="class")
    def baseline(self, chaos_task):
        X, k, C0 = chaos_task
        return VECTORIZED_ALGORITHMS["lloyd"]().fit(
            X, k, initial_centroids=C0, max_iter=6
        )

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="concurrent shards need >= 2 cores"
    )
    def test_inline_shards_run_concurrently(self, chaos_task, monkeypatch):
        # Each shard pass waits at a two-party barrier before running
        # the real kernel: a sequential runner would leave the first
        # shard waiting alone until the barrier times out (a
        # BrokenBarrierError, so strict fails the fit), never hang.
        X, k, C0 = chaos_task
        barrier = threading.Barrier(2, timeout=10.0)
        real = sharded.lloyd_assign_rows

        def spy(*args):
            barrier.wait()
            return real(*args)

        monkeypatch.setattr(sharded, "lloyd_assign_rows", spy)
        got = SHARDED_ALGORITHMS["lloyd"](shards=2).fit(
            X, k, initial_centroids=C0, max_iter=4
        )
        want = VECTORIZED_ALGORITHMS["lloyd"]().fit(
            X, k, initial_centroids=C0, max_iter=4
        )
        assert_results_identical(got, want, context="inline/barrier")

    def test_inline_joins_every_shard_before_strict_raises(
        self, chaos_task, monkeypatch
    ):
        # Shard 0 fails at once while the others are still in their
        # kernels: the fit may only raise after every shard has finished,
        # so no thread writes state once the fit is over.
        X, k, C0 = chaos_task
        real = sharded.lloyd_assign_rows
        finished = []

        def spy(X_rows, *args):
            if np.shares_memory(X_rows, X[:40]):
                raise RuntimeError("shard 0 fails first")
            time.sleep(0.2)
            out = real(X_rows, *args)
            finished.append(len(X_rows))
            return out

        monkeypatch.setattr(sharded, "lloyd_assign_rows", spy)
        algorithm = SHARDED_ALGORITHMS["lloyd"](shards=3)
        with pytest.raises(ShardFailedError) as excinfo:
            algorithm.fit(X, k, initial_centroids=C0, max_iter=4)
        assert excinfo.value.shard == 0
        assert excinfo.value.error_type == "RuntimeError"
        assert finished == [40, 40]
        assert not any(
            t.name.startswith("repro-shard") for t in threading.enumerate()
        )

    def test_inline_many_shards_under_fast_switching(self, task):
        # More shards than cores with a tiny switch interval: a lost
        # result slot or a torn row range shows as a diverging model or
        # counter total.
        X, k, C0, max_iter = task
        want = VECTORIZED_ALGORITHMS["hamerly"]().fit(
            X, k, initial_centroids=C0, max_iter=max_iter
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = SHARDED_ALGORITHMS["hamerly"](shards=8).fit(
                X, k, initial_centroids=C0, max_iter=max_iter
            )
        finally:
            sys.setswitchinterval(interval)
        assert_results_identical(got, want, context="inline/switching")

    @pytest.mark.parametrize("policy", ("strict", "recompute", "degrade"))
    def test_inline_transient_is_retried_under_every_policy(
        self, policy, chaos_task, baseline
    ):
        got = self._fit(
            chaos_task, policy=policy,
            fault="transient:lloyd:1:shard=1:iter=1", retries=2,
        )
        assert_results_identical(got, baseline, context=f"inline/{policy}")
        assert "degraded_iterations" not in got.extras

    def test_inline_raise_under_strict_is_classified(self, chaos_task):
        with pytest.raises(ShardFailedError) as excinfo:
            self._fit(chaos_task, policy="strict", fault="raise:lloyd:shard=1:iter=1")
        assert excinfo.value.shard == 1
        assert excinfo.value.iteration == 1
        assert excinfo.value.error_type == "InjectedFaultError"

    def test_inline_recompute_recovers_bit_identically(self, chaos_task, baseline):
        got = self._fit(
            chaos_task, policy="recompute", fault="raise:lloyd:shard=1:iter=1"
        )
        assert_results_identical(got, baseline, context="inline/recompute")
        assert "degraded_iterations" not in got.extras

    def test_inline_degrade_records_degraded_iteration(self, chaos_task):
        got = self._fit(
            chaos_task, policy="degrade", fault="raise:lloyd:shard=1:iter=1"
        )
        (degraded,) = got.extras["degraded_iterations"]
        assert DegradedIteration.from_dict(degraded) == DegradedIteration(
            iteration=1,
            shards=(1,),
            point_ranges=((40, 80),),
            error_types=("InjectedFaultError",),
        )
        assert not np.any(got.labels < 0)

    def test_inline_degrade_keeps_stale_labels_for_lost_range(self, chaos_task):
        # Lose shard 1 on *every* iteration: its rows keep the stale labels
        # from the last iteration that saw them (here: none, since iter 0's
        # seed pass is also lost, so they stay -1).
        X, k, C0 = chaos_task
        algorithm = SHARDED_ALGORITHMS["lloyd"](
            shards=3, shard_policy="degrade",
            fault_plan=FaultPlan.parse("raise:lloyd:shard=1"),
        )
        result = algorithm.fit(X, k, initial_centroids=C0, max_iter=3)
        assert np.all(result.labels[40:80] == -1)
        assert np.all(result.labels[:40] >= 0)
        assert np.all(result.labels[80:] >= 0)
        assert len(result.extras["degraded_iterations"]) == result.n_iter

    @pytest.mark.parametrize("policy", ("recompute", "degrade"))
    def test_inline_torn_slice_trips_epoch_guard(self, policy, task, monkeypatch):
        # Shard 1's elkan kernel runs at iteration 2 (its second
        # steady-state pass) and then raises: its slice is written and its
        # epoch slot stays dirty.  recompute must refuse to rebuild from
        # that slice; degrade must reseed the shard on its next pass.
        X, k, C0, max_iter = task
        lo, hi = shard_bounds(len(X), 3)[1]
        passes = {"elkan": 0, "elkan_seed": 0}

        def wrap(kernel, name):
            real = getattr(sharded, name)

            def spy(X_rows, *args, **kwargs):
                out = real(X_rows, *args, **kwargs)
                if np.shares_memory(X_rows, X[lo:hi]):
                    passes[kernel] += 1
                    if kernel == "elkan" and passes[kernel] == 2:
                        raise RuntimeError("shard 1 dies after its write")
                return out

            monkeypatch.setattr(sharded, name, spy)

        wrap("elkan", "elkan_assign_rows")
        wrap("elkan_seed", "elkan_seed_rows")
        algorithm = SHARDED_ALGORITHMS["elkan"](shards=3, shard_policy=policy)
        if policy == "recompute":
            with pytest.raises(ShardFailedError) as excinfo:
                algorithm.fit(X, k, initial_centroids=C0, max_iter=max_iter)
            assert excinfo.value.error_type == "ShardStateCorrupted"
            assert excinfo.value.shard == 1
            assert excinfo.value.iteration == 2
            return
        result = algorithm.fit(X, k, initial_centroids=C0, max_iter=max_iter)
        assert result.n_iter > 3
        assert not np.any(result.labels < 0)
        (degraded,) = result.extras["degraded_iterations"]
        assert degraded["iteration"] == 2
        assert degraded["shards"] == [1]
        assert degraded["error_types"] == ["RuntimeError"]
        # iteration 0's seed pass, then the reseed at iteration 3
        assert passes["elkan_seed"] == 2

    @pytest.mark.parametrize("kind", ("kill", "hang", "timeout"))
    def test_inline_refuses_process_only_faults(self, kind):
        if kind == "timeout":
            knobs = {"execution": ExecutionPolicy(timeout=2.0)}
        else:
            knobs = {"fault_plan": FaultPlan.parse(f"{kind}:lloyd:shard=1:iter=1")}
        with pytest.raises(ConfigurationError, match=kind) as excinfo:
            SHARDED_ALGORITHMS["lloyd"](shards=2, **knobs)
        if kind == "timeout":
            assert "cannot be killed" in str(excinfo.value)
            assert "max_total_time" in str(excinfo.value)

    def test_inline_runner_reports_no_ipc(self, task):
        X, k, C0, _ = task
        result = SHARDED_ALGORITHMS["lloyd"](shards=3).fit(
            X, k, initial_centroids=C0, max_iter=3
        )
        assert "ipc" not in result.extras
        assert "pool" not in result.extras


@st.composite
def merge_cases(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    d = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=6))
    # Mix magnitudes so float addition order matters (1.0 + 1e16 loses the
    # 1.0): exactly the regime where a partial-sum merge would diverge.
    values = draw(
        st.lists(
            st.floats(
                min_value=-1e16, max_value=1e16,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=n * d, max_size=n * d,
        )
    )
    labels = draw(
        st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    )
    shards = draw(st.integers(min_value=1, max_value=min(6, n)))
    X = np.array(values, dtype=np.float64).reshape(n, d)
    return X, k, np.array(labels, dtype=np.intp), shards


class TestMergeDiscipline:
    @given(case=merge_cases())
    @settings(max_examples=60, deadline=None)
    def test_merge_is_bit_identical_to_unsharded_fold(self, case):
        X, k, labels, shards = case
        ranges = shard_bounds(len(X), shards)
        shard_labels = [labels[lo:hi] for lo, hi in ranges]
        merged, sums, counts = merge_shard_assignments(
            X, k, shard_labels, ranges
        )
        assert np.array_equal(merged, labels)
        assert sums.tobytes() == accumulate_cluster_sums(X, labels, k).tobytes()
        assert np.array_equal(counts, np.bincount(labels, minlength=k))

    def test_partial_sum_merge_counterexample(self):
        # The docstring's counterexample, pinned as a test: per-shard
        # partial sums associate differently and lose the small addend.
        X = np.array([[1.0], [1.0], [1e16]])
        labels = np.zeros(3, dtype=np.intp)
        ranges = [(0, 1), (1, 3)]
        _, sums, _ = merge_shard_assignments(
            X, 1, [labels[:1], labels[1:]], ranges
        )
        full_fold = accumulate_cluster_sums(X, labels, 1)
        partial = accumulate_cluster_sums(X[:1], labels[:1], 1) + (
            accumulate_cluster_sums(X[1:], labels[1:], 1)
        )
        assert sums.tobytes() == full_fold.tobytes()
        assert partial.tobytes() != full_fold.tobytes()

    def test_lost_shard_rows_stay_unassigned(self):
        X = np.arange(12, dtype=np.float64).reshape(6, 2)
        labels = np.array([0, 1, 0, 1, 0, 1], dtype=np.intp)
        ranges = shard_bounds(6, 3)
        merged, sums, counts = merge_shard_assignments(
            X, 2, [labels[0:2], None, labels[4:6]], ranges, lost=[1]
        )
        assert merged.tolist() == [0, 1, -1, -1, 0, 1]
        survivors = np.array([0, 1, 4, 5])
        expect = accumulate_cluster_sums(X[survivors], labels[survivors], 2)
        assert sums.tobytes() == expect.tobytes()
        assert counts.tolist() == [2, 2]


class TestWiring:
    def test_make_algorithm_requires_vectorized_backend(self):
        with pytest.raises(ConfigurationError, match="vectorized"):
            make_algorithm("lloyd", shards=2)

    def test_make_algorithm_rejects_unsharded_algorithms(self):
        with pytest.raises(ConfigurationError):
            make_algorithm("yinyang", backend="vectorized", shards=2)

    def test_make_sharded_algorithm_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_sharded_algorithm("annulus")

    def test_make_algorithm_builds_sharded_instance(self):
        algorithm = make_algorithm("lloyd", backend="vectorized", shards=4)
        assert type(algorithm) is SHARDED_ALGORITHMS["lloyd"]
        assert algorithm.shards == 4

    def test_shard_policy_alone_selects_sharded_engine(self):
        algorithm = make_algorithm(
            "elkan", backend="vectorized", shard_policy="degrade"
        )
        assert type(algorithm) is SHARDED_ALGORITHMS["elkan"]
        assert algorithm.shard_policy.mode == "degrade"

    def test_plain_vectorized_without_shards(self):
        algorithm = make_algorithm("lloyd", backend="vectorized")
        assert type(algorithm) is VECTORIZED_ALGORITHMS["lloyd"]

    @pytest.mark.parametrize(
        "knobs",
        (
            {"backend": "vectorized", "shards": 0},
            {"backend": "vectorized", "shards": -3, "shard_policy": "strict"},
            {"shards": -3},
        ),
        ids=("vectorized-zero", "vectorized-negative-policy", "reference-negative"),
    )
    def test_make_algorithm_rejects_nonpositive_shards(self, knobs):
        with pytest.raises(ConfigurationError, match="shards must be >= 1"):
            make_algorithm("lloyd", **knobs)

    def test_shard_threads_reach_every_row_kernel(self):
        # R007 lints what the shard threads run by walking the live call
        # graph, fuzzy edges included, from their Thread target; every
        # row kernel a shard pass calls must be on that walk.
        project, graph, _, _ = load_project_from_paths(
            [REPO_ROOT / "src"], root=REPO_ROOT
        )
        (site,) = [
            site for site in _dispatch_sites(project)
            if site.module == "repro.exec.sharded"
        ]
        reached = graph.reachable([site.root], fuzzy=True)
        kernels = {
            f"repro.core.vectorized.{name}"
            for name in (
                "lloyd_assign_rows",
                "elkan_seed_rows",
                "elkan_assign_rows",
                "hamerly_seed_rows",
                "hamerly_assign_rows",
            )
        }
        assert kernels <= set(reached)


class TestHarnessIntegration:
    def test_run_algorithm_sharded_matches_serial(self, chaos_task):
        X, k, _ = chaos_task
        want = run_algorithm(
            "lloyd", X, k, repeats=1, max_iter=5, seed=0, backend="vectorized"
        )
        got = run_algorithm(
            "lloyd", X, k, repeats=1, max_iter=5, seed=0,
            backend="vectorized", shards=2, shard_policy="strict",
        )
        assert got.sse == want.sse
        assert got.n_iter == want.n_iter
        assert got.distance_computations == want.distance_computations
        assert got.point_accesses == want.point_accesses

    def test_parallel_compare_sharded_matches_serial(self, chaos_task):
        X, k, _ = chaos_task
        want = run_algorithm(
            "elkan", X, k, repeats=1, max_iter=5, seed=0, backend="vectorized"
        )
        # Inside a daemonic pool worker the shards run on threads and
        # still produce identical results.
        (got,) = parallel_compare(
            ["elkan"], X, k, repeats=1, max_iter=5, seed=0,
            backend="vectorized", shards=3,
        )
        assert got.sse == want.sse
        assert got.n_iter == want.n_iter
        assert got.distance_computations == want.distance_computations
        assert got.bound_accesses == want.bound_accesses
