"""Tests for the sharded data-parallel execution engine.

The engine's contract (``docs/sharding.md``) is *bit-identity*: a sharded
fit produces the same labels, centroids (bitwise), iteration count, and
counter totals as the single-process vectorized backend under every
shard count, and fails with the exception that backend would raise.
These tests pin that contract directly, replay the committed golden
traces through the sharded engine, and drive the shard threads'
concurrency, joins and failures.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import load_project_from_paths
from repro.analysis.interprocedural import _dispatch_sites
from repro.common import blas
from repro.common.blas import available_cores, get_blas_threads
from repro.common.exceptions import ConfigurationError, ValidationError
from repro.core import VECTORIZED_ALGORITHMS, make_algorithm
from repro.core.initialization import init_kmeans_plus_plus
from repro.datasets import make_blobs
from repro.eval.harness import run_algorithm
from repro.eval.parallel import parallel_compare
from repro.exec import sharded
from repro.exec.sharded import SHARDED_ALGORITHMS, shard_bounds

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

    @pytest.mark.parametrize("name", sorted(SHARDED_ALGORITHMS))
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
    """The shard threads: concurrency, joins, and failures."""

    @pytest.mark.skipif(
        available_cores() < 2, reason="concurrent shards need >= 2 cores"
    )
    def test_inline_shards_run_concurrently(self, chaos_task, monkeypatch):
        # Each shard pass waits at a two-party barrier before running
        # the real kernel: a sequential runner would leave the first
        # shard waiting alone until the barrier times out (a
        # BrokenBarrierError, so the fit raises), never hang.
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

    def test_inline_joins_every_shard_before_raising(self, chaos_task, monkeypatch):
        # Shard 0's kernel fails at once while the others are still in
        # theirs: the fit may only raise after every shard has finished,
        # so no thread writes state once the fit is over, and it raises
        # the shard's own exception, as the unsharded fit would.
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
        with pytest.raises(RuntimeError, match="shard 0 fails first") as excinfo:
            algorithm.fit(X, k, initial_centroids=C0, max_iter=4)
        assert type(excinfo.value) is RuntimeError
        assert finished == [40, 40]
        assert not any(
            t.name.startswith("repro-shard") for t in threading.enumerate()
        )

    def test_inline_lowest_rank_failure_is_raised(self, chaos_task, monkeypatch):
        # Every shard fails, shard 0 last in time: the fit raises shard
        # 0's exception, not the first one to happen.
        X, k, C0 = chaos_task
        ranges = shard_bounds(len(X), 3)

        def spy(X_rows, *args):
            (rank,) = [
                r for r, (lo, hi) in enumerate(ranges)
                if np.shares_memory(X_rows, X[lo:hi])
            ]
            if rank == 0:
                time.sleep(0.2)
            raise RuntimeError(f"shard {rank} fails")

        monkeypatch.setattr(sharded, "lloyd_assign_rows", spy)
        with pytest.raises(RuntimeError, match="shard 0 fails"):
            SHARDED_ALGORITHMS["lloyd"](shards=3).fit(
                X, k, initial_centroids=C0, max_iter=4
            )

    def test_inline_many_shards_under_fast_switching(self, task):
        # More shards than cores with a tiny switch interval: a lost
        # result slot or a torn row range shows as a diverging model or
        # counter total.
        X, k, C0, max_iter = task
        want = VECTORIZED_ALGORITHMS["lloyd"]().fit(
            X, k, initial_centroids=C0, max_iter=max_iter
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = SHARDED_ALGORITHMS["lloyd"](shards=8).fit(
                X, k, initial_centroids=C0, max_iter=max_iter
            )
        finally:
            sys.setswitchinterval(interval)
        assert_results_identical(got, want, context="inline/switching")

    def test_inline_runner_reports_no_ipc(self, task):
        X, k, C0, _ = task
        result = SHARDED_ALGORITHMS["lloyd"](shards=3).fit(
            X, k, initial_centroids=C0, max_iter=3
        )
        assert "ipc" not in result.extras
        assert "pool" not in result.extras


class TestBlasBudget:
    """The fan-out runs OpenBLAS at cores // shard threads, then restores."""

    @pytest.fixture
    def live(self):
        before = get_blas_threads()
        if before is None:
            pytest.skip("no OpenBLAS with a thread-count setter is loaded")
        return before

    @pytest.mark.parametrize("shards, budget", ((2, 2), (4, 1)))
    def test_fan_out_runs_at_the_budget(self, shards, budget, live, chaos_task, monkeypatch):
        # Four usable cores: two shard threads get two BLAS threads each,
        # four get one.
        X, k, C0 = chaos_task
        monkeypatch.setattr(sharded, "available_cores", lambda: 4)
        cls = SHARDED_ALGORITHMS["lloyd"]
        real = cls._assign_shard
        seen = []

        def spy(self, rank, counters):
            seen.append(get_blas_threads())
            return real(self, rank, counters)

        monkeypatch.setattr(cls, "_assign_shard", spy)
        got = cls(shards=shards).fit(X, k, initial_centroids=C0, max_iter=4)
        want = VECTORIZED_ALGORITHMS["lloyd"]().fit(X, k, initial_centroids=C0, max_iter=4)
        assert_results_identical(got, want, context=f"budget/shards={shards}")
        assert seen and set(seen) == {budget}
        assert got.extras["blas_threads"] == budget
        assert get_blas_threads() == live

    def test_one_shard_thread_keeps_the_setting(self, live, chaos_task, monkeypatch):
        X, k, C0 = chaos_task
        monkeypatch.setattr(sharded, "available_cores", lambda: 1)
        result = SHARDED_ALGORITHMS["lloyd"](shards=3).fit(
            X, k, initial_centroids=C0, max_iter=4
        )
        assert result.extras["blas_threads"] is None
        assert get_blas_threads() == live

    def test_count_restored_after_a_shard_raises(self, live, chaos_task, monkeypatch):
        X, k, C0 = chaos_task

        def spy(X_rows, *args):
            raise RuntimeError("shard fails")

        monkeypatch.setattr(sharded, "lloyd_assign_rows", spy)
        with pytest.raises(RuntimeError, match="shard fails"):
            SHARDED_ALGORITHMS["lloyd"](shards=2).fit(X, k, initial_centroids=C0, max_iter=4)
        assert get_blas_threads() == live
        assert blas._holders == 0

    def test_count_restored_after_concurrent_fits(self, live, task):
        # Two sharded fits in two threads enter and leave the budget in
        # whatever order their iterations fall.
        X, k, C0, max_iter = task
        want = VECTORIZED_ALGORITHMS["lloyd"]().fit(
            X, k, initial_centroids=C0, max_iter=max_iter
        )
        results = [None, None]

        def fit(slot):
            results[slot] = SHARDED_ALGORITHMS["lloyd"](shards=2).fit(
                X, k, initial_centroids=C0, max_iter=max_iter
            )

        threads = [threading.Thread(target=fit, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        for got in results:
            assert_results_identical(got, want, context="concurrent fits")
            assert "blas_threads" in got.extras
        assert get_blas_threads() == live
        assert blas._holders == 0

    def test_no_settable_blas_reports_none(self, chaos_task, monkeypatch):
        X, k, C0 = chaos_task
        monkeypatch.setattr(blas, "_handle", blas._UNLOADED)
        monkeypatch.setattr(blas, "_load", lambda: None)
        got = SHARDED_ALGORITHMS["lloyd"](shards=2).fit(X, k, initial_centroids=C0, max_iter=4)
        want = VECTORIZED_ALGORITHMS["lloyd"]().fit(X, k, initial_centroids=C0, max_iter=4)
        assert_results_identical(got, want, context="no settable BLAS")
        assert got.extras["blas_threads"] is None


class TestWiring:
    def test_make_algorithm_requires_vectorized_backend(self):
        with pytest.raises(ConfigurationError, match="vectorized"):
            make_algorithm("lloyd", shards=2)

    def test_make_algorithm_rejects_unsharded_algorithms(self):
        for name in ("yinyang", "elkan", "hamerly"):
            with pytest.raises(ConfigurationError, match="no sharded implementation"):
                make_algorithm(name, backend="vectorized", shards=2)

    def test_make_algorithm_sharded_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            make_algorithm("annulus", backend="vectorized", shards=2)

    def test_make_algorithm_builds_sharded_instance(self):
        algorithm = make_algorithm("lloyd", backend="vectorized", shards=4)
        assert type(algorithm) is SHARDED_ALGORITHMS["lloyd"]
        assert algorithm.shards == 4

    def test_plain_vectorized_without_shards(self):
        algorithm = make_algorithm("lloyd", backend="vectorized")
        assert type(algorithm) is VECTORIZED_ALGORITHMS["lloyd"]

    @pytest.mark.parametrize(
        "knobs",
        (
            {"backend": "vectorized", "shards": 0},
            {"backend": "vectorized", "shards": -3},
            {"shards": -3},
        ),
        ids=("vectorized-zero", "vectorized-negative", "reference-negative"),
    )
    def test_make_algorithm_rejects_nonpositive_shards(self, knobs):
        with pytest.raises(ConfigurationError, match="shards must be >= 1"):
            make_algorithm("lloyd", **knobs)

    def test_shard_threads_reach_every_row_kernel(self):
        # R007 lints what the shard threads run by walking the live call
        # graph, fuzzy edges included, from their Thread target; the row
        # kernel a shard pass calls must be on that walk.
        project, graph, _ = load_project_from_paths(
            [REPO_ROOT / "src"], root=REPO_ROOT
        )
        (site,) = [
            site for site in _dispatch_sites(project)
            if site.module == "repro.exec.sharded"
        ]
        reached = graph.reachable([site.root], fuzzy=True)
        assert {"repro.core.vectorized.lloyd_assign_rows"} <= set(reached)


class TestHarnessIntegration:
    def test_run_algorithm_sharded_matches_serial(self, chaos_task):
        X, k, _ = chaos_task
        want = run_algorithm(
            "lloyd", X, k, repeats=1, max_iter=5, seed=0, backend="vectorized"
        )
        got = run_algorithm(
            "lloyd", X, k, repeats=1, max_iter=5, seed=0,
            backend="vectorized", shards=2,
        )
        assert got.sse == want.sse
        assert got.n_iter == want.n_iter
        assert got.distance_computations == want.distance_computations
        assert got.point_accesses == want.point_accesses

    def test_parallel_compare_sharded_matches_serial(self, chaos_task):
        X, k, _ = chaos_task
        want = run_algorithm(
            "lloyd", X, k, repeats=1, max_iter=5, seed=0, backend="vectorized"
        )
        # Inside a daemonic pool worker the shards run on threads and
        # still produce identical results.
        (got,) = parallel_compare(
            ["lloyd"], X, k, repeats=1, max_iter=5, seed=0,
            backend="vectorized", shards=3,
        )
        assert got.sse == want.sse
        assert got.n_iter == want.n_iter
        assert got.distance_computations == want.distance_computations
        assert got.bound_accesses == want.bound_accesses
