"""Tests for the evaluation-log store and the computed Table 4 ratings."""

import pytest

from repro.eval.harness import RunRecord
from repro.eval.leaderboard import Leaderboard
from repro.eval.logdb import EvaluationLog
from repro.eval.runtime import FailedRun, RunKey
from repro.eval.summary import (
    CRITERIA,
    PARAMETER_FREE,
    rate_algorithms,
    render_circles,
)


def _record(name, *, time=1.0, footprint=10, point=100, bound=50, dist=1000,
            cost=5000.0):
    return RunRecord(
        algorithm=name, n=100, d=4, k=5, repeats=1,
        total_time=time, assignment_time=time, refinement_time=0.0,
        setup_time=0.0, sse=1.0, n_iter=5.0, pruning_ratio=0.5,
        distance_computations=dist, point_accesses=point, node_accesses=0,
        bound_accesses=bound, bound_updates=0, footprint_floats=footprint,
        modeled_cost=cost,
    )


class TestEvaluationLog:
    def test_in_memory_add_query(self):
        log = EvaluationLog()
        log.add(_record("lloyd"), dataset="toy")
        log.add(_record("elkan", time=0.5), dataset="toy")
        assert len(log) == 2
        assert log.algorithms() == ["elkan", "lloyd"]
        assert len(log.query(algorithm="lloyd")) == 1

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EvaluationLog(path)
        log.add(_record("lloyd"), dataset="toy", seed=3)
        reloaded = EvaluationLog(path)
        assert len(reloaded) == 1
        assert reloaded.query(seed=3)[0]["dataset"] == "toy"

    def test_predicate_filters(self):
        log = EvaluationLog()
        log.add(_record("a", time=1.0))
        log.add(_record("b", time=3.0))
        fast = log.query(total_time=lambda t: t < 2.0)
        assert [r["algorithm"] for r in fast] == ["a"]

    def test_mean_and_best(self):
        log = EvaluationLog()
        log.add(_record("a", time=1.0))
        log.add(_record("a", time=3.0))
        log.add(_record("b", time=0.5))
        assert log.mean("total_time", algorithm="a") == pytest.approx(2.0)
        assert log.best("total_time")["algorithm"] == "b"
        assert log.best("total_time", minimize=False)["algorithm"] == "a"

    def test_missing_field_raises(self):
        log = EvaluationLog()
        log.add(_record("a"))
        with pytest.raises(KeyError):
            log.mean("nonexistent")

    def test_add_many_with_context(self):
        log = EvaluationLog()
        count = log.add_many([_record("a"), _record("b")], dataset="x")
        assert count == 2
        assert all(r["dataset"] == "x" for r in log.query())


class TestQueryNullSemantics:
    """``field=None`` matches explicit null; missing fields never match.

    Regression: both cases used to go through ``record.get`` and were
    conflated — ``note=None`` matched every record without the field, and
    predicates never saw present-but-null values."""

    def _log(self):
        log = EvaluationLog()
        log.add({"algorithm": "a", "note": None})
        log.add({"algorithm": "b", "note": "tuned"})
        log.add({"algorithm": "c"})  # no note field at all
        return log

    def test_none_filter_matches_only_explicit_null(self):
        matches = self._log().query(note=None)
        assert [r["algorithm"] for r in matches] == ["a"]

    def test_missing_field_never_matches_value_filter(self):
        matches = self._log().query(note="tuned")
        assert [r["algorithm"] for r in matches] == ["b"]

    def test_predicate_sees_present_null_not_missing(self):
        seen = []

        def spy(value):
            seen.append(value)
            return value is None

        matches = self._log().query(note=spy)
        assert [r["algorithm"] for r in matches] == ["a"]
        # The predicate ran on both present values (null included), and
        # never on the record missing the field.
        assert seen == [None, "tuned"]

    def test_combined_filters_keep_null_semantics(self):
        log = self._log()
        assert log.query(algorithm="c", note=None) == []
        assert [r["algorithm"] for r in log.query(algorithm="a", note=None)] == ["a"]


class TestLeaderboardNoneMetric:
    def test_none_metric_records_are_skipped(self):
        board = Leaderboard(metric="modeled_cost")
        complete = _record("a", cost=10.0)
        unmeasured = _record("b", cost=1.0)
        unmeasured.modeled_cost = None  # e.g. rebuilt from a legacy log
        ranking = board.add_task([complete, unmeasured])
        assert ranking == ["a"]
        assert board.top1 == {"a": 1}

    def test_all_none_task_contributes_nothing(self):
        board = Leaderboard(metric="modeled_cost")
        unmeasured = _record("b")
        unmeasured.modeled_cost = None
        assert board.add_task([unmeasured]) == []
        assert board.tasks == 0


class TestSummaryRatings:
    def test_requires_tasks(self):
        with pytest.raises(ValueError):
            rate_algorithms([])

    def test_all_criteria_scored(self):
        tasks = [[_record("a"), _record("b", cost=1000.0)]]
        ratings = rate_algorithms(tasks)
        for name in ("a", "b"):
            assert set(ratings[name]) == set(CRITERIA)
            assert all(1 <= v <= 5 for v in ratings[name].values())

    def test_space_ordering(self):
        tasks = [[
            _record("small", footprint=1),
            _record("big", footprint=10_000),
        ]]
        ratings = rate_algorithms(tasks)
        assert ratings["small"]["space_saving"] > ratings["big"]["space_saving"]

    def test_leaderboard_reflects_cost_wins(self):
        tasks = [
            [_record("fast", cost=100.0), _record("slow", cost=10_000.0)]
            for _ in range(3)
        ]
        ratings = rate_algorithms(tasks)
        assert ratings["fast"]["leaderboard"] > ratings["slow"]["leaderboard"]

    def test_parameter_free_structural(self):
        tasks = [[_record("hamerly"), _record("yinyang")]]
        ratings = rate_algorithms(tasks)
        assert ratings["hamerly"]["parameter_free"] == 5
        assert ratings["yinyang"]["parameter_free"] == 2
        assert "hamerly" in PARAMETER_FREE

    def test_render_circles(self):
        assert render_circles(5) == "●●●●●"
        assert render_circles(0) == "○○○○○"
        assert render_circles(3) == "●●●○○"
        assert len(render_circles(99)) == 5


class TestCheckpointIndex:
    """The resume index layered on the evaluation log."""

    def _failed(self, name):
        key = RunKey(algorithm=name, dataset="toy", n=100, d=4, k=5,
                     seed=0, max_iter=10)
        return FailedRun(key=key, error_type="RunTimeoutError",
                         message="hung", elapsed=1.5)

    def _key_of(self, name):
        return RunKey(algorithm=name, dataset="toy", n=100, d=4, k=5,
                      seed=0, max_iter=10)

    def test_successes_and_failures_partition(self):
        log = EvaluationLog()
        log.add(_record("lloyd"), dataset="toy", seed=0, max_iter=10)
        log.add(self._failed("elkan"))
        assert len(log.successes()) == 1
        assert len(log.failures()) == 1
        assert log.completed_keys() == {self._key_of("lloyd")}
        assert log.failed_keys() == {self._key_of("elkan")}

    def test_success_after_failure_wins(self):
        log = EvaluationLog()
        log.add(self._failed("lloyd"))
        assert log.failed_keys() == {self._key_of("lloyd")}
        log.add(_record("lloyd"), dataset="toy", seed=0, max_iter=10)
        assert log.failed_keys() == set()
        assert log.has_completed(self._key_of("lloyd"))

    def test_failure_never_shadows_success(self):
        log = EvaluationLog()
        log.add(_record("lloyd"), dataset="toy", seed=0, max_iter=10)
        log.add(self._failed("lloyd"))
        assert log.has_completed(self._key_of("lloyd"))
        assert log.failed_keys() == set()

    def test_latest_success_returns_newest(self):
        log = EvaluationLog()
        log.add(_record("lloyd", time=1.0), dataset="toy", seed=0, max_iter=10)
        log.add(_record("lloyd", time=2.0), dataset="toy", seed=0, max_iter=10)
        stored = log.latest_success(self._key_of("lloyd"))
        assert stored["total_time"] == pytest.approx(2.0)

    def test_failed_run_round_trips_through_disk(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EvaluationLog(path)
        log.add(self._failed("elkan"))
        reloaded = EvaluationLog(path)
        assert reloaded.failed_keys() == {self._key_of("elkan")}
        (failure,) = reloaded.failures()
        assert failure["error_type"] == "RunTimeoutError"
        assert failure["elapsed"] == pytest.approx(1.5)

    def test_records_without_keys_are_queryable_not_indexed(self):
        log = EvaluationLog()
        log.add({"algorithm": "lloyd", "note": "no key fields"})
        assert len(log) == 1
        assert log.completed_keys() == set()


class TestAggregatesTolerateFailures:
    def _failed(self, name):
        key = RunKey(algorithm=name, dataset="toy", n=100, d=4, k=5,
                     seed=0, max_iter=10)
        return FailedRun(key=key, error_type="WorkerCrashError",
                         message="died", elapsed=0.1)

    def test_ratings_skip_failed_cells(self):
        tasks = [
            [_record("a"), _record("b")],
            [_record("a"), self._failed("b")],
        ]
        ratings = rate_algorithms(tasks)
        assert set(ratings) == {"a", "b"}

    def test_all_failed_task_skipped(self):
        tasks = [
            [_record("a"), _record("b")],
            [self._failed("a"), self._failed("b")],
        ]
        ratings = rate_algorithms(tasks)
        assert set(ratings) == {"a", "b"}

    def test_no_successes_at_all_raises(self):
        with pytest.raises(ValueError, match="no successful runs"):
            rate_algorithms([[self._failed("a")]])

    def test_leaderboard_skips_failed_and_uncounts_dead_tasks(self):
        board = Leaderboard(metric="total_time")
        assert board.add_task([_record("a", time=1.0),
                               self._failed("b")]) == ["a"]
        assert board.add_task([self._failed("a"), self._failed("b")]) == []
        assert board.tasks == 1
        assert board.top1["a"] == 1
