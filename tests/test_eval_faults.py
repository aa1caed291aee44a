"""Fault injection and end-to-end recovery tests.

Covers the acceptance scenario for the fault-tolerant runtime: a chaos
campaign with a hanging spec, a crashing spec, and a transiently-failing
spec completes every healthy cell, retries the transient one to success,
records the other two as ``FailedRun`` entries, and a resume of the same
campaign re-runs only the failed cells.  Successful records are
bit-identical (counters and SSE) to the serial harness.
"""

import warnings

import numpy as np
import pytest

from repro.common.exceptions import TransientError, ValidationError
from repro.datasets import make_blobs
from repro.datasets.loaders import read_jsonl
from repro.eval.faults import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    InjectedFaultError,
    corrupt_jsonl_tail,
)
from repro.eval.harness import compare_algorithms
from repro.eval.logdb import EvaluationLog
from repro.eval.parallel import parallel_compare
from repro.eval.runtime import FailedRun, RunKey, is_failed_record
from repro.eval.sweeps import series, sweep_parameter

KEY = RunKey(algorithm="lloyd", dataset="toy", n=100, d=4, k=5, seed=0, max_iter=10)
OTHER = RunKey(algorithm="hamerly", dataset="toy", n=100, d=4, k=5, seed=0, max_iter=10)


@pytest.fixture(scope="module")
def data():
    X, _ = make_blobs(120, 4, 4, seed=7)
    return X


class TestFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            Fault(kind="meteor")

    def test_bad_times_rejected(self):
        with pytest.raises(ValidationError):
            Fault(kind="transient", times=0)

    def test_matches_wildcard_algorithm_and_substring(self):
        assert Fault(kind="raise").matches(KEY)
        assert Fault(kind="raise", match="lloyd").matches(KEY)
        assert Fault(kind="raise", match="toy").matches(KEY)
        assert not Fault(kind="raise", match="elkan").matches(KEY)

    def test_triggers_respects_times(self):
        fault = Fault(kind="transient", times=2)
        assert fault.triggers(1) and fault.triggers(2) and not fault.triggers(3)
        always = Fault(kind="raise")
        assert always.triggers(99)


class TestFaultPlanParse:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse("transient:hamerly:2,hang:lloyd,kill:elkan,rate:0.1,seed:7")
        assert [f.kind for f in plan.faults] == ["transient", "hang", "kill"]
        assert plan.faults[0].match == "hamerly" and plan.faults[0].times == 2
        assert plan.rate == pytest.approx(0.1)
        assert plan.seed == 7

    def test_parse_delay_seconds(self):
        plan = FaultPlan.parse("delay:*:0.25")
        assert plan.faults[0].seconds == pytest.approx(0.25)

    def test_parse_empty_items_skipped(self):
        assert FaultPlan.parse("") == FaultPlan()
        assert FaultPlan.parse(" , ,") == FaultPlan()

    def test_parse_rejects_key_value_fields(self):
        # A shard=/iter= field fails the parse instead of yielding a rule
        # that never fires.
        with pytest.raises(ValidationError, match="shard=1"):
            FaultPlan.parse("raise:lloyd:shard=1:iter=1")

    def test_parse_malformed_rejected(self):
        with pytest.raises(ValidationError):
            FaultPlan.parse("transient:hamerly:soon")
        with pytest.raises(ValidationError):
            FaultPlan.parse("meteor:lloyd")
        with pytest.raises(ValidationError):
            FaultPlan.parse("rate:lots")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            FaultPlan(rate=1.5)


class TestFaultPlanApply:
    def test_transient_then_clean(self):
        plan = FaultPlan(faults=(Fault(kind="transient", match="lloyd", times=1),))
        with pytest.raises(TransientError):
            plan.apply(KEY, attempt=1)
        plan.apply(KEY, attempt=2)  # second attempt passes

    def test_raise_is_not_transient(self):
        plan = FaultPlan(faults=(Fault(kind="raise", match="lloyd"),))
        with pytest.raises(InjectedFaultError):
            plan.apply(KEY, attempt=1)
        plan.apply(OTHER, attempt=1)  # unmatched key untouched

    def test_rate_draws_are_deterministic(self):
        plan = FaultPlan(rate=0.5, seed=3)
        draws = [plan.rate_triggers(KEY, a) for a in range(1, 30)]
        again = [plan.rate_triggers(KEY, a) for a in range(1, 30)]
        assert draws == again
        assert any(draws) and not all(draws)  # rate=0.5 hits some, not all

    def test_rate_zero_never_triggers(self):
        assert not FaultPlan().rate_triggers(KEY, 1)

    def test_corrupt_is_log_level_only(self):
        plan = FaultPlan(faults=(Fault(kind="corrupt"),))
        plan.apply(KEY, attempt=1)  # no-op inside workers
        assert plan.wants_log_corruption()
        assert not FaultPlan().wants_log_corruption()

    def test_all_kinds_are_parseable(self):
        for kind in FAULT_KINDS:
            plan = FaultPlan.parse(f"{kind}:lloyd")
            assert plan.faults[0].kind == kind


class TestCorruptJsonlTail:
    def test_truncates_and_reports_size(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n')
        size = corrupt_jsonl_tail(path, drop_bytes=5)
        assert size == path.stat().st_size
        assert path.read_text() == '{"a": 1}\n{"b"'


class TestChaosCampaign:
    """The acceptance scenario from the robustness issue."""

    PLAN = FaultPlan(faults=(
        Fault(kind="hang", match="elkan"),
        Fault(kind="kill", match="yinyang"),
        Fault(kind="transient", match="hamerly", times=1),
    ))
    SPECS = ["lloyd", "hamerly", "elkan", "yinyang"]

    def _run(self, X, log=None, resume=False, plan=PLAN):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return parallel_compare(
                self.SPECS, X, 4,
                repeats=1, max_iter=3, seed=0,
                timeout=15.0, retries=2,
                dataset="chaos", log=log, resume=resume, fault_plan=plan,
            )

    def test_chaos_sweep_completes_with_failures_recorded(self, data):
        results = self._run(data)
        by_algo = {getattr(r, "algorithm", None) or r.key.algorithm: r
                   for r in results}
        # Healthy spec and the retried-transient spec both succeed.
        assert not is_failed_record(by_algo["lloyd"])
        assert not is_failed_record(by_algo["hamerly"])
        # Hanging and killed specs degrade to FailedRun entries.
        assert isinstance(by_algo["elkan"], FailedRun)
        assert by_algo["elkan"].error_type == "RunTimeoutError"
        assert isinstance(by_algo["yinyang"], FailedRun)
        assert by_algo["yinyang"].error_type == "WorkerCrashError"

    def test_transient_spec_was_actually_retried(self, data):
        results = self._run(data)
        hamerly = next(r for r in results
                       if getattr(r, "algorithm", "") == "hamerly")
        assert not is_failed_record(hamerly)

    def test_survivors_bit_identical_to_serial_harness(self, data):
        serial = compare_algorithms(["lloyd", "hamerly"], data, 4,
                                    repeats=1, max_iter=3, seed=0)
        chaos = [r for r in self._run(data) if not is_failed_record(r)]
        by_algo = {r.algorithm: r for r in chaos}
        for reference in serial:
            survivor = by_algo[reference.algorithm]
            assert survivor.sse == reference.sse
            assert survivor.distance_computations == reference.distance_computations
            assert survivor.point_accesses == reference.point_accesses
            assert survivor.n_iter == reference.n_iter

    def test_resume_reruns_only_failed_cells(self, data, tmp_path):
        log_path = tmp_path / "campaign.jsonl"
        log = EvaluationLog(log_path)
        self._run(data, log=log)
        assert len(log.completed_keys()) == 2
        assert len(log.failed_keys()) == 2
        lines_before = len(read_jsonl(log_path))

        # Resume without faults: only elkan and yinyang re-run.
        log2 = EvaluationLog(log_path)
        results = self._run(data, log=log2, resume=True, plan=None)
        assert all(not is_failed_record(r) for r in results)
        by_algo = {r.algorithm: r for r in results}
        assert by_algo["lloyd"].extras.get("resumed") is True
        assert by_algo["hamerly"].extras.get("resumed") is True
        assert "resumed" not in by_algo["elkan"].extras
        assert "resumed" not in by_algo["yinyang"].extras
        # Exactly the two failed cells were re-run and appended.
        assert len(read_jsonl(log_path)) == lines_before + 2
        assert len(EvaluationLog(log_path).failed_keys()) == 0


class TestCrashRecovery:
    def test_log_survives_truncated_tail(self, data, tmp_path):
        log_path = tmp_path / "crashy.jsonl"
        log = EvaluationLog(log_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            parallel_compare(["lloyd", "hamerly"], data, 4, repeats=1,
                             max_iter=3, seed=0, dataset="crash", log=log)
        intact = len(read_jsonl(log_path))
        assert intact == 2

        corrupt_jsonl_tail(log_path, drop_bytes=9)
        with pytest.warns(RuntimeWarning, match="truncated"):
            recovered = EvaluationLog(log_path, truncated="quarantine")
        # One record lost to the crash artifact, the rest intact.
        assert len(recovered) == intact - 1
        assert (tmp_path / "crashy.jsonl.quarantine").exists()
        # The lost cell shows as incomplete, so a resume re-runs it.
        assert len(recovered.completed_keys()) == 1

    def test_recovered_log_accepts_new_appends(self, tmp_path):
        log_path = tmp_path / "recover.jsonl"
        log_path.write_text('{"algorithm": "lloyd", "x": 1}\n{"algorithm": "ham')
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            log = EvaluationLog(log_path, truncated="skip")
        log.add({"algorithm": "elkan", "x": 2})
        reloaded = read_jsonl(log_path, truncated="raise")
        assert [r["algorithm"] for r in reloaded] == ["lloyd", "elkan"]


class TestFaultTolerantSweep:
    def test_sweep_records_failures_and_series_skips_them(self, data):
        plan = FaultPlan(faults=(Fault(kind="raise", match="hamerly"),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sweep = sweep_parameter(
                [2, 3], lambda k: (data, k), ["lloyd", "hamerly"],
                repeats=1, max_iter=3, seed=0,
                timeout=15.0, fault_plan=plan,
            )
        assert len(series(sweep, "lloyd", "sse")) == 2
        assert series(sweep, "hamerly", "sse") == []

    def test_serial_sweep_unchanged_without_runtime_knobs(self, data):
        sweep = sweep_parameter(
            [2, 3], lambda k: (data, k), ["lloyd"],
            repeats=1, max_iter=3, seed=0,
        )
        assert len(series(sweep, "lloyd", "sse")) == 2


def test_injected_faults_do_not_perturb_results(data):
    """A delay fault changes timing only — counters and SSE stay identical."""
    plan = FaultPlan(faults=(Fault(kind="delay", match="lloyd", seconds=0.05),))
    delayed = parallel_compare(["lloyd"], data, 4, repeats=1, max_iter=3,
                               seed=0, fault_plan=plan)[0]
    serial = compare_algorithms(["lloyd"], data, 4, repeats=1, max_iter=3,
                                seed=0)[0]
    assert delayed.sse == serial.sse
    assert delayed.distance_computations == serial.distance_computations
    assert np.isfinite(delayed.total_time)
