"""Failure containment and recovery through the evaluation harness.

Covers the acceptance scenario for the fault-tolerant runtime: one
campaign in which one spec hangs, one kills its worker and one raises
completes every healthy cell, records the other three as ``FailedRun``
entries carrying their error types, and a resume of the same campaign
re-runs only the failed cells.  Successful records are bit-identical
(counters and SSE) to the serial harness.

Failures are planted by replacing ``repro.eval.parallel.run_algorithm``
in the parent before the workers fork, so each worker inherits the faulty
function.  Under a start method other than fork the workers would import
the real one, so those tests skip.
"""

import json
import os
import shutil
import time
import warnings
from contextlib import contextmanager
from multiprocessing import get_all_start_methods

import pytest

import repro.eval.parallel as parallel
from repro.datasets import make_blobs
from repro.datasets.loaders import read_jsonl
from repro.eval.harness import compare_algorithms
from repro.eval.logdb import EvaluationLog
from repro.eval.parallel import parallel_compare
from repro.eval.runtime import FailedRun, RunKey, is_failed_record
from repro.eval.sweeps import series, sweep_parameter

needs_fork = pytest.mark.skipif(
    "fork" not in get_all_start_methods(),
    reason="faults are planted by patching run_algorithm in the parent, "
           "which only forked workers inherit",
)

SPECS = ["lloyd", "hamerly", "elkan", "yinyang", "drake"]
HANG, CRASH, RAISE = "elkan", "yinyang", "drake"

#: per-cell budget; the hung cell costs this much wall-clock time
TIMEOUT = 10.0


class PlantedFault(RuntimeError):
    """The exception the campaign's raising spec throws."""


def _faulty(real):
    def run_algorithm(spec, *args, **kwargs):
        if spec == HANG:
            while True:  # the supervisor must kill us
                time.sleep(60.0)
        if spec == CRASH:
            os._exit(97)  # dies without reporting, like an OOM kill
        if spec == RAISE:
            raise PlantedFault(f"planted failure for {spec}")
        return real(spec, *args, **kwargs)

    return run_algorithm


@contextmanager
def planted_faults():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "run_algorithm", _faulty(parallel.run_algorithm))
        yield


def _run(X, specs=SPECS, log=None, resume=False, dataset="chaos"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return parallel_compare(
            specs, X, 4,
            repeats=1, max_iter=3, seed=0, timeout=TIMEOUT,
            dataset=dataset, log=log, resume=resume,
        )


@pytest.fixture(scope="module")
def data():
    X, _ = make_blobs(120, 4, 4, seed=7)
    return X


@pytest.fixture(scope="module")
def campaign(data, tmp_path_factory):
    """The faulty campaign, run once for the module (the hung cell waits
    out the whole timeout); returns its outcomes and its log's path."""
    log_path = tmp_path_factory.mktemp("campaign") / "campaign.jsonl"
    with planted_faults():
        results = _run(data, log=EvaluationLog(log_path))
    return results, log_path


@needs_fork
class TestChaosCampaign:
    """The acceptance scenario: hang + crash + raise in one campaign."""

    def test_chaos_sweep_completes_with_failures_recorded(self, campaign):
        results, _ = campaign
        # One outcome per cell, in input order.
        assert [r.algorithm for r in results] == SPECS
        by_algo = {r.algorithm: r for r in results}
        assert not is_failed_record(by_algo["lloyd"])
        assert not is_failed_record(by_algo["hamerly"])
        hung, crashed, raised = by_algo[HANG], by_algo[CRASH], by_algo[RAISE]
        assert isinstance(hung, FailedRun)
        assert hung.error_type == "RunTimeoutError"
        assert isinstance(crashed, FailedRun)
        assert crashed.error_type == "WorkerCrashError"
        assert isinstance(raised, FailedRun)
        assert raised.error_type == "PlantedFault"
        assert "planted failure for drake" in raised.message

    def test_survivors_bit_identical_to_serial_harness(self, campaign, data):
        results, _ = campaign
        serial = compare_algorithms(["lloyd", "hamerly"], data, 4,
                                    repeats=1, max_iter=3, seed=0)
        by_algo = {r.algorithm: r for r in results if not is_failed_record(r)}
        assert set(by_algo) == {"lloyd", "hamerly"}
        for reference in serial:
            survivor = by_algo[reference.algorithm]
            assert survivor.sse == reference.sse
            assert survivor.distance_computations == reference.distance_computations
            assert survivor.point_accesses == reference.point_accesses
            assert survivor.n_iter == reference.n_iter

    def test_resume_reruns_only_failed_cells(self, campaign, data, tmp_path):
        _, campaign_log = campaign
        log_path = tmp_path / "campaign.jsonl"
        shutil.copy(campaign_log, log_path)
        log = EvaluationLog(log_path)
        assert len(log.completed_keys()) == 2
        assert len(log.failed_keys()) == 3
        lines_before = len(read_jsonl(log_path))

        # Resume without faults: only the three failed cells re-run.
        results = _run(data, log=log, resume=True)
        assert all(not is_failed_record(r) for r in results)
        by_algo = {r.algorithm: r for r in results}
        assert by_algo["lloyd"].extras.get("resumed") is True
        assert by_algo["hamerly"].extras.get("resumed") is True
        for name in (HANG, CRASH, RAISE):
            assert "resumed" not in by_algo[name].extras
        assert len(read_jsonl(log_path)) == lines_before + 3
        assert len(EvaluationLog(log_path).failed_keys()) == 0


class TestCrashRecovery:
    def test_log_survives_truncated_tail(self, data, tmp_path):
        log_path = tmp_path / "crashy.jsonl"
        log = EvaluationLog(log_path)
        _run(data, specs=["lloyd", "hamerly"], log=log, dataset="crash")
        intact = len(read_jsonl(log_path))
        assert intact == 2

        # A crash mid-append leaves a truncated final line.
        os.truncate(log_path, log_path.stat().st_size - 9)
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

    def test_log_with_attempts_fields_still_resumes(self, data, tmp_path):
        # Logs written while the runtime still retried cells carry an
        # ``attempts`` field on failed records; they load and resume.
        (lloyd,) = compare_algorithms(["lloyd"], data, 4, repeats=1,
                                      max_iter=3, seed=0)
        context = {"dataset": "legacy", "seed": 0, "max_iter": 3}
        hamerly = RunKey(algorithm="hamerly", n=data.shape[0], d=data.shape[1],
                         k=4, **context)
        lines = [
            {**lloyd.as_dict(), **context},
            {**hamerly.as_dict(), "status": "failed",
             "error_type": "RunTimeoutError",
             "message": "exceeded the 60s wall-clock budget",
             "attempts": 3, "elapsed": 180.2},
        ]
        log_path = tmp_path / "legacy.jsonl"
        log_path.write_text("".join(json.dumps(line) + "\n" for line in lines))

        log = EvaluationLog(log_path)
        (failure,) = log.failures()
        assert failure["attempts"] == 3
        assert log.failed_keys() == {hamerly}

        results = _run(data, specs=["lloyd", "hamerly"], log=log, resume=True,
                       dataset="legacy")
        assert [r.algorithm for r in results] == ["lloyd", "hamerly"]
        assert results[0].extras.get("resumed") is True
        assert "resumed" not in results[1].extras
        assert not is_failed_record(results[1])
        assert len(read_jsonl(log_path)) == 3
        assert EvaluationLog(log_path).failed_keys() == set()


class TestFaultTolerantSweep:
    @needs_fork
    def test_sweep_records_failures_and_series_skips_them(self, data):
        with planted_faults(), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sweep = sweep_parameter(
                [2, 3], lambda k: (data, k), ["lloyd", RAISE],
                repeats=1, max_iter=3, seed=0, timeout=TIMEOUT,
            )
        assert len(series(sweep, "lloyd", "sse")) == 2
        assert series(sweep, RAISE, "sse") == []

    def test_serial_sweep_unchanged_without_runtime_knobs(self, data):
        sweep = sweep_parameter(
            [2, 3], lambda k: (data, k), ["lloyd"],
            repeats=1, max_iter=3, seed=0,
        )
        assert len(series(sweep, "lloyd", "sse")) == 2
