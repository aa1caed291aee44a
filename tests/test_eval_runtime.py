"""Unit tests for the fault-tolerant execution runtime.

The supervised pool must survive everything ``ProcessPoolExecutor`` cannot:
hung workers (killed at the deadline), crashed workers (pool keeps going),
and exceptions (degraded to structured ``FailedRun`` records).  Nothing is
retried.
"""

import time

import pytest

from repro.common.exceptions import ValidationError
from repro.eval.runtime import (
    FailedRun,
    RunKey,
    is_failed_record,
    supervised_map,
)

KEY = RunKey(algorithm="lloyd", dataset="toy", n=100, d=4, k=5, seed=0, max_iter=10)


def _keys(count):
    return [
        RunKey(algorithm=f"algo{i}", dataset="toy", n=10, d=2, k=2, seed=0, max_iter=3)
        for i in range(count)
    ]


# Worker functions must be module-level to pickle under spawn contexts.


def _double(item):
    return item * 2


def _fail_always(item):
    raise ValueError(f"boom on {item}")


def _hang(item):
    while True:
        time.sleep(60)


def _exit_hard_on_zero(item):
    if item == 0:
        import os

        os._exit(3)
    return item * 2


class TestRunKey:
    def test_round_trips_through_dict(self):
        assert RunKey.from_record(KEY.as_dict()) == KEY

    def test_from_record_with_context_fields(self):
        record = {**KEY.as_dict(), "total_time": 1.0, "status": "ok"}
        assert RunKey.from_record(record) == KEY

    def test_missing_fields_give_none(self):
        assert RunKey.from_record({"algorithm": "lloyd"}) is None

    def test_str_is_human_readable(self):
        text = str(KEY)
        assert "lloyd" in text and "toy" in text and "k=5" in text


class TestFailedRun:
    def test_as_dict_carries_key_and_status(self):
        failed = FailedRun(key=KEY, error_type="ValueError", message="boom",
                           elapsed=0.5)
        data = failed.as_dict()
        assert data["status"] == "failed"
        assert data["algorithm"] == "lloyd"
        assert data["dataset"] == "toy"
        assert RunKey.from_record(data) == KEY

    def test_is_failed_record_discriminates(self):
        failed = FailedRun(key=KEY, error_type="E", message="m", elapsed=0.0)
        assert is_failed_record(failed)
        assert is_failed_record(failed.as_dict())
        assert not is_failed_record({"algorithm": "lloyd"})
        assert not is_failed_record(object())


class TestSupervisedMap:
    def test_maps_in_order(self):
        results = supervised_map(_double, [1, 2, 3], _keys(3), max_workers=2)
        assert results == [2, 4, 6]

    def test_empty_input(self):
        assert supervised_map(_double, [], []) == []

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValidationError):
            supervised_map(_double, [1], _keys(2))

    @pytest.mark.parametrize("timeout", (0, -1.0))
    def test_rejects_non_positive_timeout(self, timeout):
        with pytest.raises(ValidationError, match="timeout"):
            supervised_map(_double, [1], _keys(1), timeout=timeout)

    @pytest.mark.parametrize("max_workers", (0, -3))
    def test_rejects_max_workers_below_one(self, max_workers):
        with pytest.raises(ValidationError, match="max_workers"):
            supervised_map(_double, [1], _keys(1), max_workers=max_workers)

    def test_terminal_error_degrades_to_failed_run(self):
        results = supervised_map(_fail_always, [7], _keys(1))
        (failed,) = results
        assert isinstance(failed, FailedRun)
        assert failed.error_type == "ValueError"
        assert "boom on 7" in failed.message

    def test_hang_is_killed_at_deadline(self):
        start = time.monotonic()
        (failed,) = supervised_map(_hang, [0], _keys(1), timeout=0.5)
        elapsed = time.monotonic() - start
        assert isinstance(failed, FailedRun)
        assert failed.error_type == "RunTimeoutError"
        assert elapsed < 10.0  # killed, not waited out

    def test_killed_worker_does_not_break_pool(self):
        # One worker slot: the items after the crash run in the same pool.
        results = supervised_map(
            _exit_hard_on_zero, [0, 5, 6], _keys(3), max_workers=1
        )
        assert isinstance(results[0], FailedRun)
        assert results[0].error_type == "WorkerCrashError"
        assert results[1:] == [10, 12]

    def test_concurrent_batch_preserves_input_order(self):
        results = supervised_map(_double, [1, 2, 3, 4], _keys(4), max_workers=4)
        assert results == [2, 4, 6, 8]


def _sleep_quarter(item):
    time.sleep(0.25)
    return item


def _return_none(item):
    return None


class TestNoNonePlaceholders:
    def test_worker_returning_none_is_a_result(self):
        # None is a legitimate worker result, not an unfinished marker.
        results = supervised_map(_return_none, [1], _keys(1))
        assert results == [None]

    def test_supervisor_abort_converts_pending_slots(self, monkeypatch):
        # Kill the supervisor loop itself mid-batch: the finally path must
        # settle every unfinished slot as SupervisorAborted, never leave a
        # placeholder.  The list never reaches the caller (the exception
        # propagates), so observe the conversion via the FailedRun records
        # the finally path constructs.
        import repro.eval.runtime as runtime

        created = []
        real_failed_run = runtime.FailedRun

        class RecordingFailedRun(real_failed_run):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                created.append(self)

        class ExplodingContext:
            def __init__(self, ctx):
                self._ctx = ctx
                self._calls = 0

            def Pipe(self, *args, **kwargs):
                self._calls += 1
                if self._calls > 1:
                    raise KeyboardInterrupt("supervisor dies mid-dispatch")
                return self._ctx.Pipe(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._ctx, name)

        real_default = runtime._default_context
        monkeypatch.setattr(runtime, "FailedRun", RecordingFailedRun)
        monkeypatch.setattr(
            runtime, "_default_context",
            lambda: ExplodingContext(real_default()),
        )
        with pytest.raises(KeyboardInterrupt):
            runtime.supervised_map(
                _sleep_quarter, [1, 2, 3], _keys(3), max_workers=1
            )
        aborted = [f for f in created if f.error_type == "SupervisorAborted"]
        assert len(aborted) == 2  # items 2 and 3 never got to run
        assert all("supervisor aborted" in f.message for f in aborted)
