"""Unit tests for the fault-tolerant execution runtime.

The supervised pool must survive everything ``ProcessPoolExecutor`` cannot:
hung workers (killed at the deadline), crashed workers (pool keeps going),
transient failures (retried with deterministic backoff), and terminal
failures (degraded to structured ``FailedRun`` records).
"""

import time

import pytest

from repro.common.exceptions import (
    RunTimeoutError,
    TransientError,
    ValidationError,
    WorkerCrashError,
)
from repro.eval.runtime import (
    ExecutionPolicy,
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


def _double(item, attempt):
    return item * 2


def _fail_always(item, attempt):
    raise ValueError(f"boom on {item}")


def _fail_transiently_forever(item, attempt):
    raise TransientError("never recovers")


def _hang(item, attempt):
    while True:
        time.sleep(60)


def _exit_hard(item, attempt):
    import os

    os._exit(3)


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


class TestExecutionPolicy:
    def test_rejects_bad_timeout(self):
        with pytest.raises(ValidationError):
            ExecutionPolicy(timeout=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValidationError):
            ExecutionPolicy(retries=-1)

    def test_backoff_grows_and_caps(self):
        policy = ExecutionPolicy(backoff_base=0.1, backoff_cap=0.4, jitter=0.0)
        delays = [policy.backoff_delay("k", a) for a in (1, 2, 3, 4, 5)]
        assert delays == [pytest.approx(0.1), pytest.approx(0.2),
                          pytest.approx(0.4), pytest.approx(0.4),
                          pytest.approx(0.4)]

    def test_jitter_is_deterministic(self):
        policy = ExecutionPolicy(backoff_base=0.1, jitter=0.5)
        assert policy.backoff_delay("key", 1) == policy.backoff_delay("key", 1)
        assert policy.backoff_delay("key", 1) != policy.backoff_delay("other", 1)


class TestFailedRun:
    def test_as_dict_carries_key_and_status(self):
        failed = FailedRun(key=KEY, error_type="ValueError", message="boom",
                           attempts=2, elapsed=0.5)
        data = failed.as_dict()
        assert data["status"] == "failed"
        assert data["algorithm"] == "lloyd"
        assert data["dataset"] == "toy"
        assert RunKey.from_record(data) == KEY

    def test_is_failed_record_discriminates(self):
        failed = FailedRun(key=KEY, error_type="E", message="m", attempts=1,
                           elapsed=0.0)
        assert is_failed_record(failed)
        assert is_failed_record(failed.as_dict())
        assert not is_failed_record({"algorithm": "lloyd"})
        assert not is_failed_record(object())

    def test_to_exception_maps_error_types(self):
        def make(error_type):
            return FailedRun(key=KEY, error_type=error_type, message="m",
                             attempts=1, elapsed=0.0).to_exception()

        assert isinstance(make("RunTimeoutError"), RunTimeoutError)
        assert isinstance(make("WorkerCrashError"), WorkerCrashError)


class TestSupervisedMap:
    def test_maps_in_order(self):
        results = supervised_map(_double, [1, 2, 3], _keys(3), max_workers=2)
        assert results == [2, 4, 6]

    def test_empty_input(self):
        assert supervised_map(_double, [], []) == []

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValidationError):
            supervised_map(_double, [1], _keys(2))

    def test_terminal_error_degrades_to_failed_run(self):
        results = supervised_map(_fail_always, [7], _keys(1))
        (failed,) = results
        assert isinstance(failed, FailedRun)
        assert failed.error_type == "ValueError"
        assert "boom on 7" in failed.message
        assert failed.attempts == 1

    def test_transient_exhausts_retries(self):
        policy = ExecutionPolicy(retries=2, backoff_base=0.001)
        (failed,) = supervised_map(
            _fail_transiently_forever, [0], _keys(1), policy=policy
        )
        assert isinstance(failed, FailedRun)
        assert failed.error_type == "TransientError"
        assert failed.attempts == 3  # 1 initial + 2 retries

    def test_hang_is_killed_at_deadline(self):
        policy = ExecutionPolicy(timeout=0.5)
        start = time.monotonic()
        (failed,) = supervised_map(_hang, [0], _keys(1), policy=policy)
        elapsed = time.monotonic() - start
        assert isinstance(failed, FailedRun)
        assert failed.error_type == "RunTimeoutError"
        assert elapsed < 10.0  # killed, not waited out

    def test_killed_worker_does_not_break_pool(self):
        keys = _keys(2)
        results = supervised_map(
            _exit_hard, [0], [keys[0]],
        ) + supervised_map(_double, [5], [keys[1]])
        assert isinstance(results[0], FailedRun)
        assert results[0].error_type == "WorkerCrashError"
        assert results[1] == 10

    def test_concurrent_batch_preserves_input_order(self):
        results = supervised_map(_double, [1, 2, 3, 4], _keys(4), max_workers=4)
        assert results == [2, 4, 6, 8]


def _sleep_quarter(item, attempt):
    time.sleep(0.25)
    return item


def _return_none(item, attempt):
    return None


class TestMaxTotalTime:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValidationError):
            ExecutionPolicy(max_total_time=0.0)
        with pytest.raises(ValidationError):
            ExecutionPolicy(max_total_time=-1.0)

    def test_batch_deadline_fails_unfinished_items(self):
        # One worker at a time, each sleeping 0.25s, a 0.4s batch budget:
        # the first item lands, later ones must fail with RunTimeoutError —
        # and the policy guarantees a fully-settled list either way.
        policy = ExecutionPolicy(max_total_time=0.4)
        results = supervised_map(
            _sleep_quarter, [1, 2, 3, 4], _keys(4), policy=policy, max_workers=1
        )
        assert len(results) == 4
        failed = [r for r in results if isinstance(r, FailedRun)]
        assert failed, "batch budget must expire before 4 x 0.25s on one worker"
        assert all(f.error_type == "RunTimeoutError" for f in failed)
        assert all("max_total_time" in f.message for f in failed)
        ok = [r for r in results if not isinstance(r, FailedRun)]
        assert ok, "first item should finish within the budget"

    def test_generous_budget_changes_nothing(self):
        policy = ExecutionPolicy(max_total_time=120.0)
        assert supervised_map(_double, [1, 2, 3], _keys(3), policy=policy) == [2, 4, 6]

    def test_no_retry_grant_past_deadline(self):
        # A transient failure whose backoff would land beyond the batch
        # deadline is not retried: the item fails instead of overshooting.
        policy = ExecutionPolicy(
            retries=5, backoff_base=10.0, max_total_time=1.0
        )
        (failed,) = supervised_map(
            _fail_transiently_forever, [0], _keys(1), policy=policy
        )
        assert isinstance(failed, FailedRun)
        assert failed.error_type == "TransientError"
        assert failed.attempts == 1


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
