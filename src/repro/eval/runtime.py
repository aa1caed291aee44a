"""Fault-tolerant execution runtime for the evaluation harness.

The paper's protocol (Section 7.1) averages every (algorithm, dataset, k)
cell over ten k-means++ seeds, and UTune trains on the accumulated offline
logs (Section 6) — so a multi-hour sweep must *degrade*, not die, when one
cell hangs or crashes.  This module supplies the machinery:

* :class:`RunKey` — the identity of one harness cell
  ``(algorithm, dataset, n, d, k, seed, max_iter)``.  Because the run key
  pins the k-means++ seeds, re-running a cell (retry or resume) reproduces
  it bit-for-bit; the key doubles as the checkpoint/resume dedup index in
  :class:`repro.eval.logdb.EvaluationLog`.
* :class:`ExecutionPolicy` — wall-clock timeout, retry budget, and
  exponential backoff with *deterministic* jitter (hashed from the run key
  and attempt number; no RNG state is touched, so the determinism contract
  holds even on the retry path).
* :class:`FailedRun` — the structured record a failed cell degrades into.
  It carries the run key, error class, message, attempt count, and elapsed
  time, and serializes next to successful records so downstream consumers
  (leaderboard, tables, UTune training) can recognise and skip it.
* :func:`supervised_map` — a process-pool replacement that survives what
  ``concurrent.futures`` cannot: a hung worker is killed at its deadline
  (``RunTimeoutError``), a dead worker (signal/``os._exit``) is detected
  (``WorkerCrashError``), a :class:`~repro.common.exceptions.TransientError`
  is retried with backoff, and any terminal failure becomes a
  :class:`FailedRun` while the remaining tasks keep running.

Failure taxonomy, retry semantics, and the resume keying are documented in
``docs/robustness.md``.
"""

from __future__ import annotations

import time
import zlib
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.common.blas import available_cores
from repro.common.exceptions import TransientError, ValidationError

#: the fields that identify one harness cell; together they pin the
#: k-means++ initializations, so equal keys imply bit-identical reruns
RUN_KEY_FIELDS = ("algorithm", "dataset", "n", "d", "k", "seed", "max_iter")

#: status literal stored on failed records in the evaluation log
FAILED_STATUS = "failed"

#: how often :func:`supervised_map` polls worker pipes and deadlines
#: (seconds)
_POLL_INTERVAL = 0.02

#: placeholder for a result slot whose task has not finished; distinct from
#: None so workers may legitimately return None (see supervised_map's
#: no-None-placeholder invariant)
_PENDING = object()


@dataclass(frozen=True)
class RunKey:
    """Identity of one harness run — the checkpoint/resume dedup key."""

    algorithm: str
    dataset: str
    n: int
    d: int
    k: int
    seed: int
    max_iter: int

    def as_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in RUN_KEY_FIELDS}

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> Optional["RunKey"]:
        """Reconstruct a key from a logged record; None when fields are
        missing or malformed (legacy records stay queryable, just not
        resumable)."""
        try:
            return cls(
                algorithm=str(record["algorithm"]),
                dataset=str(record.get("dataset", "")),
                n=int(record["n"]),
                d=int(record["d"]),
                k=int(record["k"]),
                seed=int(record.get("seed", 0)),
                max_iter=int(record.get("max_iter", 0)),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def __str__(self) -> str:
        where = self.dataset or "-"
        return (
            f"{self.algorithm}@{where}"
            f"(n={self.n},d={self.d},k={self.k},seed={self.seed},iters={self.max_iter})"
        )


@dataclass(frozen=True)
class ExecutionPolicy:
    """Timeout/retry/backoff contract for one batch of harness runs.

    ``retries`` is the number of *additional* attempts after the first, so
    a policy with ``retries=2`` runs a transiently-failing cell at most
    three times.  Backoff for attempt ``a`` is
    ``min(cap, base * 2**(a-1)) * (1 + jitter * u)`` where ``u`` in [0, 1)
    is hashed deterministically from the run key and attempt — repeated
    campaigns sleep identically, and no global RNG state is touched.

    ``max_total_time`` is a *batch-level* deadline: measured from the
    moment :func:`supervised_map` starts, no new attempt (first run or
    retry) is launched at or after the deadline, running workers are
    killed when it passes, and every unfinished item degrades to a
    ``RunTimeoutError`` :class:`FailedRun`.  This caps a retry storm
    across many cells at the campaign budget regardless
    of per-item ``timeout``/``retries`` settings.
    """

    timeout: Optional[float] = None
    retries: int = 0
    backoff_base: float = 0.05
    backoff_cap: float = 5.0
    jitter: float = 0.5
    retry_on_timeout: bool = False
    retry_on_crash: bool = False
    max_total_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValidationError(f"timeout must be > 0 (or None), got {self.timeout}")
        if self.max_total_time is not None and self.max_total_time <= 0:
            raise ValidationError(
                f"max_total_time must be > 0 (or None), got {self.max_total_time}"
            )
        if self.retries < 0:
            raise ValidationError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0 or self.jitter < 0:
            raise ValidationError("backoff_base, backoff_cap and jitter must be >= 0")

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Deterministic backoff before retry number ``attempt``."""
        base = min(self.backoff_cap, self.backoff_base * (2 ** max(0, attempt - 1)))
        draw = zlib.crc32(f"{key}#{attempt}".encode()) % 10_000 / 10_000.0
        return base * (1.0 + self.jitter * draw)


@dataclass
class FailedRun:
    """Structured degradation record for one failed harness cell.

    Serializes alongside successful :class:`~repro.eval.harness.RunRecord`
    entries (``status="failed"`` is the discriminator) so a campaign log
    stays a single JSONL stream and ``--resume`` can re-run exactly the
    failed keys.
    """

    key: RunKey
    error_type: str
    message: str
    attempts: int
    elapsed: float
    status: str = FAILED_STATUS

    @property
    def algorithm(self) -> str:
        return self.key.algorithm

    def as_dict(self) -> Dict[str, Any]:
        record = self.key.as_dict()
        record.update(
            status=self.status,
            error_type=self.error_type,
            message=self.message,
            attempts=self.attempts,
            elapsed=self.elapsed,
        )
        return record


def is_failed_record(record: Any) -> bool:
    """True for a :class:`FailedRun` (or dict) marking a failed cell."""
    if isinstance(record, Mapping):
        return record.get("status") == FAILED_STATUS
    return getattr(record, "status", None) == FAILED_STATUS


# ----------------------------------------------------------------------
# Process supervision.
# ----------------------------------------------------------------------


def default_mp_context():
    """The project-wide worker start method.

    fork keeps the parent's loaded dataset pages shared and is the cheap,
    deterministic default on POSIX; spawn is the portable fallback.
    """
    methods = get_all_start_methods()
    return get_context("fork" if "fork" in methods else "spawn")


_default_context = default_mp_context


def _child_main(conn, fn: Callable[[Any, int], Any], item: Any, attempt: int) -> None:
    """Worker entry: run one item and report exactly one message."""
    try:
        outcome: Tuple = ("ok", fn(item, attempt))
    except BaseException as exc:  # the process boundary reports, never hides
        outcome = ("error", type(exc).__name__, str(exc), isinstance(exc, TransientError))
    try:
        conn.send(outcome)
    finally:
        conn.close()


@dataclass
class _Task:
    """Supervisor bookkeeping for one in-flight item."""

    index: int
    item: Any
    key: RunKey
    attempt: int = 1
    first_start: float = 0.0
    deadline: Optional[float] = None
    not_before: float = 0.0
    proc: Any = None
    conn: Any = None


def terminate_process(proc, conn=None) -> None:
    """Tear down one worker process and its pipe (terminate, then kill).

    The escalation ladder :func:`supervised_map` uses: SIGTERM with a
    grace period, then SIGKILL.
    """
    if proc is not None and proc.is_alive():
        proc.terminate()
        proc.join(1.0)
        if proc.is_alive():
            proc.kill()
            proc.join(1.0)
    if conn is not None:
        conn.close()


def _reap(task: _Task) -> None:
    """Tear down a task's process and pipe (terminate, then kill)."""
    terminate_process(task.proc, task.conn)
    task.proc = None
    task.conn = None


def supervised_map(
    fn: Callable[[Any, int], Any],
    items: Sequence[Any],
    keys: Sequence[RunKey],
    *,
    policy: Optional[ExecutionPolicy] = None,
    max_workers: Optional[int] = None,
    mp_context=None,
) -> List[Union[Any, FailedRun]]:
    """Run ``fn(item, attempt)`` for every item in supervised worker
    processes; failures degrade to :class:`FailedRun` entries in place.

    Unlike ``ProcessPoolExecutor.map``, a hung worker is killed at its
    deadline, a crashed worker does not break the pool, and
    :class:`TransientError` failures are retried per ``policy`` — each
    retry re-runs the *same* item, so successful results are identical to
    a failure-free run.  ``policy.max_total_time`` additionally bounds the
    whole batch: when it expires, running workers are killed and every
    unfinished item fails with ``RunTimeoutError``.

    Invariant: every slot of the returned list is either ``fn``'s result
    for that item or a :class:`FailedRun` — never an unfinished
    placeholder.  If the supervisor loop itself dies (signal, bug,
    ``KeyboardInterrupt``), the ``finally`` path reaps the workers and
    converts every still-pending slot to
    ``FailedRun(error_type="SupervisorAborted")`` before the exception
    propagates, so callers that catch it still see a fully-settled list
    (a worker returning ``None`` is a *result*, not a placeholder).
    """
    policy = policy or ExecutionPolicy()
    items = list(items)
    keys = list(keys)
    if len(items) != len(keys):
        raise ValidationError(f"{len(items)} items but {len(keys)} run keys")
    if not items:
        return []
    ctx = mp_context or _default_context()
    workers = max(1, max_workers or min(len(items), available_cores()))
    results: List[Union[Any, FailedRun]] = [_PENDING] * len(items)
    tasks = [
        _Task(index=i, item=item, key=key)
        for i, (item, key) in enumerate(zip(items, keys))
    ]
    ready_queue = deque(tasks)
    backoff_wait: List[_Task] = []
    running: List[_Task] = []
    batch_start = time.monotonic()
    batch_deadline = (
        None if policy.max_total_time is None else batch_start + policy.max_total_time
    )

    def settle(task: _Task, error_type: str, message: str, retryable: bool) -> None:
        """Retry the task if the policy allows, else record a FailedRun."""
        if retryable and task.attempt <= policy.retries:
            not_before = time.monotonic() + policy.backoff_delay(
                str(task.key), task.attempt
            )
            # A retry that could not start before the batch deadline is a
            # failure now, not a zombie in the backoff queue.
            if batch_deadline is None or not_before < batch_deadline:
                task.not_before = not_before
                task.attempt += 1
                backoff_wait.append(task)
                return
        results[task.index] = FailedRun(
            key=task.key,
            error_type=error_type,
            message=message,
            attempts=task.attempt,
            elapsed=time.monotonic() - (task.first_start or batch_start),
        )

    def expire_batch() -> None:
        """Batch deadline passed: kill workers, fail all unfinished items."""
        message = (
            f"batch exceeded the {policy.max_total_time:.3g}s "
            "max_total_time budget"
        )
        for task in list(running):
            _reap(task)
        running.clear()
        ready_queue.clear()
        backoff_wait.clear()
        for task in tasks:
            if results[task.index] is _PENDING:
                results[task.index] = FailedRun(
                    key=task.key,
                    error_type="RunTimeoutError",
                    message=message,
                    attempts=task.attempt,
                    elapsed=time.monotonic() - (task.first_start or batch_start),
                )

    try:
        while ready_queue or backoff_wait or running:
            now = time.monotonic()
            if batch_deadline is not None and now >= batch_deadline:
                expire_batch()
                break
            for task in [t for t in backoff_wait if t.not_before <= now]:
                backoff_wait.remove(task)
                ready_queue.append(task)
            while ready_queue and len(running) < workers:
                task = ready_queue.popleft()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_child_main,
                    args=(child_conn, fn, task.item, task.attempt),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                started = time.monotonic()
                if not task.first_start:
                    task.first_start = started
                task.deadline = (
                    None if policy.timeout is None else started + policy.timeout
                )
                task.proc, task.conn = proc, parent_conn
                running.append(task)
            if not running:
                soonest = min(task.not_before for task in backoff_wait)
                time.sleep(max(0.0, min(soonest - time.monotonic(), _POLL_INTERVAL)))
                continue
            ready = _wait_connections(
                [task.conn for task in running], timeout=_POLL_INTERVAL
            )
            finished: List[_Task] = []
            for task in running:
                if task.conn in ready:
                    try:
                        message = task.conn.recv()
                    except (EOFError, OSError):
                        message = None
                    _reap(task)
                    finished.append(task)
                    if message is None:
                        settle(
                            task,
                            "WorkerCrashError",
                            "worker died before reporting a result",
                            policy.retry_on_crash,
                        )
                    elif message[0] == "ok":
                        results[task.index] = message[1]
                    else:
                        _, error_type, text, transient = message
                        settle(task, error_type, text, transient)
                elif task.deadline is not None and time.monotonic() >= task.deadline:
                    _reap(task)
                    finished.append(task)
                    settle(
                        task,
                        "RunTimeoutError",
                        f"exceeded the {policy.timeout:.3g}s wall-clock budget",
                        policy.retry_on_timeout,
                    )
                elif not task.proc.is_alive() and not task.conn.poll(0):
                    # Died without a message (signal / os._exit); a racy
                    # final send would have satisfied poll(0) above.
                    exitcode = task.proc.exitcode
                    _reap(task)
                    finished.append(task)
                    settle(
                        task,
                        "WorkerCrashError",
                        f"worker exited with code {exitcode} before reporting",
                        policy.retry_on_crash,
                    )
            if finished:
                running = [task for task in running if task not in finished]
    finally:
        for task in running:
            _reap(task)
        # The no-None-placeholder invariant (docstring): if the loop above
        # died mid-batch, settle every still-pending slot so callers never
        # see an unfinished placeholder.
        for task in tasks:
            if results[task.index] is _PENDING:
                results[task.index] = FailedRun(
                    key=task.key,
                    error_type="SupervisorAborted",
                    message="supervisor aborted before this item finished",
                    attempts=task.attempt,
                    elapsed=time.monotonic() - (task.first_start or batch_start),
                )
    return results
