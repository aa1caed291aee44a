"""Fault-tolerant execution runtime for the evaluation harness.

The paper's protocol (Section 7.1) averages every (algorithm, dataset, k)
cell over ten k-means++ seeds, and UTune trains on the accumulated offline
logs (Section 6) — so a multi-hour sweep must *degrade*, not die, when one
cell hangs or crashes.  This module supplies the machinery:

* :class:`RunKey` — the identity of one harness cell
  ``(algorithm, dataset, n, d, k, seed, max_iter)``.  Because the run key
  pins the k-means++ seeds, re-running a cell (resume) reproduces it
  bit-for-bit, and a cell that raised raises again; the key doubles as
  the checkpoint/resume dedup index in
  :class:`repro.eval.logdb.EvaluationLog`.
* :class:`FailedRun` — the structured record a failed cell degrades into.
  It carries the run key, error class, message, and elapsed time, and
  serializes next to successful records so downstream consumers
  (leaderboard, tables, UTune training) can recognise and skip it.
* :func:`supervised_map` — a process-pool replacement that survives what
  ``concurrent.futures`` cannot: a hung worker is killed at its
  ``timeout`` (``RunTimeoutError``), a dead worker (signal/``os._exit``)
  is detected (``WorkerCrashError``), and any failure becomes a
  :class:`FailedRun` while the remaining tasks keep running.

The failure taxonomy and the resume keying are documented in
``docs/robustness.md``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.common import FAILED_STATUS
from repro.common.blas import available_cores
from repro.common.exceptions import ValidationError

#: the fields that identify one harness cell; together they pin the
#: k-means++ initializations, so equal keys imply bit-identical reruns
RUN_KEY_FIELDS = ("algorithm", "dataset", "n", "d", "k", "seed", "max_iter")

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


def _default_context():
    """The project-wide worker start method.

    fork keeps the parent's loaded dataset pages shared and is the cheap,
    deterministic default on POSIX; spawn is the portable fallback.
    """
    methods = get_all_start_methods()
    return get_context("fork" if "fork" in methods else "spawn")


def _child_main(conn, fn: Callable[[Any], Any], item: Any) -> None:
    """Worker entry: run one item and report exactly one message."""
    try:
        outcome: Tuple = ("ok", fn(item))
    except BaseException as exc:  # the process boundary reports, never hides
        outcome = ("error", type(exc).__name__, str(exc))
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
    start: float = 0.0
    deadline: Optional[float] = None
    proc: Any = None
    conn: Any = None


def _reap(task: _Task) -> None:
    """Tear down a task's process and pipe: SIGTERM with a grace period,
    then SIGKILL."""
    proc = task.proc
    if proc is not None and proc.is_alive():
        proc.terminate()
        proc.join(1.0)
        if proc.is_alive():
            proc.kill()
            proc.join(1.0)
    if task.conn is not None:
        task.conn.close()
    task.proc = None
    task.conn = None


def supervised_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    keys: Sequence[RunKey],
    *,
    timeout: Optional[float] = None,
    max_workers: Optional[int] = None,
) -> List[Union[Any, FailedRun]]:
    """Run ``fn(item)`` for every item in supervised worker processes;
    failures degrade to :class:`FailedRun` entries in place.

    Unlike ``ProcessPoolExecutor.map``, a worker still running
    ``timeout`` seconds after it started is killed (``RunTimeoutError``),
    a crashed worker does not break the pool (``WorkerCrashError``), and
    an exception raised by ``fn`` is recorded under its class name.  No
    failure is retried: a cell is pinned by its run key, so it would fail
    the same way again.  Results come back in input order.

    Invariant: every slot of the returned list is either ``fn``'s result
    for that item or a :class:`FailedRun` — never an unfinished
    placeholder.  If the supervisor loop itself dies (signal, bug,
    ``KeyboardInterrupt``), the ``finally`` path reaps the workers and
    converts every still-pending slot to
    ``FailedRun(error_type="SupervisorAborted")`` before the exception
    propagates, so callers that catch it still see a fully-settled list
    (a worker returning ``None`` is a *result*, not a placeholder).
    """
    if timeout is not None and timeout <= 0:
        raise ValidationError(f"timeout must be > 0 (or None), got {timeout}")
    if max_workers is not None and max_workers < 1:
        raise ValidationError(f"max_workers must be >= 1, got {max_workers}")
    items = list(items)
    keys = list(keys)
    if len(items) != len(keys):
        raise ValidationError(f"{len(items)} items but {len(keys)} run keys")
    if not items:
        return []
    ctx = _default_context()
    workers = max_workers or min(len(items), available_cores())
    results: List[Union[Any, FailedRun]] = [_PENDING] * len(items)
    tasks = [
        _Task(index=i, item=item, key=key)
        for i, (item, key) in enumerate(zip(items, keys))
    ]
    waiting = deque(tasks)
    running: List[_Task] = []
    batch_start = time.monotonic()

    def fail(task: _Task, error_type: str, message: str) -> None:
        results[task.index] = FailedRun(
            key=task.key,
            error_type=error_type,
            message=message,
            elapsed=time.monotonic() - (task.start or batch_start),
        )

    try:
        while waiting or running:
            while waiting and len(running) < workers:
                task = waiting.popleft()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_child_main,
                    args=(child_conn, fn, task.item),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                task.start = time.monotonic()
                task.deadline = None if timeout is None else task.start + timeout
                task.proc, task.conn = proc, parent_conn
                running.append(task)
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
                        fail(task, "WorkerCrashError",
                             "worker died before reporting a result")
                    elif message[0] == "ok":
                        results[task.index] = message[1]
                    else:
                        fail(task, message[1], message[2])
                elif task.deadline is not None and time.monotonic() >= task.deadline:
                    _reap(task)
                    finished.append(task)
                    fail(task, "RunTimeoutError",
                         f"exceeded the {timeout:.3g}s wall-clock budget")
                elif not task.proc.is_alive() and not task.conn.poll(0):
                    # Died without a message (signal / os._exit); a racy
                    # final send would have satisfied poll(0) above.
                    exitcode = task.proc.exitcode
                    _reap(task)
                    finished.append(task)
                    fail(task, "WorkerCrashError",
                         f"worker exited with code {exitcode} before reporting")
            if finished:
                running = [task for task in running if task not in finished]
    finally:
        for task in running:
            _reap(task)
        # The no-placeholder invariant (docstring): if the loop above
        # died mid-batch, settle every still-pending slot so callers never
        # see an unfinished placeholder.
        for task in tasks:
            if results[task.index] is _PENDING:
                fail(task, "SupervisorAborted",
                     "supervisor aborted before this item finished")
    return results
