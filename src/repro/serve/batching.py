"""Micro-batching front end for the serving hot path.

Concurrent callers submit small queries; a single worker thread coalesces
whatever is pending into one vectorized :meth:`Predictor.predict` call.
The worker never lingers: as soon as it is free it takes up to
``max_batch`` queued requests and serves them, so an idle server answers
a lone request at once, and under load the next batch is whatever queued
while the previous kernel call ran.  Batching amortizes the per-call
kernel overhead — ``TestServingPerformance`` in
``tests/test_backend_conformance.py`` gates the batched path at ≥5x over
the per-point loop on the 20k×16 smoke workload.

Failure semantics follow ``repro.eval.runtime``: a request never takes
the server down.  Each request carries an optional *deadline*; a request
whose deadline passes before its batch runs — or whose batch raises — is
degraded to a structured :class:`FailedRequest` (``status="failed"``,
the same discriminator as :class:`~repro.eval.runtime.FailedRun`) that
the caller receives in place of labels.  One poisoned request cannot fail
its batchmates: the worker degrades the whole batch only when the shared
kernel call itself raises, and classified per-request problems (deadline
expiry) are filtered out before the kernel runs.

Threading model: all mutable state lives on the :class:`MicroBatcher`
instance (the ``BackendManager`` idiom — no module globals, so the R007
parallel-safety rule has nothing to flag), and the worker is a
module-level function dispatched via ``Thread(target=_batch_worker)``;
R007 discovers such thread targets as dispatch roots and checks them like
any pool kernel.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.common import FAILED_STATUS
from repro.common.exceptions import ValidationError
from repro.serve.predictor import Predictor


@dataclass
class FailedRequest:
    """Structured degradation record for one failed serving request.

    Mirrors :class:`~repro.eval.runtime.FailedRun`: ``status="failed"``
    is the discriminator, ``error_type`` is the classified exception
    class name (``DeadlineExceededError`` for expiry), and the caller
    decides whether to retry, drop, or raise.
    """

    request_id: int
    error_type: str
    message: str
    elapsed: float
    status: str = FAILED_STATUS

    def as_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "status": self.status,
            "error_type": self.error_type,
            "message": self.message,
            "elapsed": self.elapsed,
        }


class Ticket:
    """Handle for one submitted request; resolved by the batch worker."""

    def __init__(self, request_id: int, points: np.ndarray,
                 deadline: Optional[float]) -> None:
        self.request_id = request_id
        self.points = points
        self.deadline = deadline
        self.submitted = time.perf_counter()
        self._done = threading.Event()
        self._outcome: Union[np.ndarray, FailedRequest, None] = None

    def _resolve(self, outcome: Union[np.ndarray, FailedRequest]) -> None:
        self._outcome = outcome
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None
               ) -> Union[np.ndarray, FailedRequest]:
        """Block until resolved: label array, or a :class:`FailedRequest`.

        Degradation, not exception — the caller inspects ``status`` like
        a harness consumer inspects a failed cell.  ``timeout`` guards the
        wait itself (e.g. a closed batcher) and degrades to a
        ``FailedRequest`` rather than hanging forever.
        """
        if not self._done.wait(timeout):
            return FailedRequest(
                request_id=self.request_id,
                error_type="RunTimeoutError",
                message=f"result not available within {timeout}s",
                elapsed=time.perf_counter() - self.submitted,
            )
        assert self._outcome is not None
        return self._outcome


def _batch_worker(batcher: "MicroBatcher") -> None:
    """Worker loop: take what is queued, serve it, resolve, repeat.

    Module-level so R007 can treat it as a dispatch root; all state it
    touches belongs to the batcher instance it is handed.
    """
    while True:
        batch = batcher._collect_batch()
        if batch is None:
            return
        batcher._serve_batch(batch)


class MicroBatcher:
    """Coalesces concurrent serving requests into vectorized kernel calls.

    Usage::

        with MicroBatcher(predictor, max_batch=256) as mb:
            ticket = mb.submit(points, deadline=0.5)
            labels = ticket.result()        # ndarray, or FailedRequest

    A batch is every request queued when the worker comes free, up to
    ``max_batch`` of them (a single oversized submit is still served
    whole — the predictor chunks internally).  The worker does not wait
    for batchmates.
    """

    def __init__(
        self,
        predictor: Predictor,
        *,
        max_batch: int = 256,
    ) -> None:
        if max_batch <= 0:
            raise ValidationError(f"max_batch must be > 0, got {max_batch}")
        self.predictor = predictor
        self.max_batch = int(max_batch)
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._queue: List[Ticket] = []
        self._closed = False
        self._next_id = 0
        #: observability: requests/points accepted, kernel batches run,
        #: requests degraded (deadline or batch failure)
        self.stats: Dict[str, int] = {
            "requests": 0, "points": 0, "batches": 0, "failed": 0,
        }
        self._worker = threading.Thread(
            target=_batch_worker, args=(self,), name="repro-serve-batcher",
            daemon=True,
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Client side.
    # ------------------------------------------------------------------

    def submit(self, points: np.ndarray,
               deadline: Optional[float] = None) -> Ticket:
        """Enqueue one request (``(d,)`` or ``(m, d)``); returns its ticket.

        ``deadline`` is a per-request budget in seconds from submission;
        a request still queued when it expires degrades to a
        :class:`FailedRequest` instead of occupying the batch.
        """
        if deadline is not None and deadline <= 0:
            raise ValidationError(f"deadline must be > 0 (or None), got {deadline}")
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[1] != self.predictor.d:
            raise ValidationError(
                f"request points have shape {points.shape}, expected "
                f"(m, {self.predictor.d})"
            )
        with self._has_work:
            if self._closed:
                raise ValidationError("submit on a closed MicroBatcher")
            ticket = Ticket(self._next_id, points, deadline)
            self._next_id += 1
            self._queue.append(ticket)
            self.stats["requests"] += 1
            self.stats["points"] += points.shape[0]
            self._has_work.notify()
        return ticket

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop accepting requests, drain the queue, join the worker."""
        with self._has_work:
            if self._closed:
                return
            self._closed = True
            self._has_work.notify()
        self._worker.join(timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Worker side.
    # ------------------------------------------------------------------

    def _collect_batch(self) -> Optional[List[Ticket]]:
        """Next batch; ``None`` means shut down (queue drained).

        Blocks until a request is pending or :meth:`close` is called
        (``submit`` and ``close`` both notify), then takes up to
        ``max_batch`` queued requests at once.
        """
        with self._has_work:
            while not self._queue and not self._closed:
                self._has_work.wait()
            if not self._queue:
                return None  # closed and drained
            batch = self._queue[: self.max_batch]
            del self._queue[: self.max_batch]
        return batch

    def _serve_batch(self, batch: List[Ticket]) -> None:
        """One kernel call for the whole batch; degrade, never crash.

        Expired requests are resolved to ``FailedRequest`` *before* the
        kernel runs, so a stale deadline cannot waste batch capacity; a
        kernel-level failure degrades every request of the batch with the
        classified error type.
        """
        now = time.perf_counter()
        live: List[Ticket] = []
        for ticket in batch:
            if ticket.deadline is not None and \
                    now - ticket.submitted > ticket.deadline:
                ticket._resolve(FailedRequest(
                    request_id=ticket.request_id,
                    error_type="DeadlineExceededError",
                    message=(
                        f"deadline of {ticket.deadline}s passed before the "
                        "batch executed"
                    ),
                    elapsed=now - ticket.submitted,
                ))
                self.stats["failed"] += 1
            else:
                live.append(ticket)
        if not live:
            return
        stacked = np.concatenate([ticket.points for ticket in live], axis=0)
        try:
            labels = self.predictor.predict(stacked)
        except Exception as exc:
            elapsed = time.perf_counter() - now
            for ticket in live:
                ticket._resolve(FailedRequest(
                    request_id=ticket.request_id,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    elapsed=elapsed,
                ))
                self.stats["failed"] += 1
            return
        self.stats["batches"] += 1
        offset = 0
        for ticket in live:
            m = ticket.points.shape[0]
            ticket._resolve(labels[offset:offset + m])
            offset += m


__all__ = ["FailedRequest", "MicroBatcher", "Ticket"]
