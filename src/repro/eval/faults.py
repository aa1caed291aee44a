"""Deterministic fault injection for the evaluation runtime (chaos mode).

Recovery code that is never exercised is broken code.  A
:class:`FaultPlan` injects failures *deterministically* — every trigger
decision is a pure function of the plan, the :class:`RunKey`, and the
attempt number — so chaos campaigns are exactly reproducible and the
tier-1 suite can assert on precise recovery behavior.

Fault kinds
-----------
``transient``
    Raise :class:`~repro.common.exceptions.TransientError` on the first
    ``times`` attempts; the runtime's retry/backoff path must recover.
``raise``
    Raise :class:`InjectedFaultError` (deterministic, non-retryable by
    classification) on every attempt — the cell must degrade to a
    :class:`~repro.eval.runtime.FailedRun`.
``hang``
    Sleep forever; the supervisor must kill the worker at its deadline.
``kill``
    ``os._exit`` without reporting — simulates an OOM-killed worker; the
    pool must survive.
``delay``
    Sleep ``seconds`` then run normally (latency, not failure).
``corrupt``
    Marker consumed by log-level chaos (truncating the JSONL tail via
    :func:`corrupt_jsonl_tail`); a no-op inside workers.

Plans parse from compact CLI specs (``repro bench --inject-faults``), e.g.
``"transient:hamerly:1,hang:lloyd,kill:elkan"`` or a seeded random mode
``"rate:0.2,seed=7"`` that transiently fails a deterministic 20% of
(key, attempt) draws.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.common.exceptions import ReproError, TransientError, ValidationError
from repro.eval.runtime import RunKey

FAULT_KINDS = ("transient", "raise", "hang", "kill", "delay", "corrupt")

#: exit code used by ``kill`` faults so tests can recognise the simulation
KILL_EXIT_CODE = 97


class InjectedFaultError(ReproError):
    """A deliberately injected, deterministic (non-transient) failure."""


@dataclass(frozen=True)
class Fault:
    """One injection rule: what to do, which runs it hits, how often."""

    kind: str
    match: str = "*"
    #: attempts that trigger (1-based); None means every attempt
    times: Optional[int] = None
    #: sleep length for ``delay`` faults
    seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.times is not None and self.times < 1:
            raise ValidationError(f"fault times must be >= 1, got {self.times}")

    def matches(self, key: RunKey) -> bool:
        return self.match == "*" or self.match == key.algorithm or self.match in str(key)

    def triggers(self, attempt: int) -> bool:
        return self.times is None or attempt <= self.times


@dataclass(frozen=True)
class FaultPlan:
    """A picklable, deterministic set of injection rules.

    ``rate`` adds seeded pseudo-random transient failures on top of the
    explicit rules: a (key, attempt) pair fails iff its CRC32 draw under
    ``seed`` falls below ``rate`` — the same pairs fail on every replay.
    """

    faults: Tuple[Fault, ...] = ()
    rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValidationError(f"fault rate must lie in [0, 1], got {self.rate}")

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a CLI spec: comma-separated ``kind:match[:arg]`` items.

        The third field is ``times`` for transient/raise faults and
        ``seconds`` for delay faults; an item with more fields, or with a
        ``key=value`` field, is a :class:`ValidationError` rather than a
        rule that silently never fires.  ``rate:<p>`` and ``seed:<s>``
        items configure the pseudo-random mode.  Example::

            transient:hamerly:2,hang:lloyd,raise:elkan,rate:0.1
        """
        faults: List[Fault] = []
        rate = 0.0
        seed = 0
        for raw in spec.split(","):
            item = raw.strip()
            if not item:
                continue
            parts = [p.strip() for p in item.split(":")]
            head = parts[0].lower()
            try:
                if head == "rate":
                    rate = float(parts[1])
                elif head == "seed":
                    seed = int(parts[1])
                else:
                    faults.append(cls._parse_fault(head, parts[1:]))
            except (IndexError, TypeError, ValueError) as exc:
                if isinstance(exc, ValidationError):
                    raise
                raise ValidationError(f"malformed fault item {item!r}: {exc}") from exc
        return cls(faults=tuple(faults), rate=rate, seed=seed)

    @staticmethod
    def _parse_fault(kind: str, args: List[str]) -> Fault:
        if len(args) > 2 or any("=" in part for part in args):
            raise ValidationError(
                f"fault items are kind[:match[:arg]], got "
                f"{':'.join([kind, *args])!r}"
            )
        match = args[0] if args and args[0] else "*"
        arg = args[1] if len(args) > 1 else None
        if kind == "delay":
            return Fault(kind=kind, match=match,
                         seconds=float(arg) if arg is not None else 0.05)
        if kind == "transient":
            return Fault(kind=kind, match=match,
                         times=int(arg) if arg is not None else 1)
        if kind == "raise":
            return Fault(kind=kind, match=match,
                         times=int(arg) if arg is not None else None)
        return Fault(kind=kind, match=match)

    # ------------------------------------------------------------------
    # Injection (runs inside worker processes — must stay deterministic).
    # ------------------------------------------------------------------

    def for_key(self, key: RunKey) -> List[Fault]:
        return [fault for fault in self.faults if fault.matches(key)]

    def rate_triggers(self, key: RunKey, attempt: int) -> bool:
        if self.rate <= 0.0:
            return False
        draw = zlib.crc32(f"{self.seed}:{key}:{attempt}".encode()) % 100_000
        return draw < self.rate * 100_000

    def apply(self, key: RunKey, attempt: int) -> None:
        """Trigger the matching faults for ``(key, attempt)``, if any.

        Called by the harness worker before the actual run; raises, sleeps,
        or exits according to the plan.  ``corrupt`` faults are log-level
        and ignored here.
        """
        for fault in self.for_key(key):
            if not fault.triggers(attempt):
                continue
            if fault.kind == "delay":
                time.sleep(fault.seconds)
            elif fault.kind == "transient":
                raise TransientError(
                    f"injected transient fault for {key} (attempt {attempt})"
                )
            elif fault.kind == "raise":
                raise InjectedFaultError(f"injected deterministic fault for {key}")
            elif fault.kind == "hang":
                while True:  # the supervisor must kill us
                    time.sleep(60.0)
            elif fault.kind == "kill":
                os._exit(KILL_EXIT_CODE)
        if self.rate_triggers(key, attempt):
            raise TransientError(
                f"injected random transient fault for {key} (attempt {attempt})"
            )

    def wants_log_corruption(self) -> bool:
        return any(fault.kind == "corrupt" for fault in self.faults)


def corrupt_jsonl_tail(path: Union[str, Path], drop_bytes: int = 7) -> int:
    """Simulate a crash mid-append: chop ``drop_bytes`` off the file tail.

    Returns the new size.  Used by chaos mode and the crash-recovery tests
    to produce exactly the truncated-final-line artifact that
    :func:`repro.datasets.loaders.read_jsonl` must quarantine.
    """
    path = Path(path)
    size = path.stat().st_size
    new_size = max(0, size - drop_bytes)
    with path.open("r+b") as handle:
        handle.truncate(new_size)
    return new_size
