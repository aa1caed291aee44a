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
    """One injection rule: what to do, which runs it hits, how often.

    ``shard`` and ``iteration`` narrow the rule to shard passes of the
    sharded execution engine (``repro.exec.sharded``): a constrained rule
    only fires through :meth:`FaultPlan.apply_shard` when the pass's
    shard rank / refinement iteration match, and never through the plain
    harness-level :meth:`FaultPlan.apply` path.
    """

    kind: str
    match: str = "*"
    #: attempts that trigger (1-based); None means every attempt
    times: Optional[int] = None
    #: sleep length for ``delay`` faults
    seconds: float = 0.05
    #: shard rank this rule targets; None means any shard
    shard: Optional[int] = None
    #: fit iteration this rule targets; None means any iteration
    iteration: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.times is not None and self.times < 1:
            raise ValidationError(f"fault times must be >= 1, got {self.times}")
        if self.shard is not None and self.shard < 0:
            raise ValidationError(f"fault shard must be >= 0, got {self.shard}")
        if self.iteration is not None and self.iteration < 0:
            raise ValidationError(
                f"fault iteration must be >= 0, got {self.iteration}"
            )

    def matches(self, key: RunKey) -> bool:
        return self.match == "*" or self.match == key.algorithm or self.match in str(key)

    def triggers(self, attempt: int) -> bool:
        return self.times is None or attempt <= self.times

    @property
    def shard_scoped(self) -> bool:
        """True when the rule only applies inside shard passes."""
        return self.shard is not None or self.iteration is not None

    def matches_shard(self, shard: int, iteration: int) -> bool:
        return (self.shard is None or self.shard == shard) and (
            self.iteration is None or self.iteration == iteration
        )


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
        """Parse a CLI spec: comma-separated ``kind:match[:arg][:k=v...]`` items.

        The third positional field is ``times`` for transient/raise faults
        and ``seconds`` for delay faults.  ``shard=N`` / ``iter=N`` parts
        scope a rule to one shard rank / fit iteration of the sharded
        engine (see :class:`Fault`).  ``rate:<p>`` and ``seed:<s>`` items
        configure the pseudo-random mode.  Example::

            transient:hamerly:2,hang:lloyd,raise:elkan:shard=1:iter=2,rate:0.1
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
        scope = {}
        positional: List[str] = []
        for part in args:
            if "=" in part:
                field, _, value = part.partition("=")
                field = field.strip().lower()
                if field == "iter":
                    field = "iteration"
                if field not in ("shard", "iteration"):
                    raise ValidationError(
                        f"unknown fault scope {field!r}; known: shard=, iter="
                    )
                scope[field] = int(value)
            else:
                positional.append(part)
        match = positional[0] if positional and positional[0] else "*"
        arg = positional[1] if len(positional) > 1 else None
        if kind == "delay":
            return Fault(kind=kind, match=match,
                         seconds=float(arg) if arg is not None else 0.05, **scope)
        if kind == "transient":
            return Fault(kind=kind, match=match,
                         times=int(arg) if arg is not None else 1, **scope)
        if kind == "raise":
            return Fault(kind=kind, match=match,
                         times=int(arg) if arg is not None else None, **scope)
        return Fault(kind=kind, match=match, **scope)

    # ------------------------------------------------------------------
    # Injection (runs inside worker processes — must stay deterministic).
    # ------------------------------------------------------------------

    def for_key(self, key: RunKey) -> List[Fault]:
        return [fault for fault in self.faults if fault.matches(key)]

    def rate_triggers(self, key: RunKey, attempt: int, scope: str = "") -> bool:
        if self.rate <= 0.0:
            return False
        draw = zlib.crc32(f"{self.seed}:{key}:{scope}{attempt}".encode()) % 100_000
        return draw < self.rate * 100_000

    @staticmethod
    def _execute(fault: Fault, where: str, attempt: int) -> None:
        """Carry out one triggered fault (raise, sleep, hang, or exit)."""
        if fault.kind == "delay":
            time.sleep(fault.seconds)
        elif fault.kind == "transient":
            raise TransientError(
                f"injected transient fault for {where} (attempt {attempt})"
            )
        elif fault.kind == "raise":
            raise InjectedFaultError(f"injected deterministic fault for {where}")
        elif fault.kind == "hang":
            while True:  # the supervisor must kill us
                time.sleep(60.0)
        elif fault.kind == "kill":
            os._exit(KILL_EXIT_CODE)

    def apply(self, key: RunKey, attempt: int) -> None:
        """Trigger the matching faults for ``(key, attempt)``, if any.

        Called by the harness worker before the actual run; raises, sleeps,
        or exits according to the plan.  ``corrupt`` faults are log-level
        and ignored here, and shard-scoped rules (``shard=``/``iter=``)
        only fire through :meth:`apply_shard`.
        """
        for fault in self.for_key(key):
            if fault.shard_scoped or not fault.triggers(attempt):
                continue
            self._execute(fault, str(key), attempt)
        if self.rate_triggers(key, attempt):
            raise TransientError(
                f"injected random transient fault for {key} (attempt {attempt})"
            )

    def apply_shard(
        self, key: RunKey, *, shard: int, iteration: int, attempt: int
    ) -> None:
        """Trigger matching faults inside one shard pass.

        Called by ``repro.exec.sharded``'s shard entry before the
        assignment kernel runs.  Every rule that matches the run key *and*
        the (shard, iteration) scope fires — unscoped rules hit every
        shard, so e.g. ``transient:lloyd`` exercises the retry path on all
        of them, while ``raise:lloyd:shard=1:iter=2`` is surgical.
        ``times`` counts per-(shard, iteration) attempts, which is exactly
        the shard runner's retry counter for that shard pass.  The
        engine refuses ``hang``/``kill`` rules at construction: they
        would wedge or kill the fitting process itself.
        """
        where = f"{key} shard {shard} iter {iteration}"
        for fault in self.for_key(key):
            if not fault.matches_shard(shard, iteration):
                continue
            if not fault.triggers(attempt):
                continue
            self._execute(fault, where, attempt)
        if self.rate_triggers(key, attempt, scope=f"shard{shard}@it{iteration}:"):
            raise TransientError(
                f"injected random transient fault for {where} (attempt {attempt})"
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
