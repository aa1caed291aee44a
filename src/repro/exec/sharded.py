"""Fault-tolerant sharded data-parallel execution of the assignment phase.

The paper's Table 3 premise — assignment dominates k-means cost — makes the
assignment pass the one phase worth parallelizing.  This engine splits the
point set into contiguous *shards* and runs the row-subset assignment
kernels of :mod:`repro.core.vectorized` concurrently, merging per-shard
results in fixed shard-rank order so the fitted model is
**bit-identical** to the single-process vectorized backend regardless of
shard completion order.

Runner
------
Each shard runs its algorithm's ``_assign_shard`` on a thread, one per
shard, capped at ``os.cpu_count()``.  That method calls the row kernels
of :mod:`repro.core.vectorized` directly on ``X[lo:hi]`` and the shard's
slices of the fit's own state arrays.  The kernels spend their time in
NumPy calls that release the GIL, and the point matrix is shared by
reference, so per-iteration communication is the O(k·d) centroid
broadcast with no IPC at all.  A thread cannot be killed, so
``kill``/``hang`` faults and a set ``ExecutionPolicy.timeout`` are
refused at construction; the batch's ``max_total_time`` is the deadline
the engine honours.

Determinism contract
--------------------
Three disciplines carry the bit-identity guarantee:

1. *Row-subset invariant kernels.*  Per-point assignment decisions of
   Lloyd/Elkan/Hamerly are independent across points, so a kernel run on
   ``X[lo:hi]`` produces exactly rows ``[lo, hi)`` of the full-matrix pass
   (see the kernel section of :mod:`repro.core.vectorized`).
2. *Rank-order merge.*  Shards own disjoint row ranges of the shared
   state, counters merge in shard-rank order (integer accumulation), and
   the ``rescan`` refinement fold goes through
   :func:`repro.core.refinement.merge_shard_assignments` — one
   scatter-add over the full matrix, never a sum of per-shard partial
   sums (float addition is not associative; the docstring there holds a
   concrete counterexample).
3. *Supervisor-side centroid context.*  Centroid-level work
   (``centroid_separations``) is computed — and charged — once in the
   supervisor and broadcast to every shard, so OpCounters totals also
   match the single-process pass exactly.

Failure handling
----------------
Shard passes inherit the robustness runtime:
:class:`~repro.common.exceptions.TransientError` retries with
deterministic CRC32 backoff and the batch's ``max_total_time`` deadline.
What happens when a shard fails *terminally* is the
:class:`ShardFailurePolicy`:

``strict``
    Raise :class:`~repro.common.exceptions.ShardFailedError` carrying the
    shard rank, iteration, and classified error type.
``recompute``
    Re-run each lost shard's pass on the calling thread against the
    shared state — bit-identical recovery, guarded by the *epoch
    protocol* below.
``degrade``
    Finish the iteration from the surviving shards; lost shards keep
    their previous (stale) labels and bounds — still *sound* bounds, so
    the bound-based algorithms self-correct on the next successful pass —
    and the iteration is annotated with a structured
    :class:`DegradedIteration` record naming the affected point ranges.

Epoch protocol
~~~~~~~~~~~~~~
Because shard kernels mutate shared state in place, a kernel that raises
*mid-write* could leave its slice torn.  Each shard pass brackets its
kernel with writes to a per-shard epoch slot: ``-(iteration + 2)`` before
the kernel, ``iteration`` after its writes.  Injected faults
(:meth:`~repro.eval.faults.FaultPlan.apply_shard`) fire *before* the
dirty mark, so chaos recovery always sees clean state and stays
bit-identical.  A genuinely torn slice (``epoch <= -2``) makes
``recompute`` of a state-*reading* pass raise
``ShardFailedError(error_type="ShardStateCorrupted")`` instead of
recomputing from corrupt inputs, and makes ``degrade`` mark the shard
stateless so its next pass reseeds from scratch.

Checkpointing: pass ``checkpoint=<path>`` to durably record each
iteration's post-assignment state (:mod:`repro.exec.checkpoint`); an
interrupted fit re-run with the same inputs replays the stored prefix and
resumes live, reproducing the identical final model.

See docs/sharding.md for the policy decision table.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.distance import sq_norms
from repro.common.exceptions import (
    ConfigurationError,
    ShardFailedError,
    TransientError,
    ValidationError,
)
from repro.core.refinement import merge_shard_assignments
from repro.core.vectorized import (
    VectorizedElkanKMeans,
    VectorizedHamerlyKMeans,
    VectorizedLloydKMeans,
    elkan_assign_rows,
    elkan_seed_rows,
    hamerly_assign_rows,
    hamerly_seed_rows,
    lloyd_assign_rows,
)
from repro.exec.checkpoint import (
    ShardCheckpoint,
    array_crc,
    encode_labels,
    shard_state_from_record,
    validate_record,
)
from repro.instrumentation.counters import OpCounters
from repro.eval.runtime import ExecutionPolicy, FailedRun, RunKey

SHARD_POLICY_MODES = ("strict", "recompute", "degrade")

#: fault kinds no shard thread can contain: ``kill`` exits the process it
#: fires in and ``hang`` never returns, so they would take down or wedge
#: the fitting process itself
PROCESS_ONLY_FAULTS = ("hang", "kill")

#: epoch values <= this mark a shard slice as torn (kernel started, never
#: finished); see the epoch-protocol section of the module docstring
EPOCH_DIRTY_THRESHOLD = -2


def shard_bounds(n: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal partition of ``[0, n)`` into ``shards`` ranges.

    The first ``n % shards`` shards get one extra row; deterministic in
    ``(n, shards)`` alone, so every fit of the same shape shards the same
    way (the checkpoint/replay path depends on this).
    """
    if shards < 1:
        raise ValidationError(f"shards must be >= 1, got {shards}")
    base, extra = divmod(n, shards)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for rank in range(shards):
        hi = lo + base + (1 if rank < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


@dataclass(frozen=True)
class ShardFailurePolicy:
    """What the supervisor does when a shard fails terminally.

    =============  ====================================================
    mode           semantics
    =============  ====================================================
    ``strict``     raise :class:`ShardFailedError` (fail the fit loudly)
    ``recompute``  re-run lost shards inline; bit-identical recovery
    ``degrade``    finish from survivors + :class:`DegradedIteration`
    =============  ====================================================
    """

    mode: str = "strict"

    def __post_init__(self) -> None:
        if self.mode not in SHARD_POLICY_MODES:
            raise ConfigurationError(
                f"unknown shard policy {self.mode!r}; known: {SHARD_POLICY_MODES}"
            )

    @classmethod
    def parse(cls, value) -> "ShardFailurePolicy":
        if isinstance(value, ShardFailurePolicy):
            return value
        if value is None:
            return cls()
        return cls(mode=str(value))


@dataclass(frozen=True)
class DegradedIteration:
    """Structured record of one iteration finished without every shard.

    Emitted under the ``degrade`` policy and surfaced through the fit
    result's ``extras["degraded_iterations"]`` so campaign logs carry an
    auditable account of exactly which points went stale when.
    """

    iteration: int
    shards: Tuple[int, ...]
    point_ranges: Tuple[Tuple[int, int], ...]
    error_types: Tuple[str, ...]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "iteration": self.iteration,
            "shards": list(self.shards),
            "point_ranges": [list(r) for r in self.point_ranges],
            "error_types": list(self.error_types),
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "DegradedIteration":
        return cls(
            iteration=int(record["iteration"]),
            shards=tuple(int(s) for s in record["shards"]),
            point_ranges=tuple(
                (int(lo), int(hi)) for lo, hi in record["point_ranges"]
            ),
            error_types=tuple(str(e) for e in record["error_types"]),
        )


# ----------------------------------------------------------------------
# Shard side.
#
# Everything below runs on the shard threads (and, for recompute, on the
# calling thread).  A shard pass runs the fit's ``_assign_shard`` on its
# own row range of the fit's arrays: the ranges are disjoint, so the
# in-place writes ARE the rank-order merge, and the epoch protocol
# (module docstring) detects the only hazard — a kernel that dies
# mid-write.
# ----------------------------------------------------------------------


def _run_shard(
    fit: "_ShardedAssignMixin",
    rank: int,
    key: RunKey,
    iteration: int,
    attempt: int,
    counters: OpCounters,
    fault_plan,
) -> None:
    """Run shard ``rank``'s assignment pass for one iteration.

    Applies targeted faults first (so injected chaos never tears state),
    then brackets the pass with the epoch protocol's dirty/clean marks.
    The pass is called on the ``fit`` parameter rather than on ``self``,
    so R007 follows it to every class's override and the row kernels
    behind them.
    """
    if fault_plan is not None:
        fault_plan.apply_shard(key, shard=rank, iteration=iteration, attempt=attempt)
    fit._epoch[rank] = -(iteration + 2)
    fit._assign_shard(rank, counters)
    fit._epoch[rank] = iteration


def _settle_shard(
    fit: "_ShardedAssignMixin",
    rank: int,
    key: RunKey,
    iteration: int,
    deadline: Optional[float],
) -> Any:
    """Run one shard pass to a settled outcome: its counters or a failure.

    Transient failures retry with deterministic backoff until the fit's
    ``shard_execution.retries`` or the shared ``deadline`` runs out, and
    any other exception degrades to a classified :class:`FailedRun`.
    """
    policy = fit.shard_execution
    started = time.monotonic()
    attempt = 1
    while True:
        if deadline is not None and time.monotonic() >= deadline:
            return FailedRun(
                key=key,
                error_type="RunTimeoutError",
                message=(
                    f"batch exceeded the {policy.max_total_time:.3g}s "
                    "max_total_time budget"
                ),
                attempts=attempt,
                elapsed=time.monotonic() - started,
            )
        try:
            counters = OpCounters()
            _run_shard(
                fit, rank, key, iteration, attempt, counters, fit.shard_fault_plan
            )
            return counters
        except TransientError as exc:
            if attempt <= policy.retries:
                delay = policy.backoff_delay(str(key), attempt)
                if deadline is None or time.monotonic() + delay < deadline:
                    time.sleep(delay)
                    attempt += 1
                    continue
            return FailedRun(
                key=key,
                error_type="TransientError",
                message=str(exc),
                attempts=attempt,
                elapsed=time.monotonic() - started,
            )
        except Exception as exc:  # classified, like supervised_map's
            return FailedRun(
                key=key,
                error_type=type(exc).__name__,
                message=str(exc),
                attempts=attempt,
                elapsed=time.monotonic() - started,
            )


def _settle_shard_stride(
    fit: "_ShardedAssignMixin",
    keys: Sequence[RunKey],
    iteration: int,
    results: List[Any],
    first: int,
    step: int,
    deadline: Optional[float],
) -> None:
    """Settle shards ``first, first + step, ...`` into their result slots.

    The shard threads' target.  Each slot is written by exactly one
    thread, and each shard pass writes only its own rows of the fit's
    state, so threads share nothing mutable.
    """
    for rank in range(first, len(keys), step):
        results[rank] = _settle_shard(fit, rank, keys[rank], iteration, deadline)


def _run_inline(
    fit: "_ShardedAssignMixin", keys: Sequence[RunKey], iteration: int
) -> List[Any]:
    """Run every shard's pass concurrently on threads.

    One thread per shard, capped at ``os.cpu_count()`` (the calling
    thread takes the first stride), against the fit's own arrays.  The
    kernels spend their time in NumPy calls that release the GIL, and X
    is shared by reference: no shared memory, no pickling, no spawn.
    Per shard, transient failures retry with deterministic backoff under
    the batch's shared ``max_total_time`` deadline, and any other
    exception degrades to a classified :class:`FailedRun`.  Outcomes
    (each an :class:`OpCounters` or a :class:`FailedRun`) come back in
    shard-rank order, and every thread is joined before this returns or
    raises.

    No timeout isolation: a thread cannot be killed, so ``kill`` and
    ``hang`` faults and a set ``ExecutionPolicy.timeout`` are refused at
    construction.
    """
    max_total_time = fit.shard_execution.max_total_time
    deadline = None if max_total_time is None else time.monotonic() + max_total_time
    results: List[Any] = [None] * len(keys)
    width = max(1, min(len(keys), os.cpu_count() or 1))
    threads: List[threading.Thread] = []
    try:
        for first in range(1, width):
            thread = threading.Thread(
                target=_settle_shard_stride,
                args=(fit, keys, iteration, results, first, width, deadline),
                name=f"repro-shard-{first}",
            )
            thread.start()
            threads.append(thread)
        _settle_shard_stride(fit, keys, iteration, results, 0, width, deadline)
    finally:
        for thread in threads:
            thread.join()
    return results


# ----------------------------------------------------------------------
# Supervisor side.
# ----------------------------------------------------------------------


def _process_only_faults(fault_plan) -> List[str]:
    """Sorted kinds of the plan's rules that would need a worker process."""
    if fault_plan is None:
        return []
    return sorted(
        {fault.kind for fault in fault_plan.faults}.intersection(PROCESS_ONLY_FAULTS)
    )


class _ShardedAssignMixin:
    """Replaces the assignment pass with a shard fan-out.

    Mixed in *before* a vectorized algorithm class, it overrides
    ``_setup`` (shard ranges and epoch vector), ``_assign`` (shard
    fan-out / recover), ``_refine`` (rank-order merge fold for the
    ``rescan`` mode), ``_update_bounds`` (replay transition), and
    ``_extras`` (degradation/resume reporting).  Everything else — setup,
    initialization, convergence, drift correction — is the inherited
    single-process implementation, which is exactly why the result is
    bit-identical.
    """

    #: whether a shard's steady-state pass reads the labels and bounds
    #: its previous pass left (a torn slice cannot be recomputed from)
    reads_shard_state = False

    def __init__(
        self,
        *,
        shards: int = 2,
        shard_policy="strict",
        execution: Optional[ExecutionPolicy] = None,
        fault_plan=None,
        checkpoint=None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if int(shards) < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        uncontainable = _process_only_faults(fault_plan)
        if uncontainable:
            raise ConfigurationError(
                f"sharded fits cannot contain {'/'.join(uncontainable)} "
                "faults: shards run on threads of the fitting process, which "
                "they would kill or hang"
            )
        if execution is not None and execution.timeout is not None:
            raise ConfigurationError(
                "sharded fits do not take an ExecutionPolicy.timeout: a shard "
                "thread cannot be killed at a deadline; max_total_time is the "
                "deadline the engine honours"
            )
        self.shards = int(shards)
        self.shard_policy = ShardFailurePolicy.parse(shard_policy)
        self.shard_execution = execution if execution is not None else ExecutionPolicy()
        self.shard_fault_plan = fault_plan
        self._checkpoint = (
            ShardCheckpoint(checkpoint) if checkpoint is not None else None
        )
        self._ranges: List[Tuple[int, int]] = []
        self._shard_has_state: List[bool] = []
        self._degraded: List[DegradedIteration] = []
        self._replay: Dict[int, Dict[str, Any]] = {}
        self._fit_key: Optional[str] = None
        self._current_iteration = -1
        self._last_was_replay = False
        self._resumed_iterations = 0
        self._epoch: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Fit-loop hooks.
    # ------------------------------------------------------------------

    def _setup(self) -> None:
        super()._setup()
        n = len(self.X)
        # Degenerate shards are clamped away rather than erroring: a tiny
        # smoke fit with shards > n still runs, one row per shard.
        effective = max(1, min(self.shards, n))
        self._ranges = shard_bounds(n, effective)
        self._shard_has_state = [False] * effective
        self._epoch = np.full(effective, -1, dtype=np.int64)
        self._degraded = []
        self._replay = {}
        self._fit_key = None
        self._current_iteration = -1
        self._last_was_replay = False
        self._resumed_iterations = 0

    def _assign(self, iteration: int) -> None:
        self._current_iteration = iteration
        entry_crc = (
            array_crc(self._centroids) if self._checkpoint is not None else 0
        )
        if self._maybe_replay(iteration, entry_crc):
            return
        self._last_was_replay = False
        self._prepare_shards()
        keys = self._shard_keys(iteration)
        outcomes = _run_inline(self, keys, iteration)
        losses: Dict[int, FailedRun] = {
            rank: out
            for rank, out in enumerate(outcomes)
            if isinstance(out, FailedRun)
        }
        if losses:
            losses = self._recover(iteration, keys, outcomes, losses)
        for rank, out in enumerate(outcomes):
            if isinstance(out, FailedRun):
                continue
            self.counters.merge(out)
            self._shard_has_state[rank] = True
        degraded = None
        if losses:
            ranks = tuple(sorted(losses))
            degraded = DegradedIteration(
                iteration=iteration,
                shards=ranks,
                point_ranges=tuple(self._ranges[r] for r in ranks),
                error_types=tuple(losses[r].error_type for r in ranks),
            )
            self._degraded.append(degraded)
        self._write_checkpoint(iteration, entry_crc, degraded)

    def _refine(self, iteration: int, previous_labels: np.ndarray) -> np.ndarray:
        if self.refinement != "rescan":
            # ``delta`` handles degraded shards natively: a lost shard's
            # labels did not move, and a late-seeded row's old label is -1,
            # which the mover filter already excludes from subtraction.
            return super()._refine(iteration, previous_labels)
        # Rank-order merge fold: one scatter-add over the concatenated
        # survivor rows — bit-identical to the unsharded rescan when every
        # shard is present (see merge_shard_assignments).
        slices = [self._labels[lo:hi] for lo, hi in self._ranges]
        lost = [
            rank for rank, ok in enumerate(self._shard_has_state) if not ok
        ]
        _, sums, counts = merge_shard_assignments(
            self.X, self.k, slices, self._ranges, lost=lost
        )
        self._sums[:] = sums
        self._counts = counts
        folded = len(self.X) - sum(
            self._ranges[rank][1] - self._ranges[rank][0] for rank in lost
        )
        self.counters.add_point_accesses(folded)
        new_centroids = self._centroids.copy()
        nonempty = self._counts > 0
        new_centroids[nonempty] = self._sums[nonempty] / self._counts[nonempty, None]
        return new_centroids

    def _update_bounds(self, drifts: np.ndarray) -> None:
        if self._last_was_replay:
            # While the next iteration will also replay, bound arrays may
            # not even exist — skip maintenance entirely.  On the last
            # replayed iteration, transition to live execution by seeding
            # sound conservative bounds (exactness does not depend on
            # tightness; see docs/sharding.md on resume semantics).
            if (self._current_iteration + 1) not in self._replay:
                self._reseed_bounds()
                self._last_was_replay = False
            return
        super()._update_bounds(drifts)

    def _extras(self) -> Dict[str, Any]:
        extras = dict(super()._extras())
        extras["shards"] = len(self._ranges)
        extras["shard_policy"] = self.shard_policy.mode
        if self._degraded:
            extras["degraded_iterations"] = [d.as_dict() for d in self._degraded]
        if self._resumed_iterations:
            extras["resumed_iterations"] = self._resumed_iterations
        return extras

    # ------------------------------------------------------------------
    # Dispatch and recovery.
    # ------------------------------------------------------------------

    def _recover(
        self,
        iteration: int,
        keys: Sequence[RunKey],
        outcomes: List[Any],
        losses: Dict[int, FailedRun],
    ) -> Dict[int, FailedRun]:
        """Apply the failure policy to terminally-failed shards.

        Returns the ranks still lost after recovery (empty for
        ``recompute``); mutates ``outcomes`` in place for recovered ranks.
        """
        mode = self.shard_policy.mode
        if mode == "strict":
            rank = min(losses)
            failure = losses[rank]
            raise ShardFailedError(
                f"shard {rank} of {self.name} failed terminally at iteration "
                f"{iteration}: {failure.error_type}: {failure.message}",
                shard=rank,
                iteration=iteration,
                error_type=failure.error_type,
            )
        if mode == "recompute":
            # Deterministic recovery: injected faults fire before the
            # epoch dirty mark, so the shared state still holds the exact
            # pre-iteration inputs and a re-run on this thread is
            # bit-identical to a fault-free pass.  The epoch guard refuses
            # to recompute a state-reading pass from a genuinely torn
            # slice.  The recovery path itself is deliberately fault-free
            # — injected faults target shard threads, not recovery.
            for rank in sorted(losses):
                if self._slice_is_torn(rank):
                    failure = losses[rank]
                    raise ShardFailedError(
                        f"shard {rank} of {self.name} died mid-kernel at "
                        f"iteration {iteration} leaving its state slice torn "
                        f"({failure.error_type}: {failure.message}); recompute "
                        "cannot reproduce the fault-free iteration",
                        shard=rank,
                        iteration=iteration,
                        error_type="ShardStateCorrupted",
                    )
                counters = OpCounters()
                _run_shard(self, rank, keys[rank], iteration, 1, counters, None)
                outcomes[rank] = counters
            return {}
        # degrade: a torn state-reading shard cannot keep "stale but
        # sound" bounds — mark it stateless so its next pass reseeds.
        for rank in sorted(losses):
            if self._slice_is_torn(rank):
                self._shard_has_state[rank] = False
        return losses

    def _slice_is_torn(self, rank: int) -> bool:
        """Whether shard ``rank``'s state-reading pass died mid-write."""
        return (
            self.reads_shard_state
            and self._shard_has_state[rank]
            and int(self._epoch[rank]) <= EPOCH_DIRTY_THRESHOLD
        )

    def _shard_keys(self, iteration: int) -> List[RunKey]:
        d = self.X.shape[1]
        return [
            RunKey(
                algorithm=self.name,
                dataset=f"shard[{lo}:{hi})",
                n=hi - lo,
                d=d,
                k=self.k,
                seed=rank,
                max_iter=iteration,
            )
            for rank, (lo, hi) in enumerate(self._ranges)
        ]

    # ------------------------------------------------------------------
    # Checkpoint replay.
    # ------------------------------------------------------------------

    def _maybe_replay(self, iteration: int, entry_crc: int) -> bool:
        if self._checkpoint is None:
            return False
        if iteration == 0:
            self._fit_key = self._checkpoint.fit_key(
                self.name,
                len(self._ranges),
                self.shard_policy.mode,
                self.X,
                self._centroids,
            )
            self._replay = self._checkpoint.load(self._fit_key)
        record = self._replay.get(iteration)
        if record is None:
            return False
        labels = validate_record(
            record, n=len(self.X), centroid_digest=entry_crc
        )
        self._labels[:] = labels
        # Counters restore *absolutely* from the post-assignment snapshot:
        # the supervisor charged nothing this iteration (no context, no
        # dispatch), and skipped bound maintenance heals itself because the
        # next record's snapshot already includes it.
        for name, value in record.get("counters", {}).items():
            if hasattr(self.counters, name):
                setattr(self.counters, name, int(value))
        restored = shard_state_from_record(record)
        if restored is not None and len(restored) == len(self._shard_has_state):
            self._shard_has_state = restored
        if record.get("degraded"):
            self._degraded.append(DegradedIteration.from_dict(record["degraded"]))
        self._last_was_replay = True
        self._resumed_iterations += 1
        return True

    def _write_checkpoint(
        self,
        iteration: int,
        entry_crc: int,
        degraded: Optional[DegradedIteration],
    ) -> None:
        if self._checkpoint is None:
            return
        self._checkpoint.append(
            {
                "fit_key": self._fit_key,
                "iteration": iteration,
                "labels": encode_labels(self._labels),
                "counters": self.counters.snapshot().as_dict(),
                "centroid_crc": entry_crc,
                "has_state": [int(flag) for flag in self._shard_has_state],
                "degraded": degraded.as_dict() if degraded is not None else None,
            }
        )

    # ------------------------------------------------------------------
    # Per-algorithm hooks.
    # ------------------------------------------------------------------

    def _prepare_shards(self) -> None:
        """Compute, and charge once, the centroid context of this
        iteration's shard passes; runs before the fan-out."""
        raise NotImplementedError

    def _assign_shard(self, rank: int, counters: OpCounters) -> None:
        """Shard ``rank``'s assignment pass over its rows, in place."""
        raise NotImplementedError

    def _reseed_bounds(self) -> None:
        """Seed sound conservative bounds at the replay→live transition."""


class ShardedLloydKMeans(_ShardedAssignMixin, VectorizedLloydKMeans):
    """Sharded vectorized Lloyd: every iteration is a full scan."""

    def _prepare_shards(self):
        if self._x_sq is None:
            self._x_sq = sq_norms(self.X)
        self._c_sq = sq_norms(self._centroids)

    def _assign_shard(self, rank, counters):
        lo, hi = self._ranges[rank]
        self._labels[lo:hi] = lloyd_assign_rows(
            self.X[lo:hi], self._centroids, self._x_sq[lo:hi], self._c_sq, counters
        )


class _BoundedShardMixin(_ShardedAssignMixin):
    """Shared fan-out logic for the bound-maintaining pair (Elkan/Hamerly).

    A shard runs the *seed* kernel until its first successful pass (always
    iteration 0 in a fault-free fit; later under ``degrade`` when the
    iteration-0 pass was lost), then the steady-state assignment kernel
    on its slice of the shared bound state.
    """

    reads_shard_state = True

    def _prepare_shards(self):
        self._ensure_bound_arrays()
        # The separations are charged only in iterations where some shard
        # runs the steady-state kernel, as in the single-process fit.
        self._separation = (
            self._separation_context() if any(self._shard_has_state) else None
        )

    def _reseed_bounds(self):
        self._ensure_bound_arrays()
        self._ub.fill(np.inf)
        self._lb.fill(0.0)

    def _ensure_bound_arrays(self) -> None:
        raise NotImplementedError


class ShardedElkanKMeans(_BoundedShardMixin, VectorizedElkanKMeans):
    """Sharded vectorized Elkan with supervisor-computed separations."""

    def _assign_shard(self, rank, counters):
        lo, hi = self._ranges[rank]
        X, labels = self.X[lo:hi], self._labels[lo:hi]
        ub, lb = self._ub[lo:hi], self._lb[lo:hi]
        if not self._shard_has_state[rank]:
            labels[:], ub[:], lb[:] = elkan_seed_rows(X, self._centroids, counters)
            return
        half_cc, s = self._separation
        elkan_assign_rows(X, self._centroids, labels, ub, lb, half_cc, s, counters)

    def _ensure_bound_arrays(self):
        if self._ub is None:
            n = len(self.X)
            self._ub = np.zeros(n)
            self._lb = np.zeros((n, self.k))


class ShardedHamerlyKMeans(_BoundedShardMixin, VectorizedHamerlyKMeans):
    """Sharded vectorized Hamerly with supervisor-computed separations."""

    def _assign_shard(self, rank, counters):
        lo, hi = self._ranges[rank]
        X, labels = self.X[lo:hi], self._labels[lo:hi]
        ub, lb = self._ub[lo:hi], self._lb[lo:hi]
        if not self._shard_has_state[rank]:
            labels[:], ub[:], lb[:] = hamerly_seed_rows(X, self._centroids, counters)
            return
        hamerly_assign_rows(
            X, self._centroids, labels, ub, lb, self._separation, counters
        )

    def _ensure_bound_arrays(self):
        if self._ub is None:
            n = len(self.X)
            self._ub = np.zeros(n)
            self._lb = np.zeros(n)


#: Algorithms with a sharded implementation.  Yinyang and index k-means
#: keep per-iteration *global* group/tree state inside the assignment pass
#: and are not row-subset decomposable without changing their decision
#: procedure, so they are deliberately absent.
SHARDED_ALGORITHMS: Dict[str, type] = {
    "lloyd": ShardedLloydKMeans,
    "elkan": ShardedElkanKMeans,
    "hamerly": ShardedHamerlyKMeans,
}


def make_sharded_algorithm(name: str, **kwargs):
    """Instantiate a sharded algorithm by registry name.

    Raises :class:`ConfigurationError` for algorithms without a sharded
    implementation; accepts the mixin's engine knobs (``shards``,
    ``shard_policy``, ``execution``, ``fault_plan``, ``checkpoint``) plus
    the wrapped algorithm's own keyword arguments.
    """
    try:
        cls = SHARDED_ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(SHARDED_ALGORITHMS))
        raise ConfigurationError(
            f"algorithm {name!r} has no sharded implementation; "
            f"sharded execution supports: {known}"
        ) from None
    return cls(**kwargs)


__all__ = [
    "DegradedIteration",
    "SHARDED_ALGORITHMS",
    "SHARD_POLICY_MODES",
    "ShardFailurePolicy",
    "ShardedElkanKMeans",
    "ShardedHamerlyKMeans",
    "ShardedLloydKMeans",
    "make_sharded_algorithm",
    "shard_bounds",
]
