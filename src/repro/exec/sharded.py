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
Shard commands (:func:`execute_shard_command`) run concurrently on
threads, one per shard, capped at ``os.cpu_count()``, against the fitting
process's own arrays.  The kernels spend their time in NumPy calls that
release the GIL, and the point matrix is shared by reference, so
per-iteration communication is the O(k·d) centroid broadcast with no IPC
at all.  A thread cannot be killed, so ``kill``/``hang`` faults and a set
``ExecutionPolicy.timeout`` are refused at construction; the batch's
``max_total_time`` is the deadline the engine honours.

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
Shard commands inherit the robustness runtime:
:class:`~repro.common.exceptions.TransientError` retries with
deterministic CRC32 backoff and the batch's ``max_total_time`` deadline.
What happens when a shard fails *terminally* is the
:class:`ShardFailurePolicy`:

``strict``
    Raise :class:`~repro.common.exceptions.ShardFailedError` carrying the
    shard rank, iteration, and classified error type.
``recompute``
    Re-run each lost shard's command on the calling thread against the
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
*mid-write* could leave its slice torn.  Each command brackets its kernel
with writes to a per-shard epoch slot: ``-(iteration + 2)`` before the
kernel, ``iteration`` after the write-back.  Injected faults
(:meth:`~repro.eval.faults.FaultPlan.apply_shard`) fire *before* the
dirty mark, so chaos recovery always sees clean state and stays
bit-identical.  A genuinely torn slice (``epoch <= -2``) makes
``recompute`` of a state-*reading* kernel raise
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
# calling thread).  The kernels are module-level and registered in
# SHARD_KERNELS, so the R007 parallel-safety rule discovers them as
# dispatch roots.  Kernels operate *in place* on views of the shared
# arrays: each command names a disjoint row range, so direct mutation IS
# the rank-order merge, and the epoch protocol (module docstring) detects
# the only hazard — a kernel that dies mid-write.
# ----------------------------------------------------------------------


def lloyd_shard_kernel(payload: Dict[str, Any], counters: OpCounters) -> Dict[str, Any]:
    labels = lloyd_assign_rows(
        payload["X"],
        payload["centroids"],
        payload["x_sq"],
        payload["c_sq"],
        counters,
    )
    return {"labels": labels}


def elkan_seed_shard_kernel(
    payload: Dict[str, Any], counters: OpCounters
) -> Dict[str, Any]:
    labels, ub, lb = elkan_seed_rows(payload["X"], payload["centroids"], counters)
    return {"labels": labels, "ub": ub, "lb": lb}


def elkan_shard_kernel(payload: Dict[str, Any], counters: OpCounters) -> Dict[str, Any]:
    labels = payload["labels"]
    ub = payload["ub"]
    lb = payload["lb"]
    elkan_assign_rows(
        payload["X"],
        payload["centroids"],
        labels,
        ub,
        lb,
        payload["half_cc"],
        payload["s"],
        counters,
    )
    return {"labels": labels, "ub": ub, "lb": lb}


def hamerly_seed_shard_kernel(
    payload: Dict[str, Any], counters: OpCounters
) -> Dict[str, Any]:
    labels, ub, lb = hamerly_seed_rows(payload["X"], payload["centroids"], counters)
    return {"labels": labels, "ub": ub, "lb": lb}


def hamerly_shard_kernel(
    payload: Dict[str, Any], counters: OpCounters
) -> Dict[str, Any]:
    labels = payload["labels"]
    ub = payload["ub"]
    lb = payload["lb"]
    hamerly_assign_rows(
        payload["X"],
        payload["centroids"],
        labels,
        ub,
        lb,
        payload["s"],
        counters,
    )
    return {"labels": labels, "ub": ub, "lb": lb}


#: Registry of shard assignment kernels.  Shard threads run them
#: concurrently, so the R007 parallel-safety rule discovers them from this
#: literal and lints them (and their callees) like any other dispatch
#: root.
SHARD_KERNELS = {
    "lloyd": lloyd_shard_kernel,
    "elkan_seed": elkan_seed_shard_kernel,
    "elkan": elkan_shard_kernel,
    "hamerly_seed": hamerly_seed_shard_kernel,
    "hamerly": hamerly_shard_kernel,
}

#: steady-state kernels that *read* persistent shard state (labels/bounds)
#: and therefore cannot recompute from a torn slice
STATE_READING_KERNELS = frozenset({"elkan", "hamerly"})


def build_shard_payload(
    arrays: Dict[str, np.ndarray], command: Dict[str, Any]
) -> Dict[str, Any]:
    """Assemble one kernel's payload from shared-array views + the command.

    The bulk inputs (``X``, state slices) are *views* of the fit's arrays;
    only the centroids and the O(k²) context arrive through the command —
    this is the O(k·d)-per-iteration property in code form.
    """
    lo, hi = command["lo"], command["hi"]
    kernel = command["kernel"]
    payload: Dict[str, Any] = {
        "X": arrays["x"][lo:hi],
        "centroids": command["centroids"],
    }
    payload.update(command.get("context") or {})
    if kernel == "lloyd":
        payload["x_sq"] = arrays["xsq"][lo:hi]
    elif kernel in STATE_READING_KERNELS:
        payload["labels"] = arrays["labels"][lo:hi]
        payload["ub"] = arrays["ub"][lo:hi]
        payload["lb"] = arrays["lb"][lo:hi]
    return payload


def execute_shard_command(
    arrays: Dict[str, np.ndarray],
    command: Dict[str, Any],
    counters: OpCounters,
) -> Dict[str, Any]:
    """Run one shard command against the fit's shared arrays.

    Applies targeted faults first (so injected chaos never tears state),
    brackets the kernel with the epoch protocol's dirty/clean marks, and
    writes any kernel outputs that are not already in-place views back at
    the shard's fixed row offsets.
    """
    rank = command["rank"]
    iteration = command["iteration"]
    fault_plan = command.get("fault_plan")
    if fault_plan is not None:
        fault_plan.apply_shard(
            command["key"],
            shard=rank,
            iteration=iteration,
            attempt=command.get("attempt", 1),
        )
    epoch = arrays["epoch"]
    epoch[rank] = -(iteration + 2)
    payload = build_shard_payload(arrays, command)
    out = SHARD_KERNELS[command["kernel"]](payload, counters)
    lo, hi = command["lo"], command["hi"]
    for role in ("labels", "ub", "lb"):
        value = out.get(role)
        target = arrays.get(role)
        if value is None or target is None:
            continue
        window = target[lo:hi]
        if not np.shares_memory(value, window):
            window[...] = value
    epoch[rank] = iteration
    return {"shard": rank}


def _settle_shard_command(
    arrays: Dict[str, np.ndarray],
    command: Dict[str, Any],
    key: RunKey,
    policy: ExecutionPolicy,
    deadline: Optional[float],
) -> Any:
    """Run one shard command to a settled outcome.

    Transient failures retry with deterministic backoff until
    ``policy.retries`` or the shared ``deadline`` runs out, and any other
    exception degrades to a classified :class:`FailedRun`.
    """
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
            attempt_command = dict(command)
            attempt_command["attempt"] = attempt
            out = execute_shard_command(arrays, attempt_command, counters)
            out["counters"] = counters
            return out
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
    arrays: Dict[str, np.ndarray],
    commands: Sequence[Dict[str, Any]],
    keys: Sequence[RunKey],
    results: List[Any],
    first: int,
    step: int,
    policy: ExecutionPolicy,
    deadline: Optional[float],
) -> None:
    """Settle commands ``first, first + step, ...`` into their result slots.

    The shard threads' target.  Each slot is written by
    exactly one thread, and each command's kernel writes only its own
    shard's rows of the shared state, so threads share nothing mutable.
    """
    for slot in range(first, len(commands), step):
        results[slot] = _settle_shard_command(
            arrays, commands[slot], keys[slot], policy, deadline
        )


def _run_inline(
    arrays: Dict[str, np.ndarray],
    commands: Sequence[Dict[str, Any]],
    keys: Sequence[RunKey],
    *,
    policy: ExecutionPolicy,
) -> List[Any]:
    """Run shard commands concurrently on threads.

    One thread per shard, capped at ``os.cpu_count()`` (the calling
    thread takes the first stride), against the fit's own arrays.  The
    kernels spend their time in NumPy calls that release the GIL, and X
    is shared by reference: no shared memory, no pickling, no spawn.
    Per command, transient failures retry with deterministic backoff
    under the batch's shared ``max_total_time`` deadline, and any other
    exception degrades to a classified :class:`FailedRun`.  Results come
    back in command (shard-rank) order, and every thread is joined before
    this returns or raises.

    No timeout isolation: a thread cannot be killed, so ``kill`` and
    ``hang`` faults and a set ``ExecutionPolicy.timeout`` are refused at
    construction.
    """
    deadline = (
        None
        if policy.max_total_time is None
        else time.monotonic() + policy.max_total_time
    )
    results: List[Any] = [None] * len(commands)
    width = max(1, min(len(commands), os.cpu_count() or 1))
    threads: List[threading.Thread] = []
    try:
        for first in range(1, width):
            thread = threading.Thread(
                target=_settle_shard_stride,
                args=(arrays, commands, keys, results, first, width, policy, deadline),
                name=f"repro-shard-{first}",
            )
            thread.start()
            threads.append(thread)
        _settle_shard_stride(
            arrays, commands, keys, results, 0, width, policy, deadline
        )
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
    ``_setup`` (shard ranges and epoch vector), ``_assign`` (command
    fan-out / recover), ``_refine`` (rank-order merge fold for the
    ``rescan`` mode), ``_update_bounds`` (replay transition), and
    ``_extras`` (degradation/resume reporting).  Everything else — setup,
    initialization, convergence, drift correction — is the inherited
    single-process implementation, which is exactly why the result is
    bit-identical.
    """

    #: registry key of the steady-state assignment kernel
    shard_kernel: str = ""
    #: registry key of the iteration-0 (seeding) kernel; None when the
    #: steady-state kernel is already a full scan (Lloyd)
    shard_seed_kernel: Optional[str] = None

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
        keys = self._shard_keys(iteration)
        commands = self._shard_commands(iteration, keys)
        outcomes = _run_inline(
            self._local_arrays(), commands, keys, policy=self.shard_execution
        )
        losses: Dict[int, FailedRun] = {
            rank: out
            for rank, out in enumerate(outcomes)
            if isinstance(out, FailedRun)
        }
        if losses:
            losses = self._recover(iteration, commands, outcomes, losses)
        for rank, out in enumerate(outcomes):
            if isinstance(out, FailedRun):
                continue
            self.counters.merge(out["counters"])
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

    def _local_arrays(self) -> Dict[str, np.ndarray]:
        """The arrays shard commands read and write, keyed by role."""
        arrays: Dict[str, np.ndarray] = {"x": self.X, "epoch": self._epoch}
        arrays.update(self._state_arrays())
        return arrays

    # ------------------------------------------------------------------
    # Dispatch and recovery.
    # ------------------------------------------------------------------

    def _shard_commands(
        self, iteration: int, keys: Sequence[RunKey]
    ) -> List[Dict[str, Any]]:
        """One command per shard: centroid broadcast + bookkeeping."""
        kernels = [
            self._shard_kernel_for(rank) for rank in range(len(self._ranges))
        ]
        context = self._command_context(kernels)
        commands: List[Dict[str, Any]] = []
        for rank, (lo, hi) in enumerate(self._ranges):
            commands.append(
                {
                    "kernel": kernels[rank],
                    "rank": rank,
                    "lo": lo,
                    "hi": hi,
                    "iteration": iteration,
                    "centroids": self._centroids,
                    "context": context.get(kernels[rank]),
                    "key": keys[rank],
                    "fault_plan": self.shard_fault_plan,
                }
            )
        return commands

    def _recover(
        self,
        iteration: int,
        commands: List[Dict[str, Any]],
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
            # to recompute a state-reading kernel from a genuinely torn
            # slice.  The recovery path itself is deliberately fault-free
            # — injected faults target shard commands, not recovery.
            arrays = self._local_arrays()
            for rank in sorted(losses):
                if self._slice_is_torn(commands[rank]):
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
                command = dict(commands[rank])
                command["fault_plan"] = None
                command["attempt"] = 1
                counters = OpCounters()
                out = execute_shard_command(arrays, command, counters)
                out["counters"] = counters
                outcomes[rank] = out
            return {}
        # degrade: a torn state-reading shard cannot keep "stale but
        # sound" bounds — mark it stateless so its next pass reseeds.
        for rank in sorted(losses):
            if self._slice_is_torn(commands[rank]):
                self._shard_has_state[rank] = False
        return losses

    def _slice_is_torn(self, command: Dict[str, Any]) -> bool:
        return (
            command["kernel"] in STATE_READING_KERNELS
            and int(self._epoch[command["rank"]]) <= EPOCH_DIRTY_THRESHOLD
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

    def _shard_kernel_for(self, rank: int) -> str:
        """Registry key of the kernel shard ``rank`` runs this iteration."""
        raise NotImplementedError

    def _command_context(
        self, kernels: Sequence[str]
    ) -> Dict[str, Dict[str, Any]]:
        """Per-kernel broadcast context, charged once in the supervisor."""
        raise NotImplementedError

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        """Role -> array map of the state this algorithm's kernels use."""
        raise NotImplementedError

    def _reseed_bounds(self) -> None:
        """Seed sound conservative bounds at the replay→live transition."""


class ShardedLloydKMeans(_ShardedAssignMixin, VectorizedLloydKMeans):
    """Sharded vectorized Lloyd: every iteration is a full scan."""

    shard_kernel = "lloyd"

    def _shard_kernel_for(self, rank: int) -> str:
        return self.shard_kernel

    def _command_context(self, kernels):
        return {"lloyd": {"c_sq": sq_norms(self._centroids)}}

    def _state_arrays(self):
        if self._x_sq is None:
            self._x_sq = sq_norms(self.X)
        return {"xsq": self._x_sq, "labels": self._labels}


class _BoundedShardMixin(_ShardedAssignMixin):
    """Shared fan-out logic for the bound-maintaining pair (Elkan/Hamerly).

    A shard runs the *seed* kernel until its first successful pass (always
    iteration 0 in a fault-free fit; later under ``degrade`` when the
    iteration-0 pass was lost), then the steady-state assignment kernel
    on its slice of the shared bound state.
    """

    def _shard_kernel_for(self, rank: int) -> str:
        if not self._shard_has_state[rank]:
            return self.shard_seed_kernel
        return self.shard_kernel

    def _command_context(self, kernels):
        if self.shard_kernel not in kernels:
            return {}
        return {self.shard_kernel: self._steady_context()}

    def _state_arrays(self):
        self._ensure_bound_arrays()
        return {"labels": self._labels, "ub": self._ub, "lb": self._lb}

    def _reseed_bounds(self):
        self._ensure_bound_arrays()
        self._ub.fill(np.inf)
        self._lb.fill(0.0)

    def _steady_context(self) -> Dict[str, Any]:
        """Centroid-level broadcast context, charged once in the supervisor."""
        raise NotImplementedError

    def _ensure_bound_arrays(self) -> None:
        raise NotImplementedError


class ShardedElkanKMeans(_BoundedShardMixin, VectorizedElkanKMeans):
    """Sharded vectorized Elkan with supervisor-computed separations."""

    shard_kernel = "elkan"
    shard_seed_kernel = "elkan_seed"

    def _steady_context(self):
        half_cc, s = self._separation_context()
        return {"half_cc": half_cc, "s": s}

    def _ensure_bound_arrays(self):
        if self._ub is None:
            n = len(self.X)
            self._ub = np.zeros(n)
            self._lb = np.zeros((n, self.k))


class ShardedHamerlyKMeans(_BoundedShardMixin, VectorizedHamerlyKMeans):
    """Sharded vectorized Hamerly with supervisor-computed separations."""

    shard_kernel = "hamerly"
    shard_seed_kernel = "hamerly_seed"

    def _steady_context(self):
        return {"s": self._separation_context()}

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
    "SHARD_KERNELS",
    "SHARDED_ALGORITHMS",
    "SHARD_POLICY_MODES",
    "ShardFailurePolicy",
    "ShardedElkanKMeans",
    "ShardedHamerlyKMeans",
    "ShardedLloydKMeans",
    "build_shard_payload",
    "execute_shard_command",
    "make_sharded_algorithm",
    "shard_bounds",
]
