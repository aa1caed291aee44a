"""Sharded data-parallel execution of the assignment phase.

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
shard, capped at the cores this process may run on.  That method calls
the row kernels of :mod:`repro.core.vectorized` directly on
``X[lo:hi]`` and the shard's slices of the fit's own state arrays.  The
kernels spend their time in NumPy calls that release the GIL, and the
point matrix is shared by reference, so per-iteration communication is
the O(k·d) centroid broadcast with no IPC at all.  While the shard
threads run, OpenBLAS runs ``cores // threads`` threads per call, so
the shard threads and their BLAS threads together fit the cores.

Determinism contract
--------------------
Three disciplines carry the bit-identity guarantee:

1. *Row-subset invariant kernels.*  Per-point assignment decisions of
   Lloyd/Elkan/Hamerly are independent across points, so a kernel run on
   ``X[lo:hi]`` produces exactly rows ``[lo, hi)`` of the full-matrix pass
   (see the kernel section of :mod:`repro.core.vectorized`).
2. *Rank-order merge.*  Shards own disjoint row ranges of the shared
   state, and counters merge in shard-rank order (integer accumulation).
   Refinement is the inherited single-process step: one scatter-add over
   the full matrix, never a sum of per-shard partial sums (float addition
   is not associative).
3. *Supervisor-side centroid context.*  Centroid-level work
   (``centroid_separations``) is computed — and charged — once in the
   supervisor and broadcast to every shard, so OpCounters totals also
   match the single-process pass exactly.

Failures
--------
A sharded fit fails like the single-process fit it is bit-identical to.
Every shard thread is joined, then the lowest-rank shard's exception is
re-raised unchanged.  A kernel exception is deterministic, so there is
nothing to retry, and no thread writes state once the fit is over.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.common.blas import available_cores, blas_threads
from repro.common.distance import sq_norms
from repro.common.exceptions import ConfigurationError, ValidationError
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
from repro.instrumentation.counters import OpCounters


def shard_bounds(n: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal partition of ``[0, n)`` into ``shards`` ranges.

    The first ``n % shards`` shards get one extra row; deterministic in
    ``(n, shards)`` alone, so every fit of the same shape shards the same
    way.
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


def _assign_shard_stride(
    fit: "_ShardedAssignMixin", results: List[Any], first: int, step: int
) -> None:
    """Run shards ``first, first + step, ...`` into their result slots.

    The shard threads' target.  Each slot gets the shard's counters or the
    exception its pass raised; each slot is written by exactly one thread,
    and each shard pass writes only its own rows of the fit's state, so
    threads share nothing mutable.  The pass is called on the ``fit``
    parameter rather than on ``self``, so R007 follows it to every
    class's override and the row kernels behind them.
    """
    for rank in range(first, len(results), step):
        counters = OpCounters()
        try:
            fit._assign_shard(rank, counters)
        except Exception as exc:  # re-raised by _run_shards after the join
            results[rank] = exc
        else:
            results[rank] = counters


def _run_shards(
    fit: "_ShardedAssignMixin",
) -> Tuple[List[OpCounters], Optional[int]]:
    """Run every shard's pass concurrently on threads.

    One thread per shard, capped at the usable cores (the calling thread
    takes the first stride), against the fit's own arrays.  The kernels
    spend their time in NumPy calls that release the GIL, and X is
    shared by reference: no shared memory, no pickling, no spawn.  With
    more than one thread, OpenBLAS runs at ``cores // threads`` threads
    from before the first thread starts until after the last is joined.
    Every thread is joined before this returns or raises; the counters
    come back in shard-rank order with the BLAS thread count applied
    (``None`` when single-threaded or without a settable BLAS), and the
    lowest-rank shard's exception, if any, is re-raised unchanged.
    """
    results: List[Any] = [None] * len(fit._ranges)
    cores = available_cores()
    width = max(1, min(len(results), cores))
    budget = blas_threads(max(1, cores // width)) if width > 1 else nullcontext()
    threads: List[threading.Thread] = []
    with budget as applied:
        try:
            for first in range(1, width):
                thread = threading.Thread(
                    target=_assign_shard_stride,
                    args=(fit, results, first, width),
                    name=f"repro-shard-{first}",
                )
                thread.start()
                threads.append(thread)
            _assign_shard_stride(fit, results, 0, width)
        finally:
            for thread in threads:
                thread.join()
    for outcome in results:
        if isinstance(outcome, Exception):
            raise outcome
    return results, applied


class _ShardedAssignMixin:
    """Replaces the assignment pass with a shard fan-out.

    Mixed in *before* a vectorized algorithm class, it overrides
    ``_setup`` (shard ranges), ``_assign`` (shard fan-out) and ``_extras``
    (the shard count and the fan-out's BLAS thread count).  Everything
    else — setup, initialization, refinement, bound upkeep, convergence —
    is the inherited single-process implementation, which is exactly why
    the result is bit-identical.
    """

    def __init__(self, *, shards: int = 2, **kwargs) -> None:
        super().__init__(**kwargs)
        if int(shards) < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.shards = int(shards)
        self._ranges: List[Tuple[int, int]] = []
        self._blas_threads: Optional[int] = None

    def _setup(self) -> None:
        super()._setup()
        self._blas_threads = None
        n = len(self.X)
        # Degenerate shards are clamped away rather than erroring: a tiny
        # smoke fit with shards > n still runs, one row per shard.
        self._ranges = shard_bounds(n, max(1, min(self.shards, n)))

    def _assign(self, iteration: int) -> None:
        self._prepare_shards(iteration)
        shard_counters, self._blas_threads = _run_shards(self)
        for counters in shard_counters:
            self.counters.merge(counters)

    def _extras(self) -> Dict[str, Any]:
        extras = dict(super()._extras())
        extras["shards"] = len(self._ranges)
        extras["blas_threads"] = self._blas_threads
        return extras

    # ------------------------------------------------------------------
    # Per-algorithm hooks.
    # ------------------------------------------------------------------

    def _prepare_shards(self, iteration: int) -> None:
        """Compute, and charge once, the centroid context of this
        iteration's shard passes; runs before the fan-out."""
        raise NotImplementedError

    def _assign_shard(self, rank: int, counters: OpCounters) -> None:
        """Shard ``rank``'s assignment pass over its rows, in place."""
        raise NotImplementedError


class ShardedLloydKMeans(_ShardedAssignMixin, VectorizedLloydKMeans):
    """Sharded vectorized Lloyd: every iteration is a full scan."""

    def _prepare_shards(self, iteration):
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

    As in the parent classes' ``_assign``, a shard runs the *seed* kernel
    at iteration 0 and the steady-state kernel on its slice of the shared
    bound state after; ``_separation`` is ``None`` exactly on the seed
    pass.
    """

    def _prepare_shards(self, iteration):
        self._ensure_bound_arrays()
        # The separations are charged only in steady-state iterations, as
        # in the single-process fit.
        self._separation = self._separation_context() if iteration else None

    def _ensure_bound_arrays(self) -> None:
        raise NotImplementedError


class ShardedElkanKMeans(_BoundedShardMixin, VectorizedElkanKMeans):
    """Sharded vectorized Elkan with supervisor-computed separations."""

    def _assign_shard(self, rank, counters):
        lo, hi = self._ranges[rank]
        X, labels = self.X[lo:hi], self._labels[lo:hi]
        ub, lb = self._ub[lo:hi], self._lb[lo:hi]
        if self._separation is None:
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
        if self._separation is None:
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


#: Algorithms with a sharded implementation.  Yinyang keeps per-iteration
#: *global* group state inside the assignment pass and is not row-subset
#: decomposable without changing its decision procedure, so it is
#: deliberately absent (index k-means has no vectorized implementation).
SHARDED_ALGORITHMS: Dict[str, type] = {
    "lloyd": ShardedLloydKMeans,
    "elkan": ShardedElkanKMeans,
    "hamerly": ShardedHamerlyKMeans,
}


def make_sharded_algorithm(name: str, **kwargs):
    """Instantiate a sharded algorithm by registry name.

    Raises :class:`ConfigurationError` for algorithms without a sharded
    implementation; accepts ``shards`` plus the wrapped algorithm's own
    keyword arguments.
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
    "SHARDED_ALGORITHMS",
    "ShardedElkanKMeans",
    "ShardedHamerlyKMeans",
    "ShardedLloydKMeans",
    "make_sharded_algorithm",
    "shard_bounds",
]
