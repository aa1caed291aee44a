"""Sharded data-parallel execution of Lloyd's assignment phase.

The paper's Table 3 premise — assignment dominates k-means cost — makes the
assignment pass the one phase worth parallelizing.  This engine splits the
point set into contiguous *shards* and runs vectorized Lloyd's row-subset
assignment kernel concurrently, merging per-shard results in fixed
shard-rank order so the fitted model is **bit-identical** to the
single-process vectorized backend regardless of shard completion order.

Runner
------
Each shard runs ``_assign_shard`` on a thread, one per shard, capped at
the cores this process may run on.  That method calls
:func:`~repro.core.vectorized.lloyd_assign_rows` directly on ``X[lo:hi]``
and writes the shard's slice of the fit's labels.  The kernel spends its
time in NumPy calls that release the GIL, and the point matrix is shared
by reference, so per-iteration communication is the O(k·d) centroid
broadcast with no IPC at all.  While the shard threads run, OpenBLAS
runs ``cores // threads`` threads per call, so the shard threads and
their BLAS threads together fit the cores.

Determinism contract
--------------------
Three disciplines carry the bit-identity guarantee:

1. *Row-subset invariant kernel.*  Lloyd's per-point assignment decisions
   are independent across points, so the kernel run on ``X[lo:hi]``
   produces exactly rows ``[lo, hi)`` of the full-matrix pass.
2. *Rank-order merge.*  Shards own disjoint row ranges of the labels, and
   counters merge in shard-rank order (integer accumulation).  Refinement
   is the inherited single-process step: one scatter-add over the full
   matrix, never a sum of per-shard partial sums (float addition is not
   associative).
3. *Supervisor-side centroid context.*  The centroid norms are computed
   once in the supervisor and shared by every shard.

Elkan, Hamerly and Yinyang are not sharded: the first two have no
vectorized implementation, and Yinyang keeps per-iteration *global*
group state inside its assignment pass, so it is not row-subset
decomposable without changing its decision procedure.

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

from repro.common.blas import available_cores, blas_threads
from repro.common.distance import sq_norms
from repro.common.exceptions import ConfigurationError, ValidationError
from repro.core.vectorized import VectorizedLloydKMeans, lloyd_assign_rows
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
    fit: "ShardedLloydKMeans", results: List[Any], first: int, step: int
) -> None:
    """Run shards ``first, first + step, ...`` into their result slots.

    The shard threads' target.  Each slot gets the shard's counters or the
    exception its pass raised; each slot is written by exactly one thread,
    and each shard pass writes only its own rows of the fit's state, so
    threads share nothing mutable.  R007 follows the call on the ``fit``
    parameter to ``_assign_shard`` and the row kernel behind it.
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
    fit: "ShardedLloydKMeans",
) -> Tuple[List[OpCounters], Optional[int]]:
    """Run every shard's pass concurrently on threads.

    One thread per shard, capped at the usable cores (the calling thread
    takes the first stride), against the fit's own arrays.  The kernel
    spends its time in NumPy calls that release the GIL, and X is
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


class ShardedLloydKMeans(VectorizedLloydKMeans):
    """Vectorized Lloyd with its assignment pass fanned out over shards.

    Overrides ``_setup`` (shard ranges), ``_assign`` (shard fan-out) and
    ``_extras`` (the shard count and the fan-out's BLAS thread count).
    Everything else — setup, initialization, refinement, convergence — is
    the inherited single-process implementation, which is exactly why the
    result is bit-identical.
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
        if self._x_sq is None:
            self._x_sq = sq_norms(self.X)
        self._c_sq = sq_norms(self._centroids)
        shard_counters, self._blas_threads = _run_shards(self)
        for counters in shard_counters:
            self.counters.merge(counters)

    def _assign_shard(self, rank: int, counters: OpCounters) -> None:
        """Shard ``rank``'s assignment pass over its rows, in place."""
        lo, hi = self._ranges[rank]
        self._labels[lo:hi] = lloyd_assign_rows(
            self.X[lo:hi], self._centroids, self._x_sq[lo:hi], self._c_sq, counters
        )

    def _extras(self) -> Dict[str, Any]:
        extras = dict(super()._extras())
        extras["shards"] = len(self._ranges)
        extras["blas_threads"] = self._blas_threads
        return extras


#: Algorithms with a sharded implementation (docs/sharding.md).
SHARDED_ALGORITHMS: Dict[str, type] = {"lloyd": ShardedLloydKMeans}


__all__ = [
    "SHARDED_ALGORITHMS",
    "ShardedLloydKMeans",
    "shard_bounds",
]
