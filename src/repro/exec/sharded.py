"""Sharded data-parallel execution of Lloyd's fit.

The paper's Table 3 premise — assignment dominates k-means cost — makes the
assignment pass the first phase worth parallelizing, but once it is split
the serial k-means++ seeding and refinement cap the fit.  This engine
splits the point set into contiguous *shards* and runs all three phases'
row work concurrently, each split so that the fitted model is
**bit-identical** to the single-process vectorized backend regardless of
shard completion order.

Runner
------
:func:`_run_shards` is the fit's one fan-out: it runs a per-rank
``work(rank, counters)`` callable on threads, one per shard, capped at the
cores this process may run on.  The fit hands it three passes:

* ``_seed_shard`` — one k-means++ D² update
  (:func:`~repro.core.initialization._update_closest_sq_certified`) on the
  shard's rows; the sampling stays on the fitting thread;
* ``_assign_shard`` — :func:`~repro.core.vectorized.lloyd_assign_rows` on
  ``X[lo:hi]``, writing the shard's slice of the labels;
* ``_sums_shard`` — under ``rescan`` refinement, the cluster sums of a
  block of columns (:func:`~repro.core.refinement.accumulate_column_sums`)
  from a transposed copy of X that the shards build once per fit, each
  from its own rows (``_transpose_shard``).

The passes spend their time in NumPy calls that release the GIL, and the
point matrix is shared by reference, so per-iteration communication is the
O(k·d) centroid broadcast with no IPC at all.  While the shard threads
run, OpenBLAS runs ``cores // threads`` threads per call, so the shard
threads and their BLAS threads together fit the cores.

Determinism contract
--------------------
Four disciplines carry the bit-identity guarantee:

1. *Row-subset invariant assignment.*  Lloyd's per-point assignment
   decisions are independent across points, so the kernel run on
   ``X[lo:hi]`` produces exactly rows ``[lo, hi)`` of the full-matrix pass.
2. *Certified D² updates.*  A row the matrix-vector score skips is proven
   not to change, and every other row goes through the row-invariant
   ``paired_sq_distances``; so ``closest_sq``, the RNG draws and the picks
   are bitwise the single-process ones, whatever score bits each shard's
   GEMV computes.
3. *Column split, never a partial-sum merge.*  ``np.bincount`` folds each
   (cluster, column) bucket in ascending row order from zero, so each
   shard's block of columns equals those columns of the single-process
   scatter-add bitwise.  Summing per-shard partial sums would not (float
   addition is not associative).  ``delta`` refinement, which accumulates
   into non-zero sums, stays the inherited single-process step.
4. *Supervisor-side context and rank-order merge.*  Centroid norms are
   computed once on the fitting thread and shared by every shard; shards
   own disjoint slices of every output, and counters merge in rank order
   (integer accumulation).

Elkan, Hamerly and Yinyang are not sharded: the first two have no
vectorized implementation, and Yinyang keeps per-iteration *global*
group state inside its assignment pass, so it is not row-subset
decomposable without changing its decision procedure.

Failures
--------
A sharded fit fails like the single-process fit it is bit-identical to.
Every shard thread is joined, then the lowest-rank shard's exception is
re-raised unchanged, in whichever phase it was raised.  A kernel
exception is deterministic, so there is nothing to retry, and no thread
writes state once the fit is over.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.common.blas import available_cores, blas_threads
from repro.common.distance import sq_norms
from repro.common.exceptions import ConfigurationError, ValidationError
from repro.core.initialization import (
    _update_closest_sq_certified,
    init_kmeans_plus_plus,
    initialization_method,
)
from repro.core.refinement import accumulate_column_sums
from repro.core.result import KMeansResult
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


def _shard_stride(
    work: Callable[[int, OpCounters], None], results: List[Any], first: int, step: int
) -> None:
    """Run ``work`` for ranks ``first, first + step, ...`` into their slots.

    The shard threads' target.  Each slot gets the rank's counters or the
    exception its pass raised; each slot is written by exactly one thread,
    and each pass writes only its own rank's slice of the fit's state, so
    threads share nothing mutable.  R007 follows ``work`` to the fit's
    shard passes, and from them to the kernels they call.
    """
    for rank in range(first, len(results), step):
        counters = OpCounters()
        try:
            work(rank, counters)
        except Exception as exc:  # re-raised by _run_shards after the join
            results[rank] = exc
        else:
            results[rank] = counters


def _run_shards(
    work: Callable[[int, OpCounters], None], ranks: int
) -> Tuple[List[OpCounters], Optional[int]]:
    """Run ``work(rank, counters)`` for every rank concurrently on threads.

    The fit's one fan-out, for seeding, assignment and refinement alike.
    One thread per rank, capped at the usable cores (the calling thread
    takes the first stride), against the fit's own arrays.  The passes
    spend their time in NumPy calls that release the GIL, and X is
    shared by reference: no shared memory, no pickling, no spawn.  With
    more than one thread, OpenBLAS runs at ``cores // threads`` threads
    from before the first thread starts until after the last is joined.
    Every thread is joined before this returns or raises; the counters
    come back in rank order with the BLAS thread count applied (``None``
    when single-threaded or without a settable BLAS), and the
    lowest-rank exception, if any, is re-raised unchanged.
    """
    results: List[Any] = [None] * ranks
    cores = available_cores()
    width = max(1, min(ranks, cores))
    budget = blas_threads(max(1, cores // width)) if width > 1 else nullcontext()
    threads: List[threading.Thread] = []
    with budget as applied:
        try:
            for first in range(1, width):
                thread = threading.Thread(
                    target=_shard_stride,
                    args=(work, results, first, width),
                    name=f"repro-shard-{first}",
                )
                thread.start()
                threads.append(thread)
            _shard_stride(work, results, 0, width)
        finally:
            for thread in threads:
                thread.join()
    for outcome in results:
        if isinstance(outcome, Exception):
            raise outcome
    return results, applied


class ShardedLloydKMeans(VectorizedLloydKMeans):
    """Vectorized Lloyd with its row work fanned out over shards.

    Three phases run on the shard threads, each through :func:`_run_shards`:
    the k-means++ D² updates (``_seed``), the assignment pass
    (``_assign``) and, under ``rescan`` refinement, the scatter-add
    (``_cluster_sums``).  Everything else — setup, the seeding draws,
    ``delta`` refinement, convergence — is the inherited single-process
    implementation, and every split phase is exact (module docstring), so
    the result is bit-identical.
    """

    def __init__(self, *, shards: int = 2, **kwargs) -> None:
        super().__init__(**kwargs)
        if int(shards) < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.shards = int(shards)
        self._ranges: List[Tuple[int, int]] = []
        self._blas_threads: Optional[int] = None
        self._d2_update: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._xt: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, k: int, **kwargs) -> KMeansResult:
        # The D² arrays and the transposed copy of X live for one fit.
        try:
            return super().fit(X, k, **kwargs)
        finally:
            self._d2_update = None
            self._xt = None

    def _setup(self) -> None:
        super()._setup()
        self._blas_threads = None
        n = len(self.X)
        # Degenerate shards are clamped away rather than erroring: a tiny
        # smoke fit with shards > n still runs, one row per shard.
        self._ranges = shard_bounds(n, max(1, min(self.shards, n)))

    def _fan_out(
        self, work: Callable[[int, OpCounters], None], counters: Optional[OpCounters]
    ) -> None:
        """One :func:`_run_shards` pass; counters fold in rank order."""
        shard_counters, self._blas_threads = _run_shards(work, len(self._ranges))
        if counters is not None:
            for part in shard_counters:
                counters.merge(part)

    # -- seeding ---------------------------------------------------------

    def _seed(self, init: str, rng: np.random.Generator) -> np.ndarray:
        """k-means++ with its D² updates fanned out; other methods inline."""
        if initialization_method(init) is not init_kmeans_plus_plus:
            return super()._seed(init, rng)
        return init_kmeans_plus_plus(
            self.X, self.k, seed=rng, update_rows=self._update_closest_sq,
        )

    def _update_closest_sq(
        self,
        X: np.ndarray,
        centroid: np.ndarray,
        closest_sq: np.ndarray,
        counters: Optional[OpCounters],
        *,
        x_lower: np.ndarray,
    ) -> None:
        """One k-means++ D² update over the fit's X, fanned out over the
        shards' rows; the ``update_rows`` seam of ``init_kmeans_plus_plus``."""
        self._d2_update = (centroid, closest_sq, x_lower)
        self._fan_out(self._seed_shard, counters)

    def _seed_shard(self, rank: int, counters: OpCounters) -> None:
        """Shard ``rank``'s D² update over its rows, in place."""
        lo, hi = self._ranges[rank]
        centroid, closest_sq, x_lower = self._d2_update
        _update_closest_sq_certified(
            self.X[lo:hi], centroid, closest_sq[lo:hi], counters, x_lower=x_lower[lo:hi]
        )

    # -- assignment ------------------------------------------------------

    def _assign(self, iteration: int) -> None:
        if self._x_sq is None:
            self._x_sq = sq_norms(self.X)
        self._c_sq = sq_norms(self._centroids)
        self._fan_out(self._assign_shard, self.counters)

    def _assign_shard(self, rank: int, counters: OpCounters) -> None:
        """Shard ``rank``'s assignment pass over its rows, in place."""
        lo, hi = self._ranges[rank]
        self._labels[lo:hi] = lloyd_assign_rows(
            self.X[lo:hi], self._centroids, self._x_sq[lo:hi], self._c_sq, counters
        )

    # -- refinement (rescan) ---------------------------------------------

    def _cluster_sums(self) -> np.ndarray:
        """The ``rescan`` sums, split by column into ``self._sums``."""
        if self._xt is None:
            self._xt = np.empty(self.X.shape[::-1])
            self._fan_out(self._transpose_shard, None)
        self._fan_out(self._sums_shard, None)
        return self._sums

    def _transpose_shard(self, rank: int, counters: OpCounters) -> None:
        """Shard ``rank``'s rows of the transposed copy of X."""
        lo, hi = self._ranges[rank]
        self._xt[:, lo:hi] = self.X[lo:hi].T

    def _sums_shard(self, rank: int, counters: OpCounters) -> None:
        """Rank ``rank``'s block of columns of the cluster sums, in place."""
        lo, hi = shard_bounds(len(self._xt), len(self._ranges))[rank]
        accumulate_column_sums(
            self._xt[lo:hi], self._labels, self.k, self._sums[:, lo:hi]
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
