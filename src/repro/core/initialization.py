"""Centroid initialization: random and k-means++ (Arthur & Vassilvitskii).

The paper uses k-means++ by default and shows in its appendix (Figure 16)
that the *relative* speedups of the accelerated methods are insensitive to
the initialization choice; both options are provided so that experiment can
be reproduced.

Backends and seeding parity
---------------------------
Like the clustering algorithms, k-means++ exists in both execution
backends (``docs/backends.md``):

``reference``
    The pointwise scalar loop — one :func:`~repro.common.distance.sq_euclidean`
    call per point per D² update, the ground truth for counter semantics.
``vectorized``
    One :func:`~repro.common.distance.paired_sq_distances` call per D²
    update, over only the rows the triangle inequality cannot rule out
    (:class:`_PrunedClosestSqUpdate`; a skipped row provably keeps its
    value).  That kernel is bit-identical per row to ``sq_euclidean``, so
    the ``closest_sq`` array — and therefore the sampling probability
    vector handed to the RNG — carries the exact same 64-bit floats as the
    scalar path.  Both backends make the *same RNG calls in the same
    order* (one ``integers`` for the first pick, one ``choice``/``integers``
    per subsequent pick), so under the same seed they select identical
    centroid rows: the seeding-parity contract enforced by
    ``tests/test_backend_conformance.py``.

Counter totals are backend-independent (``n`` distances + ``n`` point
accesses per D² update), per the backend doctrine that counters measure the
paper's cost model, never BLAS calls.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.common.distance import paired_sq_distances, sq_euclidean
from repro.common.exceptions import ConfigurationError
from repro.common.rng import SeedLike, ensure_rng
from repro.common.validation import check_data_matrix, check_k
from repro.instrumentation.counters import OpCounters


def init_random(
    X: np.ndarray,
    k: int,
    seed: SeedLike = None,
    counters: Optional[OpCounters] = None,
    backend: str = "reference",
) -> np.ndarray:
    """Choose ``k`` distinct data points uniformly at random as centroids.

    ``backend`` is accepted for dispatch uniformity; random seeding has no
    distance computations to vectorize, so both backends share this code.
    """
    _check_backend(backend)
    X = check_data_matrix(X)
    k = check_k(k, len(X))
    rng = ensure_rng(seed)
    chosen = rng.choice(len(X), size=k, replace=False)
    if counters is not None:
        counters.add_point_accesses(k)
    return X[chosen].copy()


def init_kmeans_plus_plus(
    X: np.ndarray,
    k: int,
    seed: SeedLike = None,
    counters: Optional[OpCounters] = None,
    backend: str = "reference",
) -> np.ndarray:
    """k-means++ seeding: each next centroid sampled ∝ squared distance.

    This is the exact (non-greedy) k-means++ of Arthur & Vassilvitskii.
    ``backend="vectorized"`` batches each D² update into one row-paired
    kernel call; picks, centroids and counter totals are identical to the
    reference under the same seed (see module docstring).
    """
    _check_backend(backend)
    X = check_data_matrix(X)
    k = check_k(k, len(X))
    rng = ensure_rng(seed)
    n = len(X)
    centroids = np.empty((k, X.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = X[first]
    update = (
        _PrunedClosestSqUpdate(n)
        if backend == "vectorized"
        else _update_closest_sq_reference
    )
    closest_sq = np.full(n, np.inf)
    update(X, centroids[0], closest_sq, counters)
    for j in range(1, k):
        total = float(closest_sq.sum())
        if total <= 0.0:
            # All remaining points coincide with chosen centroids; fall back
            # to uniform choice among the rest.
            pick = int(rng.integers(0, n))
        else:
            pick = int(rng.choice(n, p=closest_sq / total))
        centroids[j] = X[pick]
        update(X, centroids[j], closest_sq, counters)
    return centroids


def _update_closest_sq_reference(
    X: np.ndarray,
    centroid: np.ndarray,
    closest_sq: np.ndarray,
    counters: Optional[OpCounters],
) -> None:
    """Pointwise D² update: one scalar distance per point (``n`` charged)."""
    if counters is not None:
        counters.add_point_accesses(len(X))
    for i in range(len(X)):
        new_sq = sq_euclidean(X[i], centroid, counters)
        if new_sq < closest_sq[i]:
            closest_sq[i] = new_sq


#: relative slack of the pruning test; it absorbs the rounding of the three
#: computed squared distances the lemma compares (each errs by ~(d+2)·eps)
_PRUNE_SLACK = 1e-6
#: absolute slack of the pruning test, far above the absolute error of
#: gradual underflow (~d·2^-1075) and far below any normal-range distance
_PRUNE_FLOOR = 2.0 ** -1000


class _PrunedClosestSqUpdate:
    """Batched D² update that skips rows the new seed provably cannot win.

    Pruning lemma (Elkan's; Raff applies it to k-means++): if row ``x`` is
    closest to seed ``o`` and ``|c_o − c_new| ≥ 2|x − c_o|``, the triangle
    inequality gives ``|x − c_new| ≥ |c_o − c_new| − |x − c_o| ≥ |x − c_o|``,
    so the reference's strict-``<`` update would keep ``closest_sq[x]``.
    The test runs on computed squares,
    ``|c_o − c_new|² ≥ 4(1+1e-6)·closest_sq + 2^-1000``; the slack
    outweighs the rounding of all three squared distances (each within
    ~(d+2)·eps relative, plus the underflow error), so the computed
    ``|x − c_new|²`` is never below the computed ``closest_sq`` for a
    skipped row.  A row whose ``4·closest_sq`` overflows gets a NaN limit,
    which no comparison passes: it is never skipped.

    Skipped rows keep their bits; every other row is updated through the
    row-subset-invariant ``paired_sq_distances`` with the reference's
    strict-``<`` rule, so ``closest_sq`` stays bitwise equal to the scalar
    path's — which is what makes the next RNG draw pick the same index.
    Seed-to-seed distances are numerics of the pruning, not the paper's
    cost model, so they are uncounted; the charge stays ``n`` distances
    and ``n`` point accesses per update, as for the reference.
    """

    def __init__(self, n: int) -> None:
        self.seeds: List[np.ndarray] = []
        #: index into ``seeds`` of the seed each row's ``closest_sq`` is from
        self.owner = np.zeros(n, dtype=np.intp)
        self.limit = np.full(n, np.nan)

    def __call__(
        self,
        X: np.ndarray,
        centroid: np.ndarray,
        closest_sq: np.ndarray,
        counters: Optional[OpCounters],
    ) -> None:
        if counters is not None:
            counters.add_point_accesses(len(X))
            counters.add_distances(len(X))
        if self.seeds:
            seed_sq = paired_sq_distances(np.asarray(self.seeds), centroid)
            rows = np.flatnonzero(~(seed_sq[self.owner] >= self.limit))
        else:
            rows = np.arange(len(X))
        new_sq = paired_sq_distances(X[rows], centroid)
        better = new_sq < closest_sq[rows]
        rows, new_sq = rows[better], new_sq[better]
        closest_sq[rows] = new_sq
        self.owner[rows] = len(self.seeds)
        with np.errstate(over="ignore"):
            limit = 4.0 * (1.0 + _PRUNE_SLACK) * new_sq + _PRUNE_FLOOR
        limit[limit == np.inf] = np.nan
        self.limit[rows] = limit
        self.seeds.append(centroid)


_INIT_METHODS = {
    "random": init_random,
    "k-means++": init_kmeans_plus_plus,
    "kmeans++": init_kmeans_plus_plus,
}


def _check_backend(backend: str) -> None:
    if backend not in ("reference", "vectorized"):
        raise ConfigurationError(
            f"unknown backend {backend!r}; known backends: reference, vectorized"
        )


def initialize_centroids(
    X: np.ndarray,
    k: int,
    method: str = "k-means++",
    seed: SeedLike = None,
    counters: Optional[OpCounters] = None,
    backend: str = "reference",
) -> np.ndarray:
    """Dispatch to an initialization method by name."""
    try:
        func = _INIT_METHODS[method.lower()]
    except KeyError:
        known = ", ".join(sorted(set(_INIT_METHODS)))
        raise ConfigurationError(
            f"unknown initialization {method!r}; known methods: {known}"
        ) from None
    return func(X, k, seed=seed, counters=counters, backend=backend)
