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
    One matrix-vector score per D² update picks the rows whose new distance
    could undercut their ``closest_sq`` (:func:`_update_closest_sq_certified`;
    a skipped row provably keeps its value), and one
    :func:`~repro.common.distance.paired_sq_distances` call evaluates just
    those rows exactly.  That kernel is bit-identical per row to
    ``sq_euclidean``, so the ``closest_sq`` array — and therefore the
    sampling probability vector handed to the RNG — carries the exact same
    64-bit floats as the scalar path.  Both backends make the *same RNG
    calls in the same order* (one ``integers`` for the first pick, one
    ``choice``/``integers`` per subsequent pick), so under the same seed
    they select identical centroid rows: the seeding-parity contract
    enforced by ``tests/test_backend_conformance.py``.

Counter totals are backend-independent (``n`` distances + ``n`` point
accesses per D² update), per the backend doctrine that counters measure the
paper's cost model, never BLAS calls.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.common.distance import (
    NEAREST_BLOCK_ROWS,
    centroid_scores,
    certificate_margin,
    paired_sq_distances,
    sq_euclidean,
    sq_norms,
)
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
    *,
    update_rows: Optional[Callable[..., None]] = None,
) -> np.ndarray:
    """k-means++ seeding: each next centroid sampled ∝ squared distance.

    This is the exact (non-greedy) k-means++ of Arthur & Vassilvitskii.
    ``backend="vectorized"`` scores each D² update with one matrix-vector
    product and evaluates exactly only the rows the score cannot clear;
    picks, centroids and counter totals are identical to the reference
    under the same seed (see module docstring).

    ``update_rows`` is an internal seam for the sharded engine
    (``repro.exec.sharded``): it replaces the vectorized D² update over
    the whole row range, with the signature of
    :func:`_update_closest_sq_certified`, and must leave ``closest_sq``
    as that kernel would.  The sampling stays here, on the caller's
    thread.  ``None`` (the default) runs the whole row range inline.
    """
    _check_backend(backend)
    X = check_data_matrix(X)
    k = check_k(k, len(X))
    rng = ensure_rng(seed)
    n = len(X)
    centroids = np.empty((k, X.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = X[first]
    update = _closest_sq_update(X, backend, update_rows)
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


def _closest_sq_update(
    X: np.ndarray, backend: str, certified: Optional[Callable[..., None]] = None
) -> Callable[..., None]:
    """The D² update of ``backend``: ``update(X, centroid, closest_sq, counters)``.

    The vectorized backend runs ``certified`` (default
    :func:`_update_closest_sq_certified`; the sharded engine passes a
    fan-out of it over row ranges) with the per-row norm bound.
    """
    if backend == "reference":
        return _update_closest_sq_reference
    x_sq = sq_norms(X)
    with np.errstate(invalid="ignore"):  # an overflowed |x|² gives NaN
        x_lower = x_sq - certificate_margin(x_sq, 0.0, X.shape[1])
    return partial(certified or _update_closest_sq_certified, x_lower=x_lower)


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


def _update_closest_sq_certified(
    X: np.ndarray,
    centroid: np.ndarray,
    closest_sq: np.ndarray,
    counters: Optional[OpCounters],
    *,
    x_lower: np.ndarray,
) -> None:
    """Batched D² update: exact distances only for rows a score cannot clear.

    One matrix-vector product gives every row the lower bound ``s − 2M``
    on its new exact distance: ``s = |x|² + |c|² − 2x·c`` is the score,
    and ``2M`` the :func:`~repro.common.distance.certificate_margin` of
    ``S = |x|² + |c|²``, which covers the rounding of ``s`` and of the
    exact kernel together (the one-sided lemma there).  ``x_lower`` is
    ``|x|²`` minus its share of the margin, computed once per seeding;
    the centroid's share is subtracted here.  A row is skipped when its
    bound reaches ``closest_sq``: its exact ``|x − c|²`` is then not below
    ``closest_sq``, and the reference's strict-``<`` rule keeps the old
    value.  A non-finite bound never skips: an overflowed ``|x|²`` or
    ``|c|²`` makes it NaN, and ``+inf`` is excluded explicitly, so the
    first update, against ``closest_sq = inf``, skips nothing.

    Skipped rows keep their bits; every other row is updated through the
    row-subset-invariant ``paired_sq_distances`` with the reference's
    strict-``<`` rule, so ``closest_sq`` stays bitwise equal to the scalar
    path's — which is what makes the next RNG draw pick the same index.
    The scores are numerics of the skip, not the paper's cost model, so
    they are uncounted; the charge stays ``n`` distances and ``n`` point
    accesses per update, as for the reference.

    The exact rows are evaluated in blocks of ``NEAREST_BLOCK_ROWS``, so
    the gathered rows and their differences stay two block-sized arrays
    even when every row is evaluated (the first update); each row's bits
    do not depend on its block.
    """
    if counters is not None:
        counters.add_point_accesses(len(X))
        counters.add_distances(len(X))
    with np.errstate(over="ignore", invalid="ignore"):
        c_sq = float(sq_norms(centroid)[0])
        lower = centroid_scores(X, centroid, c_sq)
        lower += x_lower
        lower -= certificate_margin(0.0, c_sq, X.shape[1])
        rows = np.flatnonzero(~((lower >= closest_sq) & (lower < np.inf)))
    for start in range(0, len(rows), NEAREST_BLOCK_ROWS):
        block = rows[start:start + NEAREST_BLOCK_ROWS]
        new_sq = paired_sq_distances(X[block], centroid)
        better = new_sq < closest_sq[block]
        closest_sq[block[better]] = new_sq[better]


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
    func = initialization_method(method)
    return func(X, k, seed=seed, counters=counters, backend=backend)


def initialization_method(method: str) -> Callable[..., np.ndarray]:
    """The initializer registered under ``method`` (case-insensitive)."""
    try:
        return _INIT_METHODS[method.lower()]
    except KeyError:
        known = ", ".join(sorted(set(_INIT_METHODS)))
        raise ConfigurationError(
            f"unknown initialization {method!r}; known methods: {known}"
        ) from None
