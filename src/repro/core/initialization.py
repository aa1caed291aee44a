"""Centroid initialization: random and k-means++ (Arthur & Vassilvitskii).

The paper uses k-means++ by default and shows in its appendix (Figure 16)
that the *relative* speedups of the accelerated methods are insensitive to
the initialization choice; both options are provided so that experiment can
be reproduced.

One seeding for both backends
-----------------------------
k-means++ has a single D² update, :func:`_update_closest_sq_certified`,
whatever ``backend`` the caller names.  One matrix-vector score per
update picks the rows whose new distance could undercut their
``closest_sq`` (a skipped row provably keeps its value), and one
:func:`~repro.common.distance.paired_sq_distances` call evaluates just
those rows exactly.  That kernel is bit-identical per row to
:func:`~repro.common.distance.sq_euclidean`, so the ``closest_sq`` array —
and therefore the sampling probability vector handed to the RNG — carries
the exact same 64-bit floats as the pointwise scalar loop of the paper's
pseudocode, and the RNG calls are the same (one ``integers`` for the first
pick, one ``choice``/``integers`` per subsequent pick).  Under the same
seed the picks are those of the scalar loop, which the tests keep as the
parity oracle (``TestSeedingParity`` in
``tests/test_backend_conformance.py``, plugged in through the
``update_rows`` seam).

Counter totals are those of the scalar loop (``n`` distances + ``n`` point
accesses per D² update), per the backend doctrine that counters measure
the paper's cost model, never BLAS calls.
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

    ``backend`` is validated but selects nothing: random seeding has no
    distance computations, so both backends share this code.
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
    Each D² update scores every row with one matrix-vector product and
    evaluates exactly only the rows the score cannot clear; picks,
    centroids and counter totals are those of the pointwise scalar loop
    under the same seed (see module docstring).  ``backend`` is validated
    but selects nothing: both backends seed through the same update.

    ``update_rows`` is a seam for the sharded engine
    (``repro.exec.sharded``) and for the tests' scalar oracle: it replaces
    the D² update over the whole row range, with the signature of
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
    update = _closest_sq_update(X, update_rows)
    closest_sq = np.full(n, np.inf)
    update(X, centroids[0], closest_sq, counters)
    for j in range(1, k):
        centroids[j] = X[_draw_d2(rng, closest_sq)]
        update(X, centroids[j], closest_sq, counters)
    return centroids


def _draw_d2(rng: np.random.Generator, closest_sq: np.ndarray) -> int:
    """One index drawn with probability ∝ ``closest_sq``, in one RNG call.

    When the D² total overflows, the weights are divided by their maximum
    first; if a row's own D² overflowed to ``inf``, the rows at ``inf``
    share the mass equally (the limit of the finite rule).
    """
    n = len(closest_sq)
    with np.errstate(over="ignore"):
        total = float(closest_sq.sum())
    if total <= 0.0:
        # All remaining points coincide with chosen centroids; fall back
        # to uniform choice among the rest.
        return int(rng.integers(0, n))
    if np.isfinite(total):
        return int(rng.choice(n, p=closest_sq / total))
    top = float(closest_sq.max())
    weights = (closest_sq == top) if np.isinf(top) else closest_sq / top
    return int(rng.choice(n, p=weights / weights.sum()))


def _closest_sq_update(
    X: np.ndarray, update_rows: Optional[Callable[..., None]] = None
) -> Callable[..., None]:
    """The D² update ``update(X, centroid, closest_sq, counters)``.

    It runs ``update_rows`` (default :func:`_update_closest_sq_certified`;
    the sharded engine passes a fan-out of it over row ranges) with the
    per-row norm bound ``x_lower``, computed once here.
    """
    x_sq = sq_norms(X)
    with np.errstate(invalid="ignore"):  # an overflowed |x|² gives NaN
        x_lower = x_sq - certificate_margin(x_sq, 0.0, X.shape[1])
    return partial(update_rows or _update_closest_sq_certified, x_lower=x_lower)


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
    ``closest_sq``, and the scalar loop's strict-``<`` rule keeps the old
    value.  A non-finite bound never skips: an overflowed ``|x|²`` or
    ``|c|²`` makes it NaN, and ``+inf`` is excluded explicitly, so the
    first update, against ``closest_sq = inf``, skips nothing.

    Skipped rows keep their bits; every other row is updated through the
    row-subset-invariant ``paired_sq_distances`` with the same strict-``<``
    rule, so ``closest_sq`` stays bitwise equal to the scalar loop's —
    which is what makes the next RNG draw pick the same index.
    The scores are numerics of the skip, not the paper's cost model, so
    they are uncounted; the charge stays ``n`` distances and ``n`` point
    accesses per update, as for the scalar loop.

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
    """Dispatch to an initialization method by name.

    ``backend`` is validated by the method and selects nothing.
    """
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
