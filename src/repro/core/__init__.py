"""Core clustering algorithms: Lloyd, all accelerated variants, and UniK.

The :data:`ALGORITHMS` registry maps names to classes; :func:`make_algorithm`
builds instances by name, and :class:`KMeans` is the user-facing facade.

Two execution backends exist (see ``docs/backends.md``): ``"reference"``
(the pointwise scalar implementations, ground truth for counter semantics)
and ``"vectorized"`` (NumPy-batched replacements for Lloyd and Yinyang
that reproduce the reference labels, centroids, iteration counts and
counter totals exactly — enforced by
``tests/test_backend_conformance.py``).  Both backends seed k-means++
through the same certified D² update (``repro.core.initialization``).
Select with ``make_algorithm(name, backend="vectorized")`` or
``KMeans(..., backend="vectorized")``.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

import numpy as np

from repro.common.distance import nearest_centroids
from repro.common.exceptions import ConfigurationError
from repro.core.annular import AnnularKMeans
from repro.core.base import DEFAULT_MAX_ITER, KMeansAlgorithm, compute_sse
from repro.core.drake import DrakeKMeans
from repro.core.drift import DriftKMeans
from repro.core.elkan import ElkanKMeans
from repro.core.exponion import ExponionKMeans
from repro.core.full import FullKMeans
from repro.core.hamerly import HamerlyKMeans
from repro.core.heap import HeapKMeans
from repro.core.index_kmeans import IndexKMeans
from repro.core.initialization import (
    init_kmeans_plus_plus,
    init_random,
    initialize_centroids,
)
from repro.core.knobs import (
    BOUND_KNOBS,
    INDEX_KNOBS,
    SELECTION_POOL,
    KnobConfig,
    build_algorithm,
    configuration_pool,
)
from repro.core.lloyd import LloydKMeans
from repro.core.minibatch import MiniBatchKMeans, SampledKMeans
from repro.core.pami20 import Pami20KMeans
from repro.core.regroup import RegroupKMeans
from repro.core.result import IterationStats, KMeansResult
from repro.core.search import SearchKMeans
from repro.core.sphere import SphereKMeans
from repro.core.unik import UniKKMeans
from repro.core.vector import VectorKMeans
from repro.core.vectorized import (
    VECTORIZED_ALGORITHMS,
    VectorizedLloydKMeans,
    VectorizedYinyangKMeans,
)
from repro.core.yinyang import YinyangKMeans

ALGORITHMS: Dict[str, Type[KMeansAlgorithm]] = {
    "lloyd": LloydKMeans,
    "elkan": ElkanKMeans,
    "hamerly": HamerlyKMeans,
    "drake": DrakeKMeans,
    "yinyang": YinyangKMeans,
    "regroup": RegroupKMeans,
    "heap": HeapKMeans,
    "annular": AnnularKMeans,
    "exponion": ExponionKMeans,
    "drift": DriftKMeans,
    "vector": VectorKMeans,
    "pami20": Pami20KMeans,
    "search": SearchKMeans,
    "index": IndexKMeans,
    "unik": UniKKMeans,
    "full": FullKMeans,
    # Discovered hybrid configuration (Section A.5); exact.
    "sphere": SphereKMeans,
    # Approximate accelerations (Section 2.2 taxonomy) — not exact Lloyd.
    "minibatch": MiniBatchKMeans,
    "sampled": SampledKMeans,
}

#: algorithms guaranteed to reproduce Lloyd's trajectory exactly
EXACT_ALGORITHMS = tuple(
    name for name in ALGORITHMS if name not in ("minibatch", "sampled")
)

#: the selectable execution backends
BACKENDS = ("reference", "vectorized")


def make_algorithm(
    name: str, *, backend: str = "reference", shards: int = 1, **kwargs
) -> KMeansAlgorithm:
    """Instantiate an algorithm by registry name.

    ``backend`` selects the execution backend: ``"reference"`` (default;
    every algorithm) or ``"vectorized"`` (NumPy-batched, currently
    :data:`VECTORIZED_ALGORITHMS`; exact — same labels, centroids,
    iteration counts and counter totals as the reference).  Extra keyword
    arguments go to the algorithm constructor, e.g.
    ``make_algorithm("index", index="kd-tree")`` or
    ``make_algorithm("yinyang", backend="vectorized", t=4)``.

    ``shards > 1`` selects the sharded execution engine
    (``repro.exec.sharded``): seeding, assignment and refinement fan out
    across concurrent shard threads, each split exactly —
    bit-identical to the single-process vectorized backend, and failing
    with the same exception it would.  Requires ``backend="vectorized"``
    (the shard kernels *are* the vectorized kernels) and an algorithm in
    ``repro.exec.sharded.SHARDED_ALGORITHMS`` (docs/sharding.md).
    ``shards < 1`` is a :class:`ConfigurationError`.
    """
    key = name.lower()
    if key not in ALGORITHMS:
        known = ", ".join(sorted(ALGORITHMS))
        raise ConfigurationError(
            f"unknown algorithm {name!r}; known algorithms: {known}"
        )
    if int(shards) < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if int(shards) > 1:
        if backend != "vectorized":
            raise ConfigurationError(
                "sharded execution requires backend='vectorized' (the shard "
                f"kernels are the vectorized kernels); got backend={backend!r}"
            )
        # Imported lazily: repro.exec.sharded itself imports this package's
        # vectorized module, and most callers never shard.
        from repro.exec.sharded import SHARDED_ALGORITHMS

        if key not in SHARDED_ALGORITHMS:
            known = ", ".join(sorted(SHARDED_ALGORITHMS))
            raise ConfigurationError(
                f"algorithm {name!r} has no sharded implementation; "
                f"sharded execution supports: {known}"
            )
        return SHARDED_ALGORITHMS[key](shards=int(shards), **kwargs)
    if backend == "reference":
        cls = ALGORITHMS[key]
    elif backend == "vectorized":
        if key not in VECTORIZED_ALGORITHMS:
            available = ", ".join(sorted(VECTORIZED_ALGORITHMS))
            raise ConfigurationError(
                f"algorithm {name!r} has no vectorized implementation; "
                f"vectorized backends exist for: {available}"
            )
        cls = VECTORIZED_ALGORITHMS[key]
    else:
        raise ConfigurationError(
            f"unknown backend {backend!r}; known backends: {', '.join(BACKENDS)}"
        )
    return cls(**kwargs)


class KMeans:
    """User-facing facade over the algorithm registry.

    Example
    -------
    >>> from repro.core import KMeans
    >>> model = KMeans(k=10, algorithm="unik", seed=0)
    >>> result = model.fit(X)
    >>> result.labels, result.centroids, result.sse  # doctest: +SKIP
    """

    def __init__(
        self,
        k: int,
        *,
        algorithm: str = "unik",
        backend: str = "reference",
        shards: int = 1,
        init: str = "k-means++",
        max_iter: int = DEFAULT_MAX_ITER,
        tol: float = 0.0,
        seed: Optional[int] = None,
        **algorithm_kwargs,
    ) -> None:
        self.k = int(k)
        self.algorithm_name = algorithm
        self.backend = backend
        self.shards = int(shards)
        self.init = init
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.seed = seed
        self.algorithm_kwargs = algorithm_kwargs
        self.result_: Optional[KMeansResult] = None

    def fit(self, X: np.ndarray, initial_centroids: Optional[np.ndarray] = None) -> KMeansResult:
        """Cluster ``X``; returns (and stores in ``result_``) the result."""
        algorithm = make_algorithm(
            self.algorithm_name,
            backend=self.backend,
            shards=self.shards,
            **self.algorithm_kwargs,
        )
        self.result_ = algorithm.fit(
            X,
            self.k,
            init=self.init,
            initial_centroids=initial_centroids,
            max_iter=self.max_iter,
            tol=self.tol,
            seed=self.seed,
        )
        return self.result_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Assign new points to the fitted centroids (nearest centroid)."""
        if self.result_ is None:
            raise ConfigurationError("predict called before fit")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        # Serving-path convenience; uncounted by design (op without counters).
        return nearest_centroids(X, self.result_.centroids)


__all__ = [
    "ALGORITHMS",
    "BACKENDS",
    "EXACT_ALGORITHMS",
    "VECTORIZED_ALGORITHMS",
    "BOUND_KNOBS",
    "DEFAULT_MAX_ITER",
    "INDEX_KNOBS",
    "SELECTION_POOL",
    "IterationStats",
    "KMeans",
    "KMeansAlgorithm",
    "KMeansResult",
    "KnobConfig",
    "build_algorithm",
    "compute_sse",
    "configuration_pool",
    "init_kmeans_plus_plus",
    "init_random",
    "initialize_centroids",
    "make_algorithm",
    "LloydKMeans",
    "ElkanKMeans",
    "HamerlyKMeans",
    "DrakeKMeans",
    "YinyangKMeans",
    "RegroupKMeans",
    "HeapKMeans",
    "AnnularKMeans",
    "ExponionKMeans",
    "DriftKMeans",
    "VectorKMeans",
    "Pami20KMeans",
    "SearchKMeans",
    "IndexKMeans",
    "UniKKMeans",
    "FullKMeans",
    "VectorizedLloydKMeans",
    "VectorizedYinyangKMeans",
    "SphereKMeans",
    "MiniBatchKMeans",
    "SampledKMeans",
]
