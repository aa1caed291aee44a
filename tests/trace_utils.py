"""Trace capture shared by the golden-trace generator and regression tests.

A *trace* is the full observable trajectory of one clustering run: the
label vector after every assignment pass, the per-iteration counter
deltas, and the final centroids/SSE.  Golden traces are captured once from
the reference backend (the ground truth for counter semantics, see
``docs/backends.md``) and committed under ``tests/golden/``; the
regression test replays **both** backends against them, so a refactor
that silently changes a convergence path — even one that still reaches
the same fixed point — fails loudly.

Everything is serialized as plain JSON.  Python floats round-trip through
``json`` via shortest-repr, so float comparisons against a golden file
are bit-exact, not approximate.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Tuple, Type

import numpy as np

from repro.core import ALGORITHMS, VECTORIZED_ALGORITHMS
from repro.core.base import KMeansAlgorithm
from repro.core.initialization import init_kmeans_plus_plus
from repro.datasets import make_uniform

#: the algorithms with golden traces (= everything with a vectorized backend)
GOLDEN_ALGORITHMS = ("elkan", "hamerly", "yinyang", "lloyd", "index")
#: the two fixed seeds each algorithm is traced on
GOLDEN_SEEDS = (0, 1)

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_task(seed: int) -> Tuple[np.ndarray, int, np.ndarray, int]:
    """The fixed task a golden trace is captured on: (X, k, C0, max_iter).

    Uniform data is deliberate: it is the pruning worst case, so runs
    take ~10 iterations to converge and the traces exercise many
    assignment passes (blobs converge in 2-3, which regresses nothing).
    """
    X = make_uniform(120, 4, seed=23)
    C0 = init_kmeans_plus_plus(X, 6, seed=seed)
    return X, 6, C0, 30


def golden_path(name: str, seed: int) -> Path:
    return GOLDEN_DIR / f"trace_{name}_seed{seed}.json"


def _algorithm_class(name: str, backend: str) -> Type[KMeansAlgorithm]:
    if backend == "reference":
        return ALGORITHMS[name]
    return VECTORIZED_ALGORITHMS[name]


def traced_class(cls: Type[KMeansAlgorithm]) -> Type[KMeansAlgorithm]:
    """Subclass that records a copy of the labels after every assignment."""

    class Traced(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.trace_labels: List[np.ndarray] = []

        def _assign(self, iteration: int) -> None:
            super()._assign(iteration)
            self.trace_labels.append(self._labels.copy())

    Traced.__name__ = f"Traced{cls.__name__}"
    Traced.__qualname__ = Traced.__name__
    return Traced


def traced_algorithm(name: str, backend: str) -> KMeansAlgorithm:
    """Build the traced algorithm instance one matrix cell replays.

    The cell under test — (algorithm, execution backend) — is fixed
    *here*, once, and :func:`capture_trace` just runs whatever instance it
    is handed.  That keeps the replay helpers reusable across the
    conformance matrix: new cells configure an instance instead of
    re-deriving classes at every call site.
    """
    algorithm = traced_class(_algorithm_class(name, backend))()
    # The registry key, not ``algorithm.name`` (which can carry a variant
    # suffix, e.g. "index-ball-tree"): golden files are keyed by registry
    # name so replays on any backend compare against the same file.
    algorithm.trace_name = name
    return algorithm


def capture_trace(
    algorithm: KMeansAlgorithm,
    X: np.ndarray,
    k: int,
    initial_centroids: np.ndarray,
    max_iter: int,
) -> Dict[str, Any]:
    """Run one traced instance and serialize its trajectory to a JSON dict."""
    result = algorithm.fit(
        X, k, initial_centroids=initial_centroids, max_iter=max_iter
    )
    iterations = []
    for labels, stats in zip(algorithm.trace_labels, result.iteration_stats):
        iterations.append(
            {
                "labels": labels.tolist(),
                "changed": stats.changed,
                "distance_computations": stats.distance_computations,
                "point_accesses": stats.point_accesses,
                "node_accesses": stats.node_accesses,
                "bound_accesses": stats.bound_accesses,
                "bound_updates": stats.bound_updates,
            }
        )
    return {
        "algorithm": getattr(algorithm, "trace_name", algorithm.name),
        "n": result.n,
        "d": result.d,
        "k": result.k,
        "n_iter": result.n_iter,
        "converged": result.converged,
        "sse": result.sse,
        "final_centroids": result.centroids.tolist(),
        "iterations": iterations,
    }
