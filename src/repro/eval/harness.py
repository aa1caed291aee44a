"""Run harness: executes algorithms under identical conditions.

The paper's measurement protocol (Section 7.1): run the first ten
iterations, average over ten sets of k-means++ initial centroids, and record
running time, pruning power, data accesses, bound accesses/updates, and
footprint.  :func:`compare_algorithms` reproduces that protocol — every
algorithm receives the *same* initial centroids per repeat, so differences
are attributable to the method alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.common.exceptions import ValidationError
from repro.common.validation import check_data_matrix, check_k
from repro.core import KnobConfig, build_algorithm, make_algorithm
from repro.core.base import KMeansAlgorithm
from repro.core.initialization import initialize_centroids
from repro.core.result import KMeansResult

AlgorithmSpec = Union[str, KnobConfig, Callable[[], KMeansAlgorithm]]

#: iteration budget used in the paper's timing experiments
PAPER_ITER_BUDGET = 10


@dataclass
class RunRecord:
    """Averaged metrics of one (algorithm, task) pair across repeats."""

    algorithm: str
    n: int
    d: int
    k: int
    repeats: int
    total_time: float
    assignment_time: float
    refinement_time: float
    setup_time: float
    sse: float
    n_iter: float
    pruning_ratio: float
    distance_computations: float
    point_accesses: float
    node_accesses: float
    bound_accesses: float
    bound_updates: float
    footprint_floats: float
    modeled_cost: float = 0.0
    extras: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        record = {
            "algorithm": self.algorithm,
            "n": self.n,
            "d": self.d,
            "k": self.k,
            "repeats": self.repeats,
            "total_time": self.total_time,
            "assignment_time": self.assignment_time,
            "refinement_time": self.refinement_time,
            "setup_time": self.setup_time,
            "sse": self.sse,
            "n_iter": self.n_iter,
            "pruning_ratio": self.pruning_ratio,
            "distance_computations": self.distance_computations,
            "point_accesses": self.point_accesses,
            "node_accesses": self.node_accesses,
            "bound_accesses": self.bound_accesses,
            "bound_updates": self.bound_updates,
            "footprint_floats": self.footprint_floats,
            "modeled_cost": self.modeled_cost,
        }
        record.update(self.extras)
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        """Rebuild a record from its :meth:`as_dict` form (log round-trip).

        Unknown keys — logging context such as ``dataset``/``seed``, or the
        original extras — land in ``extras``; the ``status`` discriminator
        used by failed records is dropped.
        """
        field_names = [f.name for f in dataclasses.fields(cls) if f.name != "extras"]
        missing = [name for name in ("algorithm", "n", "d", "k") if name not in data]
        if missing:
            raise ValidationError(f"record is missing run fields {missing}: {data}")
        kwargs = {name: data[name] for name in field_names if name in data}
        kwargs.setdefault("repeats", 1)
        for name in field_names:
            kwargs.setdefault(name, 0.0)
        extras = {
            key: value
            for key, value in data.items()
            if key not in field_names and key != "status"
        }
        return cls(extras=extras, **kwargs)


def _materialize(
    spec: AlgorithmSpec,
    backend: str = "reference",
    shards: int = 1,
) -> KMeansAlgorithm:
    if isinstance(spec, str):
        return make_algorithm(spec, backend=backend, shards=shards)
    if isinstance(spec, KnobConfig):
        return build_algorithm(spec)
    return spec()


def _spec_label(spec: AlgorithmSpec) -> str:
    if isinstance(spec, str):
        return spec
    if isinstance(spec, KnobConfig):
        return spec.label
    return _materialize(spec).name


def run_algorithm(
    spec: AlgorithmSpec,
    X: np.ndarray,
    k: int,
    *,
    initial_centroids: Optional[Sequence[np.ndarray]] = None,
    repeats: int = 3,
    max_iter: int = PAPER_ITER_BUDGET,
    seed: int = 0,
    backend: str = "reference",
    shards: int = 1,
    save_model=None,
    dataset: str = "",
) -> RunRecord:
    """Run one algorithm ``repeats`` times and average the metrics.

    When ``initial_centroids`` is not given, k-means++ seeds with
    ``seed + r`` are generated per repeat (and are identical for any other
    algorithm run with the same arguments — the comparability guarantee).

    ``backend`` selects the execution backend for string specs (see
    ``docs/backends.md``); counters and trajectories are backend-invariant,
    so only wall-clock metrics change.  ``shards > 1`` routes string specs
    through the sharded engine (``repro.exec.sharded``; requires
    ``backend="vectorized"``) — results stay bit-identical to the
    single-process vectorized run, so comparability is preserved there
    too.  :class:`KnobConfig` and factory specs carry their own
    construction and ignore backend and shards.

    ``save_model`` optionally persists the *first* repeat's fitted model
    to a :class:`repro.serve.ModelRegistry` (an instance or a directory
    path); the entry key lands in ``extras["model_key"]`` so downstream
    consumers (logs, the serving CLI) can find the artifact.  The first
    repeat is the canonical one: its seed is exactly ``seed``, so the
    saved model is reproducible from the run key alone.

    Raises :class:`ValidationError` up front for ``repeats < 1``, ``k < 1``,
    ``k > n``, or non-finite ``X`` — the harness boundary is where bad
    campaign configs must surface, not deep inside a distance kernel.
    """
    X = check_data_matrix(X)
    k = check_k(k, X.shape[0])
    if initial_centroids is None:
        if repeats < 1:
            raise ValidationError(f"repeats must be >= 1, got {repeats}")
        # Seeding is one code path for every backend (the certified D²
        # update of repro.core.initialization), so every backend and
        # algorithm starts from the same centroids.
        initial_centroids = [
            initialize_centroids(X, k, "k-means++", seed=seed + r)
            for r in range(repeats)
        ]
    elif len(initial_centroids) < 1:
        raise ValidationError("initial_centroids must contain at least one seeding")
    results: List[KMeansResult] = []
    for centroids in initial_centroids:
        algorithm = _materialize(spec, backend, shards)
        results.append(
            algorithm.fit(X, k, initial_centroids=centroids, max_iter=max_iter)
        )
    record = _aggregate(_spec_label(spec), results)
    if save_model is not None:
        # Imported lazily: repro.serve is a consumer of eval's records, so
        # the top-level import would be circular for no benefit.
        from repro.serve.registry import ModelRegistry

        registry = (
            save_model if isinstance(save_model, ModelRegistry)
            else ModelRegistry(save_model)
        )
        key = registry.save_model(
            results[0], dataset=dataset, backend=backend,
            shards=shards, seed=seed,
        )
        record.extras["model_key"] = key
        record.extras["model_registry"] = str(registry.root)
    return record


def _aggregate(label: str, results: List[KMeansResult]) -> RunRecord:
    def mean(attr: Callable[[KMeansResult], float]) -> float:
        return float(np.mean([attr(r) for r in results]))

    first = results[0]
    extras = dict(first.extras)
    return RunRecord(
        algorithm=label,
        n=first.n,
        d=first.d,
        k=first.k,
        repeats=len(results),
        total_time=mean(lambda r: r.total_time),
        assignment_time=mean(lambda r: r.assignment_time),
        refinement_time=mean(lambda r: r.refinement_time),
        setup_time=mean(lambda r: r.setup_time),
        sse=mean(lambda r: r.sse),
        n_iter=mean(lambda r: r.n_iter),
        pruning_ratio=mean(lambda r: r.pruning_ratio),
        distance_computations=mean(lambda r: r.counters.distance_computations),
        point_accesses=mean(lambda r: r.counters.point_accesses),
        node_accesses=mean(lambda r: r.counters.node_accesses),
        bound_accesses=mean(lambda r: r.counters.bound_accesses),
        bound_updates=mean(lambda r: r.counters.bound_updates),
        footprint_floats=mean(lambda r: r.footprint_floats),
        modeled_cost=mean(lambda r: r.modeled_cost),
        extras=extras,
    )


def compare_algorithms(
    specs: Iterable[AlgorithmSpec],
    X: np.ndarray,
    k: int,
    *,
    repeats: int = 3,
    max_iter: int = PAPER_ITER_BUDGET,
    seed: int = 0,
    backend: str = "reference",
    shards: int = 1,
) -> List[RunRecord]:
    """Run several algorithms on the same task with shared initializations."""
    X = check_data_matrix(X)
    k = check_k(k, X.shape[0])
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    initial_centroids = [
        initialize_centroids(X, k, "k-means++", seed=seed + r)
        for r in range(repeats)
    ]
    return [
        run_algorithm(
            spec, X, k,
            initial_centroids=initial_centroids,
            repeats=repeats, max_iter=max_iter, seed=seed, backend=backend,
            shards=shards,
        )
        for spec in specs
    ]


def speedup_table(
    records: List[RunRecord], baseline: str = "lloyd"
) -> Dict[str, Dict[str, float]]:
    """Speedups over a baseline record, wall-clock and work-based.

    ``time`` is the wall-clock ratio (the paper's headline number);
    ``work`` is the distance-computation ratio, which is hardware- and
    language-independent and therefore the faithful cross-substrate
    comparison (see EXPERIMENTS.md).

    Failed cells (``FailedRun`` entries from the fault-tolerant runtime)
    are skipped — they carry no metrics; the baseline itself must have
    succeeded.
    """
    by_name = {
        record.algorithm: record
        for record in records
        if getattr(record, "status", None) != "failed"
    }
    if baseline not in by_name:
        raise KeyError(f"baseline {baseline!r} not among records: {sorted(by_name)}")
    base = by_name[baseline]
    table: Dict[str, Dict[str, float]] = {}
    for name, record in by_name.items():
        table[name] = {
            "time": base.total_time / record.total_time if record.total_time else float("inf"),
            "assignment": (
                base.assignment_time / record.assignment_time
                if record.assignment_time
                else float("inf")
            ),
            "refinement": (
                base.refinement_time / record.refinement_time
                if record.refinement_time
                else float("inf")
            ),
            "work": (
                base.distance_computations / record.distance_computations
                if record.distance_computations
                else float("inf")
            ),
            "cost": (
                base.modeled_cost / record.modeled_cost
                if record.modeled_cost
                else float("inf")
            ),
            "pruning": record.pruning_ratio,
        }
    return table
