"""Parallel harness execution (the paper's "Hardware Acceleration" family).

Section 2.2 lists parallelization as an acceleration orthogonal to the
exact-pruning family.  The evaluation harness embarrassingly parallelizes
over (algorithm, task) pairs, so :func:`parallel_compare` runs them in
supervised worker processes — each worker re-runs
:func:`repro.eval.harness.run_algorithm` with identical inputs, so results
are bit-identical to the serial harness (only wall-clock *measurement*
noise differs; counters are deterministic).

Unlike a plain ``ProcessPoolExecutor`` (which dies with
``BrokenProcessPool`` on any worker fault), execution goes through
:func:`repro.eval.runtime.supervised_map`: hung workers are killed at the
``timeout`` deadline, crashed workers don't take the pool down, and every
failure degrades to a :class:`~repro.eval.runtime.FailedRun` entry so the
sweep always completes.  With an :class:`~repro.eval.logdb.EvaluationLog`
attached, every outcome is checkpointed and ``resume=True`` skips cells
the log already holds — re-running only failures.
"""

from __future__ import annotations

import warnings
from typing import Iterable, List, Optional, Tuple, Union

from repro.common.exceptions import ValidationError
from repro.common.validation import check_data_matrix, check_k
from repro.core import BACKENDS
from repro.core.initialization import initialize_centroids
from repro.core.knobs import KnobConfig
from repro.eval.harness import RunRecord, _spec_label, run_algorithm
from repro.eval.runtime import FailedRun, RunKey, supervised_map

SpecLike = Union[str, KnobConfig]

RunOutcome = Union[RunRecord, FailedRun]


def _worker(item: Tuple) -> RunRecord:
    (spec, X, k, initial_centroids, repeats, max_iter, seed,
     backend, shards, save_model, dataset) = item
    # A sharded fit runs its shards on threads inside this worker, with
    # the same rank-order merge, so results stay bit-identical to the
    # serial harness.  Registry saves from concurrent workers are safe:
    # payload paths are content-keyed and manifest appends are
    # flock-serialized (see repro.serve.registry).
    return run_algorithm(
        spec, X, k,
        initial_centroids=initial_centroids,
        repeats=repeats, max_iter=max_iter, seed=seed, backend=backend,
        shards=shards, save_model=save_model, dataset=dataset,
    )


def parallel_compare(
    specs: Iterable[SpecLike],
    X,
    k: int,
    *,
    repeats: int = 2,
    max_iter: int = 10,
    seed: int = 0,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    dataset: str = "",
    log=None,
    resume: bool = False,
    backend: str = "reference",
    shards: int = 1,
    save_model=None,
) -> List[RunOutcome]:
    """Run several algorithm specs concurrently on the same task.

    Shared k-means++ initializations are generated once in the parent so
    every worker clusters from identical centroids (the comparability
    guarantee of the serial harness).  Only string and
    :class:`KnobConfig` specs are accepted — factories do not pickle.

    Fault tolerance (see ``docs/robustness.md``):

    * ``timeout`` — wall-clock budget per run; a hung worker is killed and
      the cell recorded as timed out.
    * A failed cell (timeout, crashed worker, or exception) degrades to a
      :class:`FailedRun` entry in the returned list, with a warning.  It
      is not retried: its run key pins its inputs, so it would fail again.
    * ``log`` / ``resume`` — with an :class:`EvaluationLog`, every outcome
      is appended as it lands; ``resume=True`` loads already-completed
      cells from the log (marked ``extras["resumed"]``) instead of
      re-running them, so a restarted campaign re-runs only failures.
    * ``backend`` — execution backend for string specs (``"reference"`` or
      ``"vectorized"``; see ``docs/backends.md``).  Counters and
      trajectories are backend-invariant, so cells are resumable across
      backends; only wall-clock metrics differ.
    * ``shards`` — with ``shards > 1`` (and
      ``backend="vectorized"``), each worker runs its fit through the
      sharded engine (``repro.exec.sharded``), whose shards run on
      threads inside the worker — the merge discipline is identical, so
      results remain bit-identical and resumable against single-process
      cells.
    * ``save_model`` — a :class:`repro.serve.ModelRegistry` (or directory
      path) each worker persists its first-repeat fitted model to.  The
      registry tolerates concurrent workers by design (content-keyed
      payload paths, flock-serialized manifest appends); the entry key
      comes back in each record's ``extras["model_key"]``.
    """
    specs = list(specs)
    for spec in specs:
        if not isinstance(spec, (str, KnobConfig)):
            raise TypeError(
                "parallel_compare accepts algorithm names or KnobConfig "
                f"values; got {type(spec).__name__}"
            )
    if backend not in BACKENDS:
        raise ValidationError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    if resume and log is None:
        raise ValidationError("resume=True requires an EvaluationLog via log=")
    X = check_data_matrix(X)
    k = check_k(k, X.shape[0])
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    if max_workers is not None and max_workers < 1:
        raise ValidationError(f"max_workers must be >= 1, got {max_workers}")
    n, d = X.shape
    keys = [
        RunKey(
            algorithm=_spec_label(spec), dataset=dataset, n=n, d=d, k=k,
            seed=seed, max_iter=max_iter,
        )
        for spec in specs
    ]

    results: List[Optional[RunOutcome]] = [None] * len(specs)
    if resume:
        completed = log.completed_keys()
        for index, key in enumerate(keys):
            if key in completed:
                stored = log.latest_success(key)
                if stored is not None:
                    record = RunRecord.from_dict(stored)
                    record.extras["resumed"] = True
                    results[index] = record
    todo = [index for index in range(len(specs)) if results[index] is None]
    if todo:
        initial_centroids = [
            initialize_centroids(X, k, "k-means++", seed=seed + r)
            for r in range(repeats)
        ]
        items = [
            (specs[i], X, k, initial_centroids, repeats, max_iter, seed,
             backend, shards, save_model, dataset)
            for i in todo
        ]
        outcomes = supervised_map(
            _worker, items, [keys[i] for i in todo],
            timeout=timeout, max_workers=max_workers,
        )
        for index, outcome in zip(todo, outcomes):
            results[index] = outcome
            if log is not None:
                if isinstance(outcome, FailedRun):
                    log.add(outcome)
                else:
                    log.add(outcome, dataset=dataset, seed=seed, max_iter=max_iter)
            if isinstance(outcome, FailedRun):
                warnings.warn(
                    f"run {outcome.key} failed: "
                    f"{outcome.error_type}: {outcome.message}",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return results
