"""Parameter sweeps behind Figures 7, 14, 17 and 18.

A sweep varies one task parameter (data scale ``n``, dimensionality ``d``,
cluster count ``k``, leaf capacity ``f``, or generator variance) while
holding everything else fixed, and runs a set of algorithms at each setting.

Long sweeps are exactly the campaigns a single hung or crashed cell used to
destroy, so :func:`sweep_parameter` optionally routes through the
fault-tolerant runtime: pass ``timeout`` (and optionally a ``log`` with
``resume=True``) and each setting runs under
:func:`repro.eval.parallel.parallel_compare` — failed cells degrade to
:class:`~repro.eval.runtime.FailedRun` entries, completed cells are
checkpointed under their run keys, and a restarted sweep re-runs only what
is missing.  Without those arguments the classic in-process serial path is
used, byte-for-byte unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.eval.harness import AlgorithmSpec, RunRecord, compare_algorithms
from repro.eval.runtime import is_failed_record


def sweep_parameter(
    values: Sequence[Any],
    make_task: Callable[[Any], tuple],
    specs: Iterable[AlgorithmSpec],
    *,
    repeats: int = 2,
    max_iter: int = 10,
    seed: int = 0,
    timeout: Optional[float] = None,
    max_workers: Optional[int] = None,
    log=None,
    resume: bool = False,
    dataset: str = "sweep",
) -> Dict[Any, List[RunRecord]]:
    """Run ``specs`` for every parameter value.

    ``make_task(value)`` returns ``(X, k)`` for that setting.  Results are
    keyed by the swept value, each a list of :class:`RunRecord` (or
    :class:`~repro.eval.runtime.FailedRun` for cells that failed under the
    fault-tolerant path).  Each setting is logged under the dataset label
    ``f"{dataset}[{value}]"`` so run keys distinguish sweep points.
    """
    specs = list(specs)
    fault_tolerant = timeout is not None or log is not None or resume
    out: Dict[Any, List[RunRecord]] = {}
    for value in values:
        X, k = make_task(value)
        if fault_tolerant:
            from repro.eval.parallel import parallel_compare

            out[value] = parallel_compare(
                specs, np.asarray(X), k,
                repeats=repeats, max_iter=max_iter, seed=seed,
                max_workers=max_workers, timeout=timeout,
                dataset=f"{dataset}[{value}]", log=log, resume=resume,
            )
        else:
            out[value] = compare_algorithms(
                specs, np.asarray(X), k, repeats=repeats, max_iter=max_iter,
                seed=seed,
            )
    return out


def series(
    sweep: Dict[Any, List[RunRecord]], algorithm: str, metric: str = "total_time"
) -> List[tuple]:
    """Extract one algorithm's metric as ``(value, metric)`` pairs.

    Failed cells are skipped, so a partially-degraded sweep still plots —
    with a gap where the run failed rather than a crash.
    """
    points = []
    for value, records in sweep.items():
        for record in records:
            if is_failed_record(record):
                continue
            if record.algorithm == algorithm:
                points.append((value, getattr(record, metric)))
                break
    return points
