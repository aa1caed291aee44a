"""Golden-trace regression: replay committed trajectories on both backends.

The files under ``tests/golden/`` pin the *full* observable trajectory of
Lloyd/Elkan/Hamerly/Yinyang/index k-means on two fixed seeds: per-iteration
labels, per-iteration counter deltas, final centroids, SSE, and convergence.
The reference backend must reproduce every file exactly, and the vectorized
backend every file of an algorithm in ``VECTORIZED_ALGORITHMS`` (Lloyd and
Yinyang; Elkan, Hamerly and index replay on the reference only) — so a
future refactor cannot silently change a convergence path, re-charge a
counter, or drift a centroid by one ulp, even if it still lands on the same
clustering.

If a test here fails because of a *deliberate, reviewed* behavioral change,
regenerate with ``PYTHONPATH=src python tests/golden/generate_traces.py``
and commit the diff — it documents the change reviewably.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import BACKENDS, VECTORIZED_ALGORITHMS

from tests.trace_utils import (
    GOLDEN_ALGORITHMS,
    GOLDEN_SEEDS,
    capture_trace,
    golden_path,
    golden_task,
    traced_algorithm,
)

COUNTER_FIELDS = (
    "changed",
    "distance_computations",
    "point_accesses",
    "node_accesses",
    "bound_accesses",
    "bound_updates",
)


def _load_golden(name: str, seed: int) -> dict:
    path = golden_path(name, seed)
    assert path.exists(), (
        f"missing golden trace {path.name}; run "
        "`PYTHONPATH=src python tests/golden/generate_traces.py`"
    )
    return json.loads(path.read_text())


#: (name, seed, backend) replay cells: every golden file on the reference
#: backend, and on the vectorized backend where one exists
REPLAY_CELLS = [
    (name, seed, backend)
    for name in GOLDEN_ALGORITHMS
    for seed in GOLDEN_SEEDS
    for backend in BACKENDS
    if backend == "reference" or name in VECTORIZED_ALGORITHMS
]


@pytest.mark.parametrize("name, seed, backend", REPLAY_CELLS)
def test_replay_matches_golden(name, seed, backend):
    golden = _load_golden(name, seed)
    X, k, C0, max_iter = golden_task(seed)
    trace = capture_trace(traced_algorithm(name, backend), X, k, C0, max_iter)

    assert trace["n_iter"] == golden["n_iter"], (
        f"{name}/{backend}: iteration count changed "
        f"({trace['n_iter']} vs golden {golden['n_iter']})"
    )
    assert trace["converged"] == golden["converged"]
    # JSON floats round-trip via shortest repr, so equality is bit-exact.
    assert trace["sse"] == golden["sse"]
    assert trace["final_centroids"] == golden["final_centroids"], (
        f"{name}/{backend}: final centroids diverge from golden trace"
    )
    assert len(trace["iterations"]) == len(golden["iterations"])
    for t, (got, want) in enumerate(zip(trace["iterations"], golden["iterations"])):
        mismatched = int(
            np.count_nonzero(np.array(got["labels"]) != np.array(want["labels"]))
        )
        assert mismatched == 0, (
            f"{name}/{backend} iteration {t}: {mismatched} label(s) diverge "
            "from golden trace"
        )
        for field in COUNTER_FIELDS:
            assert got[field] == want[field], (
                f"{name}/{backend} iteration {t}: {field} changed "
                f"({got[field]} vs golden {want[field]})"
            )


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("name", GOLDEN_ALGORITHMS)
def test_golden_file_is_well_formed(name, seed):
    golden = _load_golden(name, seed)
    X, k, _, _ = golden_task(seed)
    assert golden["algorithm"] == name
    assert (golden["n"], golden["d"], golden["k"]) == (X.shape[0], X.shape[1], k)
    assert golden["n_iter"] == len(golden["iterations"])
    assert golden["converged"] is True, "golden tasks must run to convergence"
    assert golden["iterations"][-1]["changed"] == 0
    for iteration in golden["iterations"]:
        assert len(iteration["labels"]) == golden["n"]
