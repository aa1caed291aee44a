"""Vectorized Yinyang keeps the reference's bound state bit for bit.

The vectorized backend seeds ``ub``/``glb`` from certified GEMM scores and
scans groups the same way, evaluating exactly only the entries a bound
stores.  The conformance suite compares results and counters; a last-bit
drift in a stored bound that has not yet flipped a decision would pass it.
Here both backends run in lockstep and ``_labels``, ``_ub`` and ``_glb``
are compared bitwise after every assignment pass and every bound update,
on inputs built to break the certificate: duplicate centroids,
equidistant grid points, 1e8 offsets (where the GEMM scores carry
rounding errors larger than the distance gaps), groups of size 1, t=1,
t=k and k=2.  Spies confirm that the iteration-0 fallback and the scan
fallback really ran.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.common.distance as distance
import repro.core.vectorized as vectorized
from repro.core import make_algorithm
from repro.core.pruning import GroupView
from repro.instrumentation.counters import OpCounters

MAX_ITER = 8


def _bits(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, a.tobytes()


def _record(alg, states: list) -> None:
    """Snapshot the bound state after every assignment and bound update."""
    assign, update = alg._assign, alg._update_bounds

    def snapshot(where: str) -> None:
        states.append((where, alg._labels.copy(), alg._ub.copy(), alg._glb.copy()))

    def recorded_assign(iteration: int) -> None:
        assign(iteration)
        snapshot(f"assign {iteration}")

    def recorded_update(drifts: np.ndarray) -> None:
        update(drifts)
        snapshot(f"bound update after {states[-1][0]}")

    alg._assign = recorded_assign
    alg._update_bounds = recorded_update


def assert_lockstep(X: np.ndarray, C0: np.ndarray, t: int, max_iter: int = MAX_ITER):
    """Both backends agree bitwise on the bound state at every step."""
    __tracebackhide__ = True
    runs = {}
    for backend in ("reference", "vectorized"):
        alg = make_algorithm("yinyang", backend=backend, t=t)
        states: list = []
        _record(alg, states)
        with np.errstate(over="ignore", invalid="ignore"):
            result = alg.fit(X, len(C0), initial_centroids=C0, max_iter=max_iter)
        runs[backend] = (result, states, alg.groups.t)
    (ref, ref_states, ref_t), (vec, vec_states, vec_t) = runs["reference"], runs["vectorized"]
    assert ref_t == vec_t
    assert len(ref_states) == len(vec_states)
    for (where, *ref_arrays), (_, *vec_arrays) in zip(ref_states, vec_states):
        for name, a, b in zip(("labels", "ub", "glb"), ref_arrays, vec_arrays):
            assert _bits(a) == _bits(b), f"{where}: {name} differs between backends"
    assert _bits(ref.centroids) == _bits(vec.centroids)
    assert ref.n_iter == vec.n_iter
    assert ref.counters == vec.counters
    for ref_it, vec_it in zip(ref.iteration_stats, vec.iteration_stats):
        assert ref_it.distance_computations == vec_it.distance_computations
        assert ref_it.point_accesses == vec_it.point_accesses
        assert ref_it.bound_accesses == vec_it.bound_accesses
        assert ref_it.bound_updates == vec_it.bound_updates
    return vec_t


def assert_one_scan(X, C, group_of, labels, glb, drifts):
    """One later-iteration pass from a planted state agrees bitwise."""
    __tracebackhide__ = True
    states = {}
    for backend in ("reference", "vectorized"):
        alg = make_algorithm("yinyang", backend=backend)
        alg.X, alg.k, alg.counters = X, len(C), OpCounters()
        alg._setup()
        alg._centroids, alg._labels = C, labels.copy()
        alg.groups = GroupView(group_of)
        alg._ub = np.full(len(X), np.inf)
        alg._glb = glb.copy()
        alg._last_drifts = drifts
        alg._group_decay = alg.groups.max_drift_per_group(drifts)
        alg._assign(1)
        states[backend] = (alg._labels, alg._ub, alg._glb, alg.counters.as_dict())
    ref, vec = states["reference"], states["vectorized"]
    for name, a, b in zip(("labels", "ub", "glb"), ref, vec):
        assert _bits(a) == _bits(b), f"{name} differs between backends"
    assert ref[3] == vec[3]
    return vec[0]


@pytest.fixture
def seed_fallback(monkeypatch):
    """Row counts of the iteration-0 exact fallback of the certified op."""
    calls = []
    exact = distance.chunked_sq_distances

    def spy(A, B, *args, **kwargs):
        calls.append(len(A))
        return exact(A, B, *args, **kwargs)

    monkeypatch.setattr(distance, "chunked_sq_distances", spy)
    return calls


@pytest.fixture
def scan_fallback(monkeypatch):
    """Point counts of the scan's exact survivor-block fallback."""
    calls = []
    exact = vectorized.exact_group_cells

    def spy(X_rows, C_group, survive):
        calls.append(len(X_rows))
        return exact(X_rows, C_group, survive)

    monkeypatch.setattr(vectorized, "exact_group_cells", spy)
    return calls


def _blobs(rng, n: int, d: int, centers: int, spread: float = 0.6) -> np.ndarray:
    means = rng.normal(size=(centers, d)) * 4.0
    return means[rng.integers(0, centers, size=n)] + rng.normal(size=(n, d)) * spread


class TestPlantedCases:
    def test_large_offset_takes_both_fallbacks(self, seed_fallback, scan_fallback):
        # At |x|² ≈ 3e16 the scores err by more than the unit-scale gaps.
        rng = np.random.default_rng(0)
        X = 1e8 + _blobs(rng, 300, 3, 6)
        C0 = X[rng.choice(len(X), 9, replace=False)]
        assert_lockstep(X, C0, t=3)
        assert sum(seed_fallback) > 0
        assert sum(scan_fallback) > 0

    def test_scan_runner_up_near_tie(self, scan_fallback):
        # Every point moves from centroid 0 to centroid 1, a certain winner;
        # its group's runner-up is a near-tie between centroids 2 and 3,
        # closer than the scores' rounding error at this offset.  Only the
        # runner-up certificate keeps the refreshed group bound exact.
        rng = np.random.default_rng(6)
        offset = 1e8
        C = offset + np.array([[-1e4, 0.0], [0.0, 0.0], [1e4, 1.0], [1e4, -1.0]])
        X = offset + np.column_stack([rng.uniform(-1, 1, 100), rng.uniform(-0.2, 0.2, 100)])
        labels = assert_one_scan(
            X, C, np.array([0, 1, 1, 1]), np.zeros(100, dtype=np.intp),
            glb=np.zeros((100, 2)), drifts=np.zeros(4),
        )
        assert (labels == 1).all()
        assert sum(scan_fallback) > 0

    def test_duplicate_centroids(self, seed_fallback):
        rng = np.random.default_rng(1)
        X = _blobs(rng, 300, 2, 5)
        C0 = X[rng.choice(len(X), 8, replace=False)]
        C0[5] = C0[1]
        C0[7] = C0[1]
        assert_lockstep(X, C0, t=3)
        assert sum(seed_fallback) > 0

    def test_equidistant_grid_points(self, seed_fallback):
        # Integer grid data and grid-point centroids: many exact ties.
        rng = np.random.default_rng(2)
        X = rng.integers(-4, 5, size=(400, 2)).astype(float)
        C0 = np.array([[-2.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.0, -2.0], [2.0, 2.0], [-2.0, -2.0]])
        assert_lockstep(X, C0, t=2)
        assert sum(seed_fallback) > 0

    @pytest.mark.parametrize("t", [1, 4])
    def test_group_counts(self, t):
        rng = np.random.default_rng(3)
        X = _blobs(rng, 400, 4, 8, spread=1.2)
        C0 = X[rng.choice(len(X), 10, replace=False)]
        assert assert_lockstep(X, C0, t=t) == t

    def test_singleton_groups(self):
        # t=k: every group has one member, so the group holding a point's
        # label has no candidate left and its bound starts at +inf.
        rng = np.random.default_rng(4)
        X = _blobs(rng, 200, 3, 5)
        C0 = X[rng.choice(len(X), 5, replace=False)]
        assert assert_lockstep(X, C0, t=5) == 5

    def test_k_equals_two(self):
        rng = np.random.default_rng(5)
        X = _blobs(rng, 200, 2, 3)
        C0 = X[:2].copy()
        assert_lockstep(X, C0, t=1)
        assert_lockstep(X, C0, t=2)


@st.composite
def problems(draw):
    """Small (X, initial centroids, t) draws rich in ties and cancellation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 60))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(2, min(7, n)))
    if draw(st.booleans()):
        X = rng.integers(-3, 4, size=(n, d)).astype(float)
    else:
        X = _blobs(rng, n, d, draw(st.integers(1, 4)))
    X = X * draw(st.sampled_from([1e-3, 1.0, 1e3])) + draw(st.sampled_from([0.0, 1e4, 1e8]))
    C0 = X[rng.choice(n, k, replace=False)].copy()
    if draw(st.booleans()):
        C0[rng.integers(0, k)] = C0[rng.integers(0, k)]
    return X, C0, draw(st.integers(1, k))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems())
def test_bound_state_matches_reference(problem):
    X, C0, t = problem
    assert_lockstep(X, C0, t, max_iter=6)
