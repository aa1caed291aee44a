"""The certified GEMM ops equal the exact kernel's argmin and minima.

``nearest_centroids`` answers from a blocked GEMM scan and recomputes only
the rows its rounding-error certificate cannot vouch for.  Whatever path a
row takes, its label must be ``np.argmin(chunked_sq_distances(X, C))`` —
first index on ties — and the charge must be exactly ``m·k`` distances.
``nearest_and_group_minima`` (vectorized Yinyang's iteration 0) adds the
per-group minima with the label excluded, which must equal the exact
kernel's entries bit for bit.  The planted cases below force the exact
fallback (ties, duplicate centroids, cancellation, non-finite values) and
assert that it ran.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.common.distance as distance
from repro.common.distance import (
    NEAREST_BLOCK_ROWS,
    centroid_scores,
    certified_argmin,
    chunked_sq_distances,
    nearest_and_group_minima,
    nearest_centroids,
    sq_norms,
)
from repro.core.vectorized import lloyd_assign_rows
from repro.instrumentation.counters import OpCounters


def exact_labels(X, C):
    return np.argmin(chunked_sq_distances(X, C), axis=1)


def assert_exact(X, C):
    """Labels equal the exact argmin and the charge is exactly m·k."""
    __tracebackhide__ = True
    counters = OpCounters()
    labels = nearest_centroids(X, C, counters)
    assert labels.dtype == np.intp
    assert labels.shape == (len(X),)
    assert np.array_equal(labels, exact_labels(X, C))
    assert counters.as_dict() == {
        **OpCounters().as_dict(),
        "distance_computations": len(X) * len(C),
    }
    return labels


@pytest.fixture
def fallback(monkeypatch):
    """Row counts of every exact-fallback call the op makes."""
    calls = []

    def spy(A, B, *args, **kwargs):
        calls.append(len(A))
        return chunked_sq_distances(A, B, *args, **kwargs)

    monkeypatch.setattr(distance, "chunked_sq_distances", spy)
    return calls


@st.composite
def problems(draw):
    """(X, C) pairs rich in ties, duplicates and cancellation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, 8))
    if draw(st.booleans()):
        # A coarse integer grid makes exactly equidistant points common.
        X = rng.integers(-2, 3, size=(n, d)).astype(float)
        C = rng.integers(-2, 3, size=(k, d)).astype(float)
    else:
        X = rng.normal(size=(n, d))
        C = rng.normal(size=(k, d))
    if k > 1 and draw(st.booleans()):
        C[rng.integers(0, k)] = C[rng.integers(0, k)]
    if n and draw(st.booleans()):
        C[rng.integers(0, k)] = X[rng.integers(0, n)]
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    offset = draw(st.sampled_from([0.0, 1e4, 1e8]))
    return X * scale + offset, C * scale + offset


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems())
def test_labels_equal_exact_argmin(problem):
    assert_exact(*problem)


class TestPlantedCases:
    def test_duplicate_centroids_take_first_index(self, fallback):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 3))
        C = rng.normal(size=(2, 3))
        labels = assert_exact(X, np.vstack([C, C]))
        assert set(labels) <= {0, 1}
        # Every row's best and runner-up coincide: all rows fall back.
        assert fallback == [50]

    def test_equidistant_points(self, fallback):
        C = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
        X = np.column_stack([np.zeros(7), np.linspace(-3.0, 2.0, 7)])
        labels = assert_exact(X, C)
        assert (labels == 0).all()
        assert fallback == [7]

    def test_cancellation_at_large_offset(self, fallback):
        # At |x|² ≈ 3e16 the GEMM scores carry rounding errors of order 1,
        # larger than the unit-scale distance gaps; without the exact
        # fallback the speculative labels would be wrong.
        rng = np.random.default_rng(1)
        X = 1e8 + rng.normal(size=(300, 3))
        C = 1e8 + rng.normal(size=(5, 3))
        c_sq = sq_norms(C)
        speculative = np.argmin(c_sq[None, :] - 2.0 * (X @ C.T), axis=1)
        assert not np.array_equal(speculative, exact_labels(X, C))
        assert_exact(X, C)
        assert sum(fallback) > 0

    def test_non_finite_rows_fall_back(self, fallback):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 2))
        X[1] = np.nan
        X[4] = 1e200  # the scores overflow
        C = rng.normal(size=(3, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            assert_exact(X, C)
        assert fallback == [2]

    def test_separated_data_never_falls_back(self, fallback):
        rng = np.random.default_rng(3)
        C = rng.normal(size=(8, 4)) * 10.0
        X = C[rng.integers(0, 8, size=500)] + rng.normal(size=(500, 4)) * 0.1
        assert_exact(X, C)
        assert fallback == []

    def test_single_centroid(self):
        X = np.random.default_rng(4).normal(size=(9, 3))
        assert (assert_exact(X, np.ones((1, 3))) == 0).all()

    def test_zero_rows(self):
        assert_exact(np.empty((0, 3)), np.eye(3))

    @pytest.mark.parametrize(
        "m", [NEAREST_BLOCK_ROWS - 1, NEAREST_BLOCK_ROWS, NEAREST_BLOCK_ROWS + 1]
    )
    def test_block_boundaries(self, m, fallback):
        rng = np.random.default_rng(m)
        C = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
        X = rng.normal(size=(m, 2))
        X[-1] = [0.0, -1.0]  # a tie in the last row, whichever block holds it
        labels = assert_exact(X, C)
        assert labels[-1] == 0
        assert len(fallback) == 1 and fallback[0] >= 1

    def test_cached_norms_change_nothing(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 5))
        C = rng.normal(size=(7, 5))
        assert np.array_equal(
            nearest_centroids(X, C, x_sq=sq_norms(X), c_sq=sq_norms(C)),
            nearest_centroids(X, C),
        )

    def test_row_subsets_agree(self):
        # Shards and serving batches see arbitrary row subsets.
        rng = np.random.default_rng(6)
        X = rng.integers(-2, 3, size=(400, 3)).astype(float)
        C = rng.integers(-2, 3, size=(6, 3)).astype(float)
        full = nearest_centroids(X, C)
        for lo, hi in [(0, 1), (3, 97), (97, 400)]:
            assert np.array_equal(nearest_centroids(X[lo:hi], C), full[lo:hi])


def test_lloyd_assign_rows_charges_the_lloyd_cost():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 3))
    C = rng.normal(size=(5, 3))
    counters = OpCounters()
    labels = lloyd_assign_rows(X, C, sq_norms(X), sq_norms(C), counters)
    assert np.array_equal(labels, exact_labels(X, C))
    assert counters.distance_computations == 200
    assert counters.point_accesses == 200


class TestCertifiedArgmin:
    def test_masks_the_winner_for_a_runner_up_call(self):
        scores = np.array([[3.0, 1.0, 2.0], [5.0, 5.0, 0.0]])
        margin = np.full(2, 0.5)
        winner, certified = certified_argmin(scores, margin)
        assert winner.tolist() == [1, 2]
        assert certified.tolist() == [True, True]
        runner, certified = certified_argmin(scores, margin)
        assert runner.tolist() == [2, 0]
        # Row 1's runner-up ties with the third candidate.
        assert certified.tolist() == [True, False]

    def test_lone_rows(self):
        inf = np.inf
        scores = np.array([[inf, 4.0, inf], [inf, inf, inf], [inf, np.nan, inf], [1.0, 2.0, inf]])
        lone = np.array([True, True, True, False])
        with np.errstate(invalid="ignore"):
            winner, certified = certified_argmin(scores, np.zeros(4), lone)
        assert winner[0] == 1
        # A lone row certifies only with a finite score.
        assert certified.tolist() == [True, False, False, True]


def exact_group_minima(X, C, members):
    E = chunked_sq_distances(X, C)
    rows = np.arange(len(X))
    labels = np.argmin(E, axis=1)
    own = E[rows, labels]
    E[rows, labels] = np.inf
    groups = np.stack([E[:, mem].min(axis=1) for mem in members], axis=1)
    return labels, own, groups


def assert_group_minima_exact(X, C, members):
    __tracebackhide__ = True
    counters = OpCounters()
    with np.errstate(over="ignore", invalid="ignore"):
        got = nearest_and_group_minima(X, C, members, counters)
        want = exact_group_minima(X, C, members)
    for name, a, b in zip(("labels", "own_sq", "group_sq"), got, want):
        assert a.tobytes() == b.tobytes(), f"{name} differs from the exact kernel"
    assert got[0].dtype == np.intp
    assert counters.distance_computations == len(X) * len(C)


def random_groups(rng, k):
    t = int(rng.integers(1, k + 1))
    group_of = np.concatenate([np.arange(t), rng.integers(0, t, size=k - t)])
    rng.shuffle(group_of)
    return [np.flatnonzero(group_of == g) for g in range(t)]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems(), group_seed=st.integers(0, 2**32 - 1))
def test_group_minima_equal_exact_entries(problem, group_seed):
    X, C = problem
    assert_group_minima_exact(X, C, random_groups(np.random.default_rng(group_seed), len(C)))


class TestGroupMinimaPlanted:
    def test_group_near_tie_behind_a_clear_label(self, fallback):
        # The label is certain, but the two members of the other group are
        # closer to each other than the scores' rounding error at this
        # offset: the speculative group argmin is often wrong, so only the
        # group certificate keeps the bound exact.
        rng = np.random.default_rng(8)
        offset = 1e8
        C = offset + np.array([[0.0, 0.0], [1e4, 1.0], [1e4, -1.0]])
        X = offset + np.column_stack(
            [rng.uniform(-1.0, 1.0, 200), rng.uniform(-0.2, 0.2, 200)]
        )
        members = [np.array([0]), np.array([1, 2])]
        speculative = np.argmin(centroid_scores(X, C, sq_norms(C))[:, 1:], axis=1)
        assert not np.array_equal(speculative, np.argmin(chunked_sq_distances(X, C)[:, 1:], axis=1))
        assert_group_minima_exact(X, C, members)
        assert sum(fallback) > 0

    def test_singleton_groups_and_empty_exclusions(self, fallback):
        rng = np.random.default_rng(9)
        C = rng.normal(size=(4, 3)) * 5.0
        X = C[rng.integers(0, 4, size=100)] + rng.normal(size=(100, 3)) * 0.1
        assert_group_minima_exact(X, C, [np.array([j]) for j in range(4)])
        assert fallback == []

    def test_duplicate_centroids_fall_back(self, fallback):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 2))
        C = rng.normal(size=(3, 2))
        C = np.vstack([C, C[:1]])
        assert_group_minima_exact(X, C, [np.array([0, 1]), np.array([2, 3])])
        assert sum(fallback) > 0

    def test_single_centroid(self):
        X = np.random.default_rng(11).normal(size=(9, 3))
        assert_group_minima_exact(X, np.ones((1, 3)), [np.array([0])])

    def test_zero_rows(self):
        assert_group_minima_exact(np.empty((0, 3)), np.eye(3), [np.array([0, 2]), np.array([1])])

    def test_block_boundary(self):
        rng = np.random.default_rng(12)
        m = NEAREST_BLOCK_ROWS + 3
        X = rng.integers(-2, 3, size=(m, 2)).astype(float)
        C = rng.integers(-2, 3, size=(5, 2)).astype(float)
        assert_group_minima_exact(X, C, [np.array([0, 3]), np.array([1, 2, 4])])
