import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palmpat import (
    DistanceGrid,
    InvalidInputError,
    PointPattern,
    RipleyCurve,
    Window,
    f_function,
    g_function,
    j_function,
    nn_stats,
    simulate_csr,
)
from oracles import brute_f_values, brute_g_values, brute_knn_distances, uniform_reference_stream


def pattern_on(window, coords):
    return PointPattern(window, np.asarray(coords, dtype=float))


# ---------------------------------------------------------------- grids


def test_grid_validation():
    with pytest.raises(InvalidInputError):
        DistanceGrid([3.0, 2.0])
    with pytest.raises(InvalidInputError):
        DistanceGrid([-1.0, 2.0])
    with pytest.raises(InvalidInputError):
        DistanceGrid([1.0, 1.0])


def test_default_grid_spans_half_shorter_side():
    grid = DistanceGrid.default(Window(0, 0, 40, 100), steps=11)
    assert grid.values[0] == 0.0
    assert grid.values[-1] == 20.0
    assert len(grid) == 11


# ---------------------------------------------------------------- G


def test_g_strict_inequality_at_exact_distance():
    p = pattern_on(Window(0, 0, 10, 10), [[0, 0], [5, 0]])
    curve = g_function(p, DistanceGrid([3.0, 5.0, 6.0]))
    assert curve.values.tolist() == [0.0, 0.0, 1.0]


def test_g_collinear():
    p = pattern_on(Window(-1, -1, 4, 1), [[0, 0], [1, 0], [3, 0]])
    curve = g_function(p, DistanceGrid([1.5]))
    assert curve.values.tolist() == [2.0 / 3.0]


def test_g_matches_brute_force():
    rng = np.random.default_rng(7)
    coords = rng.uniform(0, 100, size=(100, 2))
    p = pattern_on(Window(0, 0, 100, 100), coords)
    grid = DistanceGrid(np.sort(rng.uniform(0, 60, size=25)))
    np.testing.assert_array_equal(
        g_function(p, grid).values, brute_g_values(coords, grid.values)
    )


def test_g_is_one_beyond_max_nn_distance():
    rng = np.random.default_rng(3)
    coords = rng.uniform(0, 10, size=(40, 2))
    p = pattern_on(Window(0, 0, 10, 10), coords)
    max_nnd = brute_knn_distances(coords, 1).max()
    curve = g_function(p, DistanceGrid([max_nnd * 1.0001]))
    assert curve.values.tolist() == [1.0]


def test_g_requires_two_points():
    with pytest.raises(InvalidInputError):
        g_function(pattern_on(Window(0, 0, 1, 1), [[0.5, 0.5]]), DistanceGrid([1.0]))


# ---------------------------------------------------------------- F


def test_f_is_one_beyond_window_diagonal():
    w = Window(0, 0, 10, 10)
    p = simulate_csr(w, 20, seed=1)
    curve = f_function(p, DistanceGrid([math.hypot(w.width, w.height) * 1.01]), 500, seed=2)
    assert curve.values.tolist() == [1.0]


def test_f_is_zero_at_distance_zero():
    w = Window(0, 0, 10, 10)
    p = simulate_csr(w, 20, seed=1)
    curve = f_function(p, DistanceGrid([0.0]), 500, seed=2)
    assert curve.values.tolist() == [0.0]


def test_f_matches_direct_count_with_same_reference_stream():
    w = Window(0, 0, 10, 10)
    p = pattern_on(w, [[5.0, 5.0]])
    grid = DistanceGrid(np.linspace(0.0, 8.0, 17))
    seed = 99
    fast = f_function(p, grid, 100_000, seed=seed)
    refs = uniform_reference_stream(w, 100_000, seed)
    np.testing.assert_array_equal(fast.values, brute_f_values(p.coords, refs, grid.values))


def test_f_reproducible_and_seed_sensitive():
    w = Window(0, 0, 50, 50)
    p = simulate_csr(w, 30, seed=5)
    grid = DistanceGrid.default(w, 20)
    a = f_function(p, grid, 400, seed=11)
    b = f_function(p, grid, 400, seed=11)
    c = f_function(p, grid, 400, seed=12)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_f_default_reference_count_is_1000_for_small_patterns():
    w = Window(0, 0, 50, 50)
    p = simulate_csr(w, 30, seed=5)
    grid = DistanceGrid.default(w, 20)
    np.testing.assert_array_equal(
        f_function(p, grid, None, seed=7).values,
        f_function(p, grid, 1000, seed=7).values,
    )


def test_f_rejects_empty_pattern():
    w = Window(0, 0, 1, 1)
    empty = PointPattern(w, np.empty((0, 2)))
    with pytest.raises(InvalidInputError):
        f_function(empty, DistanceGrid([0.5]), 10, seed=0)


# ---------------------------------------------------------------- J


def _curve(grid_values, values):
    return RipleyCurve(DistanceGrid(grid_values), np.asarray(values, dtype=float))


def test_j_is_one_when_g_equals_f():
    g = _curve([1, 2, 3], [0.1, 0.5, 0.9])
    f = _curve([1, 2, 3], [0.1, 0.5, 0.9])
    np.testing.assert_array_equal(j_function(g, f).values, [1.0, 1.0, 1.0])


def test_j_pointwise_ratio():
    g = _curve([1.0], [0.5])
    f = _curve([1.0], [0.25])
    assert j_function(g, f).values.tolist() == [0.5 / 0.75]


def test_j_zero_when_g_saturates():
    g = _curve([1.0], [1.0])
    f = _curve([1.0], [0.5])
    assert j_function(g, f).values.tolist() == [0.0]


def test_j_undefined_where_f_is_one():
    g = _curve([1, 2], [0.5, 0.9])
    f = _curve([1, 2], [0.5, 1.0])
    j = j_function(g, f)
    assert j.values[0] == 1.0
    assert np.isnan(j.values[1])
    assert j.defined.tolist() == [True, False]


def test_j_rejects_mismatched_grids():
    g = _curve([1, 2], [0.1, 0.2])
    f = _curve([1, 3], [0.1, 0.2])
    with pytest.raises(InvalidInputError):
        j_function(g, f)


# ---------------------------------------------------------------- curve shape properties


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=99_999),
       n=st.integers(min_value=2, max_value=120))
def test_g_and_f_are_nondecreasing_cdfs(seed, n):
    w = Window(0, 0, 100, 100)
    p = simulate_csr(w, n, seed=seed)
    grid = DistanceGrid.default(w, 30)
    for curve in (g_function(p, grid), f_function(p, grid, 200, seed=seed + 1)):
        v = curve.values
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        assert np.all(np.diff(v) >= 0.0)


# ---------------------------------------------------------------- neighbor stats


def test_nn_stats_collinear():
    p = pattern_on(Window(-1, -1, 4, 1), [[0, 0], [1, 0], [3, 0]])
    stats = nn_stats(p, k=1, bins=4)
    assert stats.mean == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert stats.median == 1.0
    assert stats.counts.sum() == 3


def test_nn_stats_two_points():
    p = pattern_on(Window(0, 0, 10, 10), [[0, 0], [3, 4]])
    stats = nn_stats(p, k=1, bins=3)
    assert stats.mean == 5.0
    assert stats.std == 0.0


def test_nn_stats_matches_brute_force():
    rng = np.random.default_rng(21)
    coords = rng.uniform(0, 200, size=(500, 2))
    p = pattern_on(Window(0, 0, 200, 200), coords)
    stats = nn_stats(p, k=5, bins=20)
    per_point = brute_knn_distances(coords, 5).mean(axis=1)
    assert stats.mean == pytest.approx(per_point.mean(), rel=1e-12)
    assert stats.median == pytest.approx(np.median(per_point), rel=1e-12)
    assert stats.std == pytest.approx(per_point.std(ddof=1), rel=1e-12)
    counts, edges = np.histogram(per_point, bins=20)
    np.testing.assert_array_equal(stats.counts, counts)
    np.testing.assert_allclose(stats.bin_edges, edges, rtol=1e-12)


def test_nn_stats_k_out_of_range():
    p = pattern_on(Window(0, 0, 10, 10), [[1, 1], [2, 2], [3, 3]])
    with pytest.raises(InvalidInputError):
        nn_stats(p, k=3)
