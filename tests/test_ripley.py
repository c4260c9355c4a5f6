import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from palmpat import (
    DistanceGrid,
    InvalidInputError,
    PointPattern,
    Window,
    f_function,
    g_function,
    j_function,
    nn_stats,
    simulate_csr,
)
from palmpat import ripley
from palmpat.ripley import statistic_curve
from oracles import (
    brute_f_values,
    brute_g_values,
    brute_j_values,
    brute_knn_distances,
    uniform_reference_stream,
)


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
    assert curve.tolist() == [0.0, 0.0, 1.0]


def test_g_collinear():
    p = pattern_on(Window(-1, -1, 4, 1), [[0, 0], [1, 0], [3, 0]])
    curve = g_function(p, DistanceGrid([1.5]))
    assert curve.tolist() == [2.0 / 3.0]


def test_g_matches_brute_force():
    rng = np.random.default_rng(7)
    coords = rng.uniform(0, 100, size=(100, 2))
    p = pattern_on(Window(0, 0, 100, 100), coords)
    grid = DistanceGrid(np.sort(rng.uniform(0, 60, size=25)))
    np.testing.assert_array_equal(
        g_function(p, grid), brute_g_values(coords, grid.values)
    )


def test_g_is_one_beyond_max_nn_distance():
    rng = np.random.default_rng(3)
    coords = rng.uniform(0, 10, size=(40, 2))
    p = pattern_on(Window(0, 0, 10, 10), coords)
    max_nnd = brute_knn_distances(coords, 1).max()
    curve = g_function(p, DistanceGrid([max_nnd * 1.0001]))
    assert curve.tolist() == [1.0]


def test_g_requires_two_points():
    with pytest.raises(InvalidInputError):
        g_function(pattern_on(Window(0, 0, 1, 1), [[0.5, 0.5]]), DistanceGrid([1.0]))


# ---------------------------------------------------------------- F


def test_f_is_one_beyond_window_diagonal():
    w = Window(0, 0, 10, 10)
    p = simulate_csr(w, 20, seed=1)
    curve = f_function(p, DistanceGrid([math.hypot(w.width, w.height) * 1.01]), 500, seed=2)
    assert curve.tolist() == [1.0]


def test_f_is_zero_at_distance_zero():
    w = Window(0, 0, 10, 10)
    p = simulate_csr(w, 20, seed=1)
    curve = f_function(p, DistanceGrid([0.0]), 500, seed=2)
    assert curve.tolist() == [0.0]


def test_f_matches_direct_count_with_same_reference_stream():
    w = Window(0, 0, 10, 10)
    p = pattern_on(w, [[5.0, 5.0]])
    grid = DistanceGrid(np.linspace(0.0, 8.0, 17))
    seed = 99
    fast = f_function(p, grid, 100_000, seed=seed)
    refs = uniform_reference_stream(w, 100_000, seed)
    np.testing.assert_array_equal(fast, brute_f_values(p.coords, refs, grid.values))


@pytest.mark.parametrize("window, in_scale", [
    pytest.param(Window(0.0, 0.0, 60.0, 40.0), True, id="plain"),
    pytest.param(Window(-3.0, 0.0, 1e300, 1.0), False, id="1e300-wide"),
    pytest.param(Window(0.0, -1e-300, 1.0, 0.0), False, id="1e-300-high"),
    pytest.param(Window(-5e299, 0.0, 5e299, 1e-300), False, id="both"),
    # a side near the top of the float range
    pytest.param(Window(-8e307, -8e307, 8e307, 8e307), False, id="1.6e308-square"),
])
def test_f_matches_direct_count_in_extreme_windows(window, in_scale):
    # the reference draw must not overflow (a RuntimeWarning fails the suite)
    refs = ripley._references(window, 300, 8)
    direct = uniform_reference_stream(window, 300, 8)
    assert refs.tobytes() == direct.tobytes()
    p = simulate_csr(window, 40, seed=6)
    grid = DistanceGrid(np.linspace(0.0, min(window.width, 8.0), 9))
    if in_scale:
        np.testing.assert_array_equal(f_function(p, grid, 300, seed=8),
                                      brute_f_values(p.coords, direct, grid.values))
    else:  # squared distances would overflow or turn subnormal
        with pytest.raises(InvalidInputError, match="rescale the coordinates"):
            f_function(p, grid, 300, seed=8)


@pytest.mark.parametrize("exponent", [498, -498])
def test_g_and_f_at_the_ends_of_the_distance_scale_equal_the_unit_square(exponent, nn_path):
    scale = 2.0 ** exponent  # scaling by a power of two is exact
    unit = simulate_csr(Window(0.0, 0.0, 1.0, 1.0), 50, seed=4)
    scaled = PointPattern(Window(0.0, 0.0, scale, scale), unit.coords * scale)
    grid = DistanceGrid.default(unit.window, 10)
    scaled_grid = DistanceGrid(grid.values * scale)
    assert g_function(scaled, scaled_grid).tobytes() == g_function(unit, grid).tobytes()
    assert (f_function(scaled, scaled_grid, 500, seed=5).tobytes()
            == f_function(unit, grid, 500, seed=5).tobytes())


@pytest.mark.parametrize("window", [Window(0.0, 0.0, 1e160, 1.0), Window(0.0, 0.0, 1.0, 1e-160),
                                    Window(0.0, 0.0, 2.0 ** 500, 2.0 ** 500)])
def test_statistics_refuse_a_window_outside_the_distance_scale(window, nn_path):
    p = simulate_csr(window, 20, seed=1)  # a pattern and its window are still accepted
    grid = DistanceGrid.default(window, 5)
    for curve in (g_function, lambda p, grid: f_function(p, grid, 50, seed=2),
                  lambda p, grid: j_function(p, grid, 50, seed=2), lambda p, grid: nn_stats(p)):
        with pytest.raises(InvalidInputError, match=r"outside \[1e-150, 1e150\]"):
            curve(p, grid)


@pytest.mark.parametrize("seed", [-1, 1.5, [1]])
@pytest.mark.parametrize("curve", [f_function, j_function])
def test_f_and_j_reject_a_bad_seed_before_the_reference_cache(curve, seed):
    p = simulate_csr(Window(0, 0, 10, 10), 20, seed=1)
    with pytest.raises(InvalidInputError, match="seed must be"):
        curve(p, DistanceGrid([0.0, 1.0]), 50, seed)


@pytest.mark.parametrize("n_ref", [0, 50.0])
def test_f_rejects_a_bad_reference_count_even_when_its_set_is_cached(n_ref):
    p = simulate_csr(Window(0, 0, 10, 10), 20, seed=1)
    f_function(p, DistanceGrid([0.0, 1.0]), 50, seed=3)  # caches (window, 50, 3)
    with pytest.raises(InvalidInputError, match="n_ref must be a positive integer"):
        f_function(p, DistanceGrid([0.0, 1.0]), n_ref, seed=3)


def test_f_reproducible_and_seed_sensitive():
    w = Window(0, 0, 50, 50)
    p = simulate_csr(w, 30, seed=5)
    grid = DistanceGrid.default(w, 20)
    a = f_function(p, grid, 400, seed=11)
    b = f_function(p, grid, 400, seed=11)
    c = f_function(p, grid, 400, seed=12)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_f_default_reference_count_is_1000_for_small_patterns():
    w = Window(0, 0, 50, 50)
    p = simulate_csr(w, 30, seed=5)
    grid = DistanceGrid.default(w, 20)
    np.testing.assert_array_equal(
        f_function(p, grid, None, seed=7),
        f_function(p, grid, 1000, seed=7),
    )


def test_f_rejects_empty_pattern():
    w = Window(0, 0, 1, 1)
    empty = PointPattern(w, np.empty((0, 2)))
    with pytest.raises(InvalidInputError):
        f_function(empty, DistanceGrid([0.5]), 10, seed=0)


# ---------------------------------------------------------------- J


def oracle_j(pattern, grid, n_ref, seed):
    refs = uniform_reference_stream(pattern.window, n_ref, seed)
    return brute_j_values(pattern.coords, refs, grid.values)


def test_j_is_one_when_g_equals_f():
    # Nearest-neighbour distances 1, 1, 3 and 5: G is 1/2 on (1, 3] and 3/4 on
    # (3, 5]. With this seed's four reference points F meets both levels.
    p = pattern_on(Window(0, 0, 10, 10), [[2, 2], [3, 2], [6, 7], [6, 2]])
    grid = DistanceGrid(np.linspace(0.0, 6.0, 61))
    refs = uniform_reference_stream(p.window, 4, 1)
    g = brute_g_values(p.coords, grid.values)
    f = brute_f_values(p.coords, refs, grid.values)
    same = (g == f) & (f < 1.0)
    assert set(g[same]) == {0.0, 0.5, 0.75}
    j = j_function(p, grid, 4, seed=1)
    assert np.all(j[same] == 1.0)
    np.testing.assert_array_equal(j, oracle_j(p, grid, 4, 1))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=99_999),
       n=st.integers(min_value=2, max_value=80),
       n_ref=st.integers(min_value=1, max_value=300))
def test_j_pointwise_ratio(seed, n, n_ref):
    # Distances up to past the window diagonal, so some entries have F = 1.
    w = Window(0, 0, 60, 40)
    p = simulate_csr(w, n, seed=seed)
    rng = np.random.default_rng(seed)
    grid = DistanceGrid(np.unique(rng.uniform(0.0, 80.0, size=15)))
    np.testing.assert_array_equal(j_function(p, grid, n_ref, seed + 1),
                                  oracle_j(p, grid, n_ref, seed + 1))


def test_j_zero_when_g_saturates():
    # Ten tight pairs, 0.01 apart: G is 1 from d = 0.02 while F stays below 1.
    rng = np.random.default_rng(5)
    centres = rng.uniform(10, 90, size=(10, 2))
    p = pattern_on(Window(0, 0, 100, 100), np.vstack([centres, centres + [0.01, 0.0]]))
    grid = DistanceGrid([0.0, 0.02, 1.0, 5.0, 20.0])
    j = j_function(p, grid, 500, seed=3)
    np.testing.assert_array_equal(j, oracle_j(p, grid, 500, 3))
    assert j.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_j_undefined_where_f_is_one():
    # At the largest reference distance F is 1 - 1/n_ref, still defined.
    w = Window(0, 0, 10, 10)
    p = simulate_csr(w, 20, seed=1)
    refs = uniform_reference_stream(w, 5000, 2)
    farthest = np.hypot(*(refs[:, None, :] - p.coords).T).min(axis=0).max()
    empty = brute_f_values(p.coords, refs, [farthest])[0]
    assert empty == 1.0 - 1.0 / 5000
    grid = DistanceGrid([0.0, 1.0, farthest, math.hypot(w.width, w.height) * 1.01])
    j = j_function(p, grid, 5000, seed=2)
    np.testing.assert_array_equal(j, oracle_j(p, grid, 5000, 2))
    assert j[0] == 1.0 and np.isfinite(j[1:3]).all() and np.isnan(j[3])


def test_statistic_curve_rejects_unknown_name():
    p = simulate_csr(Window(0, 0, 10, 10), 20, seed=1)
    message = r"statistic must be one of \('G', 'F', 'J'\), got 'K'"
    with pytest.raises(InvalidInputError, match=message):
        statistic_curve(p, DistanceGrid([0.0, 1.0]), "K", None, 0)


@pytest.mark.parametrize("name", ["G", "F", "J"])
def test_statistic_curve_reads_a_name_in_either_case(name):
    p = simulate_csr(Window(0, 0, 10, 10), 20, seed=1)
    grid = DistanceGrid.default(p.window, 10)
    upper = statistic_curve(p, grid, name, 60, 3)
    assert statistic_curve(p, grid, name.lower(), 60, 3).tobytes() == upper.tobytes()


# ---------------------------------------------------------------- curve shape properties


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=99_999),
       n=st.integers(min_value=2, max_value=120))
def test_g_and_f_are_nondecreasing_cdfs(seed, n):
    w = Window(0, 0, 100, 100)
    p = simulate_csr(w, n, seed=seed)
    grid = DistanceGrid.default(w, 30)
    for v in (g_function(p, grid), f_function(p, grid, 200, seed=seed + 1)):
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


# ---------------------------------------------------------------- coincident points
# Every point at one location: each nearest-neighbour distance is 0.

COINCIDENT = pattern_on(Window(0, 0, 10, 10), [[3.0, 7.0]] * 20)


@pytest.mark.filterwarnings("error")
def test_coincident_g_and_f_match_brute_force():
    grid = DistanceGrid(np.linspace(0.0, 12.0, 25))
    g = g_function(COINCIDENT, grid)
    np.testing.assert_array_equal(g, brute_g_values(COINCIDENT.coords, grid.values))
    assert g.tolist() == [0.0] + [1.0] * 24
    f = f_function(COINCIDENT, grid, 500, seed=4)
    refs = uniform_reference_stream(COINCIDENT.window, 500, 4)
    np.testing.assert_array_equal(f, brute_f_values(COINCIDENT.coords, refs, grid.values))


@pytest.mark.filterwarnings("error")
def test_coincident_j_is_one_at_zero_then_zero_or_undefined():
    grid = DistanceGrid(np.linspace(0.0, 12.0, 25))
    f = f_function(COINCIDENT, grid, 500, seed=4)
    j = j_function(COINCIDENT, grid, 500, seed=4)
    np.testing.assert_array_equal(j, oracle_j(COINCIDENT, grid, 500, 4))
    assert j[0] == 1.0
    undefined = f == 1.0
    assert undefined.any() and np.all(np.isnan(j[undefined]))
    assert np.all(j[1:][~undefined[1:]] == 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1, 5, 19])
def test_coincident_nn_stats_are_zero(k):
    stats = nn_stats(COINCIDENT, k=k, bins=4)
    assert (stats.mean, stats.median, stats.std) == (0.0, 0.0, 0.0)
    assert stats.counts.sum() == 20


# ---------------------------------------------------------------- shared k-d trees


def test_g_f_j_and_nn_stats_of_one_pattern_build_one_tree(monkeypatch):
    built = []

    def counting(data, *args, **kwargs):
        built.append(len(data))
        return cKDTree(data, *args, **kwargs)

    monkeypatch.setattr("scipy.spatial.cKDTree", counting)  # imported where it is used
    window = Window(0.0, 0.0, 100.0, 100.0)
    p = simulate_csr(window, 40, seed=3)
    grid = DistanceGrid.default(window, 20)
    g_function(p, grid)
    f_function(p, grid, 300, seed=1)
    j_function(p, grid, 300, seed=2)
    nn_stats(p, k=3)
    assert built == [40]


def test_references_are_the_fresh_draw_read_only_and_cached():
    window = Window(-5.0, 3.0, 400.0, 90.0)
    ripley._references.cache_clear()
    refs = ripley._references(window, 500, 9)
    fresh = uniform_reference_stream(window, 500, 9)
    assert not refs.flags.writeable
    with pytest.raises(ValueError):
        refs[0, 0] = 0.0
    assert refs.tobytes() == fresh.tobytes()
    assert ripley._references(window, 500, 9) is refs
    p = simulate_csr(window, 30, seed=1)
    f_function(p, DistanceGrid.default(window, 20), 500, seed=9)
    assert ripley._references(window, 500, 9) is refs
    assert ripley._references.cache_info().misses == 1
