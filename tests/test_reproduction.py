import itertools

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from palmpat import (
    DistanceGrid,
    InvalidInputError,
    ReproductionParams,
    SimulationDiagnostics,
    Window,
    discrepancy,
    envelope,
    f_function,
    fit,
    g_function,
    simulate_csr,
    simulate_reproduction,
    trapezoid_integrate,
)
from oracles import (
    all_pairs_distances,
    brute_fit,
    brute_reproduction,
    piecewise_linear_integral,
    rejects_csr_at_5pct,
)


# ---------------------------------------------------------------- trapezoid rule


def test_trapezoid_triangle():
    assert trapezoid_integrate([0.0, 1.0], [0.0, 1.0]) == 0.5


def test_trapezoid_rectangle():
    assert trapezoid_integrate([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]) == 2.0


def test_trapezoid_quadratic_error_bound():
    xs = np.linspace(0.0, 1.0, 1001)
    assert abs(trapezoid_integrate(xs, xs ** 2) - 1.0 / 3.0) < 1e-6


def test_trapezoid_exact_on_piecewise_linear():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        xs = np.sort(rng.uniform(-10, 10, n))
        while np.any(np.diff(xs) <= 1e-6):
            xs = np.sort(rng.uniform(-10, 10, n))
        ys = rng.uniform(-5, 5, n)
        expected = piecewise_linear_integral(xs, ys)
        assert trapezoid_integrate(xs, ys) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_trapezoid_input_validation():
    with pytest.raises(InvalidInputError):
        trapezoid_integrate([0.0, 1.0], [1.0])
    with pytest.raises(InvalidInputError):
        trapezoid_integrate([1.0, 1.0], [0.0, 0.0])
    with pytest.raises(InvalidInputError):
        trapezoid_integrate([2.0, 1.0], [0.0, 0.0])
    with pytest.raises(InvalidInputError):
        trapezoid_integrate([0.0], [0.0])


# ---------------------------------------------------------------- simulator


def test_params_validation():
    with pytest.raises(InvalidInputError):
        ReproductionParams(-0.1, 1.0)
    with pytest.raises(InvalidInputError):
        ReproductionParams(1.1, 1.0)
    with pytest.raises(InvalidInputError):
        ReproductionParams(0.5, 0.0)


@settings(max_examples=25, deadline=None)
@given(
    p=st.floats(min_value=0.0, max_value=1.0),
    sigma=st.floats(min_value=0.1, max_value=50.0),
    n=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_simulation_count_and_containment(p, sigma, n, seed):
    window = Window(0.0, 0.0, 200.0, 100.0)
    pattern = simulate_reproduction(window, n, ReproductionParams(p, sigma), seed)
    assert len(pattern) == n
    assert np.all(window.contains(pattern.coords[:, 0], pattern.coords[:, 1]))


def test_simulation_deterministic():
    window = Window(0.0, 0.0, 100.0, 100.0)
    params = ReproductionParams(0.6, 5.0)
    a = simulate_reproduction(window, 200, params, seed=3)
    b = simulate_reproduction(window, 200, params, seed=3)
    np.testing.assert_array_equal(a.coords, b.coords)
    c = simulate_reproduction(window, 200, params, seed=4)
    assert not np.array_equal(a.coords, c.coords)


def test_pure_clustering_with_tiny_sigma_collapses():
    window = Window(0.0, 0.0, 1000.0, 1000.0)
    pattern = simulate_reproduction(window, 100, ReproductionParams(1.0, 1e-9), seed=8)
    d = all_pairs_distances(pattern.coords)
    assert d.max() < 1e-6


# (p, sigma) sets on a 100 x 60 window: CSR, sigma from 1e-9 to 1e4, a
# sigma whose resampling sometimes hits the attempt cap, and one far beyond
# the window where every clustered step falls back to a uniform draw.
BATTERY_PARAMS = [(0.0, 1.0), (0.5, 1e3), (0.7, 5.0), (0.9, 1e-9), (1.0, 30.0), (1.0, 1e4)]
BATTERY_ORIGINS = [(0.0, 0.0), (1e6 + 0.1, 1e6), (-3e7, -3e7)]


@pytest.mark.parametrize("origin", BATTERY_ORIGINS)
@pytest.mark.parametrize("p, sigma", BATTERY_PARAMS)
def test_simulation_is_byte_equal_to_array_loop(p, sigma, origin):
    x0, y0 = origin
    window = Window(x0, y0, x0 + 100.0, y0 + 60.0)
    fallbacks = steps = 0
    for seed in range(14):
        n = (1, 2, 30)[seed % 3]
        steps += n - 1
        diag = SimulationDiagnostics()
        pattern = simulate_reproduction(window, n, ReproductionParams(p, sigma), seed, diag)
        coords, expected_fallbacks = brute_reproduction(window, n, p, sigma, seed)
        assert pattern.coords.tobytes() == coords.tobytes(), (seed, n)
        assert diag.gaussian_fallbacks == expected_fallbacks
        fallbacks += expected_fallbacks
    if sigma == 1e4:
        assert fallbacks == steps  # every step after the first falls back
    elif sigma == 1e3:
        assert fallbacks > 0


def test_gaussian_fallback_is_counted_not_fatal():
    # sigma far beyond the window: every in-window resample fails, so each
    # clustered step exhausts its attempts and falls back to a uniform draw
    window = Window(0.0, 0.0, 1.0, 1.0)
    diag = SimulationDiagnostics()
    pattern = simulate_reproduction(
        window, 6, ReproductionParams(1.0, 1e6), seed=5, diagnostics=diag
    )
    assert len(pattern) == 6
    assert np.all(window.contains(pattern.coords[:, 0], pattern.coords[:, 1]))
    assert diag.gaussian_fallbacks == 5


def test_p_zero_patterns_pass_csr_test_at_nominal_rate():
    # With p=0 every draw is uniform, so the CSR test should reject only
    # at its nominal level: no more than 10 rejections in 100 runs.
    window = Window(0.0, 0.0, 1000.0, 1000.0)
    grid = DistanceGrid.default(window, 100)
    params = ReproductionParams(0.0, 10.0)
    rejections = 0
    for trial in range(100):
        pattern = simulate_reproduction(window, 200, params, seed=30_000 + trial)
        result = envelope(pattern, grid, "G", m=99, seed=40_000 + trial)
        rejections += rejects_csr_at_5pct(result)
    assert rejections <= 10


def test_p_zero_matches_csr_distribution():
    # Two-sample check: G values at three fixed distances over 100 seeds
    # per generator should be statistically indistinguishable.
    window = Window(0.0, 0.0, 1000.0, 1000.0)
    grid = DistanceGrid([20.0, 40.0, 60.0])
    params = ReproductionParams(0.0, 10.0)
    repro = np.array([
        g_function(simulate_reproduction(window, 200, params, seed=50_000 + t), grid)
        for t in range(100)
    ])
    csr = np.array([
        g_function(simulate_csr(window, 200, seed=60_000 + t), grid)
        for t in range(100)
    ])
    for col in range(len(grid)):
        p_value = scipy.stats.mannwhitneyu(repro[:, col], csr[:, col]).pvalue
        assert p_value > 0.01 / len(grid)


# ---------------------------------------------------------------- discrepancy


def test_discrepancy_zero_for_identical_pattern_and_stream():
    window = Window(0.0, 0.0, 100.0, 100.0)
    pattern = simulate_csr(window, 50, seed=1)
    grid = DistanceGrid.default(window, 30)
    obs_g = g_function(pattern, grid)
    obs_f = f_function(pattern, grid, 500, seed=77)
    assert discrepancy(obs_g, obs_f, pattern, grid, 500, seed=77) == 0.0


def test_constant_offset_integrates_to_rectangle_area():
    grid = DistanceGrid(np.linspace(0.0, 10.0, 11))
    a = np.linspace(0.2, 0.8, 11)
    b = a + 0.1
    area = trapezoid_integrate(grid.values, np.abs(a - b))
    assert area == pytest.approx(1.0, rel=1e-12)


def test_discrepancy_equals_stepwise_pipeline():
    window = Window(0.0, 0.0, 100.0, 100.0)
    observed = simulate_csr(window, 60, seed=2)
    simulated = simulate_reproduction(window, 60, ReproductionParams(0.5, 5.0), seed=3)
    grid = DistanceGrid.default(window, 25)
    obs_g = g_function(observed, grid)
    obs_f = f_function(observed, grid, 400, seed=4)
    direct = discrepancy(obs_g, obs_f, simulated, grid, 400, seed=5)
    g_s = g_function(simulated, grid)
    f_s = f_function(simulated, grid, 400, seed=5)
    stepwise = (
        trapezoid_integrate(grid.values, np.abs(obs_g - g_s))
        + trapezoid_integrate(grid.values, np.abs(obs_f - f_s))
    )
    assert direct == stepwise


def test_discrepancy_rejects_foreign_grid():
    window = Window(0.0, 0.0, 100.0, 100.0)
    pattern = simulate_csr(window, 20, seed=1)
    grid = DistanceGrid.default(window, 20)
    other = DistanceGrid.default(window, 21)
    obs_g = g_function(pattern, grid)
    obs_f = f_function(pattern, grid, 100, seed=1)
    with pytest.raises(InvalidInputError):
        discrepancy(obs_g, obs_f, pattern, other, 100, seed=1)


# ---------------------------------------------------------------- grid search


def small_fit(seed=6):
    window = Window(0.0, 0.0, 200.0, 200.0)
    observed = simulate_reproduction(window, 80, ReproductionParams(0.5, 8.0), seed=1)
    return fit(
        observed,
        p_candidates=[0.2, 0.5, 0.8],
        sigma_candidates=[4.0, 8.0],
        n_trials=3,
        grid=DistanceGrid.default(window, 30),
        n_ref=300,
        seed=seed,
    )


def test_fit_single_candidate_is_returned(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    window = Window(0.0, 0.0, 100.0, 100.0)
    observed = simulate_csr(window, 40, seed=5)
    result = fit(observed, [0.4], [6.0], n_trials=2, grid=DistanceGrid.default(window, 20),
                 n_ref=200, seed=9)
    assert result.best == ReproductionParams(0.4, 6.0)
    assert len(result.table) == 1
    assert result.d_min == result.table[0].d_total


def test_fit_table_shape_and_sums(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    result = small_fit()
    assert len(result.table) == 6
    expected_order = list(itertools.product([0.2, 0.5, 0.8], [4.0, 8.0]))
    assert [(c.p, c.sigma) for c in result.table] == expected_order
    for cell in result.table:
        assert len(cell.d_trials) == 3
        assert cell.d_total == sum(cell.d_trials)
        assert all(d >= 0.0 for d in cell.d_trials)
    assert result.d_min == min(c.d_total for c in result.table)


def test_fit_best_is_first_minimizer_in_scan_order(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    result = small_fit()
    for cell in result.table:  # table is already in scan order
        if cell.d_total == result.d_min:
            assert result.best == ReproductionParams(cell.p, cell.sigma)
            break


def test_fit_deterministic_across_runs_and_workers(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    a = small_fit()
    b = small_fit()
    monkeypatch.setenv("PALMPAT_THREADS", "2")
    c = small_fit()
    assert a == b == c


def test_fit_on_csr_input_prefers_smallest_clustering_probability(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    window = Window(0.0, 0.0, 500.0, 500.0)
    observed = simulate_csr(window, 300, seed=21)
    result = fit(
        observed,
        p_candidates=[0.1, 0.4, 0.7],
        sigma_candidates=[20.0],
        n_trials=4,
        grid=DistanceGrid.default(window, 50),
        n_ref=500,
        seed=22,
    )
    assert result.best.p == 0.1


@pytest.mark.parametrize("ps, sigmas, n_trials, n_ref, workers", [
    ([0.4], [6.0], 1, None, 1),
    ([0.4], [6.0], 3, 150, 2),
    ([0.2], [3.0, 6.0, 12.0], 3, 150, 1),
    ([0.2], [3.0, 6.0, 12.0], 1, None, 2),
    ([0.0, 0.5, 1.0], [5.0], 1, 200, 1),
    ([0.0, 0.5, 1.0], [5.0], 3, None, 2),
    ([0.2, 0.5, 0.8], [4.0, 8.0], 3, None, 1),
    ([0.2, 0.5, 0.8], [4.0, 8.0], 1, 200, 2),
])
def test_fit_equals_nested_loop_oracle(ps, sigmas, n_trials, n_ref, workers, monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", str(workers))
    window = Window(0.0, 0.0, 100.0, 100.0)
    observed = simulate_reproduction(window, 60, ReproductionParams(0.6, 5.0), seed=3)
    grid = DistanceGrid.default(window, 20)
    expected = brute_fit(observed, ps, sigmas, n_trials, grid, n_ref, seed=11)
    assert fit(observed, ps, sigmas, n_trials, grid, n_ref, seed=11) == expected
    # candidates may be any iterable, generators included
    assert fit(observed, (p for p in ps), iter(sigmas), n_trials, grid, n_ref,
               seed=11) == expected


def test_fit_tie_goes_to_first_cell_like_the_oracle(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    # on a grid that ends at 1e-9 every G and F value is 0, so every cell ties at 0
    window = Window(0.0, 0.0, 100.0, 100.0)
    observed = simulate_csr(window, 30, seed=2)
    grid = DistanceGrid([0.0, 1e-9])
    args = (observed, [0.3, 0.6], [5.0, 9.0], 2, grid, 100)
    result = fit(*args, seed=4)
    assert {c.d_total for c in result.table} == {0.0}
    assert result.best == ReproductionParams(0.3, 5.0)
    assert result == brute_fit(*args, seed=4)


def test_fit_names_the_first_invalid_cell():
    window = Window(0.0, 0.0, 100.0, 100.0)
    observed = simulate_csr(window, 20, seed=1)
    with pytest.raises(InvalidInputError, match="sigma must be positive, got -1.0"):
        fit(observed, [0.5, 2.0], [-1.0], n_trials=1, seed=0)
    with pytest.raises(InvalidInputError, match=r"p must be in \[0, 1\], got 2.0"):
        fit(observed, [0.5, 2.0], [1.0], n_trials=1, seed=0)


def test_fit_rejects_empty_candidates():
    window = Window(0.0, 0.0, 100.0, 100.0)
    observed = simulate_csr(window, 20, seed=1)
    with pytest.raises(InvalidInputError):
        fit(observed, [], [5.0], n_trials=1, grid=DistanceGrid.default(window, 10), seed=0)
    with pytest.raises(InvalidInputError):
        fit(observed, [0.5], [], n_trials=1, grid=DistanceGrid.default(window, 10), seed=0)
