import importlib
import itertools
import logging
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from palmpat import (
    DistanceGrid,
    FitResult,
    InvalidInputError,
    PointPattern,
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
from palmpat._pool import MAX_TASKS
from oracles import (
    all_pairs_distances,
    assert_same_fit,
    brute_fit,
    brute_reproduction,
    piecewise_linear_integral,
    rejects_csr_at_5pct,
)

reproduction = importlib.import_module("palmpat.reproduction")
native = importlib.import_module("palmpat._native")
ripley = importlib.import_module("palmpat.ripley")


def compiled_sampler_missing():
    """What the compiled sampler needs and this host lacks, or None."""
    if shutil.which("cc") is None:
        return "cc is not on PATH"
    if not (Path(np.random.__file__).with_name("lib") / "libnpyrandom.a").exists():
        return "numpy's random/lib/libnpyrandom.a is missing"
    return None


@pytest.fixture
def compiled_sampler():
    missing = compiled_sampler_missing()
    if missing:
        pytest.skip(f"the compiled sampler cannot be built: {missing}")
    assert native.load() is not None


@pytest.fixture
def scalar_sampler(monkeypatch):
    monkeypatch.setattr(native, "_lib", False)


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
def test_simulation_is_byte_equal_to_array_loop(p, sigma, origin, compiled_sampler):
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


def test_gaussian_fallback_is_counted_not_fatal(compiled_sampler):
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


# the two oracle checks above, on the scalar loop that runs when the C sampler cannot load
@pytest.mark.parametrize("origin", BATTERY_ORIGINS)
@pytest.mark.parametrize("p, sigma", BATTERY_PARAMS)
def test_scalar_simulation_is_byte_equal_to_array_loop(p, sigma, origin, scalar_sampler):
    test_simulation_is_byte_equal_to_array_loop(p, sigma, origin, scalar_sampler)


def test_scalar_gaussian_fallback_is_counted_not_fatal(scalar_sampler):
    test_gaussian_fallback_is_counted_not_fatal(scalar_sampler)


SAMPLER_WINDOWS = [(0.0, 0.0, 3000.0, 3000.0), (1e6 + 0.1, 1e6 + 0.1, 1e6 + 50.1, 1e6 + 80.1),
                   (-3e7, -3e7, -3e7 + 100.0, -3e7 + 100.0)]


def sample_grid(window):
    """Coordinates bytes and fallback counts over p x sigma x seed x n."""
    out = []
    for p, sigma, seed, n in itertools.product([0.0, 0.5, 0.7, 0.9, 1.0],
                                               [1e-9, 1.0, 60.0, 1e3, 1e4], range(8),
                                               [1, 2, 30, 300]):
        diag = SimulationDiagnostics()
        pattern = simulate_reproduction(window, n, ReproductionParams(p, sigma), seed, diag)
        out.append((pattern.coords.tobytes(), diag.gaussian_fallbacks))
    return out


@pytest.mark.parametrize("bounds", SAMPLER_WINDOWS)
def test_compiled_sampler_is_byte_equal_to_scalar_loop(bounds, compiled_sampler, monkeypatch):
    window = Window(*bounds)
    compiled = sample_grid(window)
    monkeypatch.setattr(native, "_lib", False)
    scalar = sample_grid(window)
    assert len(compiled) == 800
    for k, (c, s) in enumerate(zip(compiled, scalar)):
        assert c == s, k
    if bounds[2] - bounds[0] <= 100.0:  # the large window never reaches the attempt cap
        assert sum(f for _, f in scalar) > 0


def test_second_process_reuses_the_cached_sampler(compiled_sampler):  # built by the fixture
    env = {**os.environ, "PATH": "", "PYTHONPATH": str(Path(reproduction.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", "from palmpat import _native; assert _native.load() is not None"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr  # with no PATH, no compiler could have run
    assert done.stderr == ""


def test_sampler_source_ships_as_package_data():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(reproduction.__file__).parents[2] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    assert config["tool"]["setuptools"]["package-data"]["palmpat"] == ["_native.c"]
    assert Path(native.__file__).with_name("_native.c").is_file()


def sampler_log(caplog):
    return [r for r in caplog.records if "compiled library unavailable" in r.getMessage()]


def test_failed_compile_logs_one_line_and_gives_the_same_bytes(compiled_sampler, tmp_path,
                                                               monkeypatch, caplog):
    window = Window(0.0, 0.0, 100.0, 60.0)
    params = ReproductionParams(0.7, 5.0)
    expected = [simulate_reproduction(window, 200, params, seed).coords for seed in (1, 2)]
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # an empty cache: must compile
    monkeypatch.setenv("PATH", "")  # and cc cannot be found
    with caplog.at_level(logging.WARNING, logger="palmpat._native"):
        got = [simulate_reproduction(window, 200, params, seed).coords for seed in (1, 2)]
    assert len(caplog.records) == 1 and sampler_log(caplog)
    assert native._lib is False
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]


def test_a_build_removes_stale_libraries_but_not_builds_in_progress(compiled_sampler,
                                                                  tmp_path, monkeypatch):
    cache = tmp_path / f"palmpat-{os.getuid()}"
    cache.mkdir(mode=0o700)
    (cache / "native-deadbeef.so").write_bytes(b"stale")
    (cache / "native-cafe.so.4242.tmp").write_bytes(b"another process is building")
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # a cache without this build
    window = Window(0.0, 0.0, 100.0, 60.0)
    pattern = simulate_reproduction(window, 200, ReproductionParams(0.7, 5.0), 1)
    assert native._lib
    [lib] = [p.name for p in cache.glob("*.so")]  # the one just built
    assert lib != "native-deadbeef.so"
    assert sorted(p.name for p in cache.iterdir()) == sorted([lib, "native-cafe.so.4242.tmp"])
    assert pattern.coords.tobytes() == brute_reproduction(window, 200, 0.7, 5.0, 1)[0].tobytes()


def test_shared_cache_directory_is_refused(tmp_path, monkeypatch, caplog):
    cache = tmp_path / f"palmpat-{os.getuid()}"
    cache.mkdir()
    cache.chmod(0o777)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(native, "_lib", None)
    calls = []
    scalar = reproduction._scalar_reproduction
    monkeypatch.setattr(reproduction, "_scalar_reproduction",
                        lambda *args: calls.append(args) or scalar(*args))
    window = Window(0.0, 0.0, 100.0, 60.0)
    with caplog.at_level(logging.WARNING, logger="palmpat._native"):
        pattern = simulate_reproduction(window, 30, ReproductionParams(0.7, 5.0), 4)
    assert native.load() is None
    assert len(calls) == 1
    [record] = sampler_log(caplog)
    assert "not a directory private to this user" in record.getMessage()
    assert list(cache.iterdir()) == []
    assert pattern.coords.tobytes() == brute_reproduction(window, 30, 0.7, 5.0, 4)[0].tobytes()


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


@pytest.mark.parametrize("window, n, n_ref, coincident", [
    (Window(0.0, 0.0, 100.0, 100.0), 60, 400, False),
    (Window(0.0, 0.0, 100.0, 100.0), 60, None, False),
    (Window(-5.0, 3.0, 400.0, 90.0), 2, None, False),
    (Window(-5.0, 3.0, 400.0, 90.0), 2, 7, False),
    (Window(0.0, 0.0, 10.0, 10.0), 20, 300, True),
    (Window(0.0, 0.0, 3000.0, 3000.0), 500, 2000, False),
], ids=["square-400", "square-default", "strip-n2-default", "strip-n2-7", "coincident-300",
        "site-2000"])
def test_discrepancy_equals_stepwise_pipeline(window, n, n_ref, coincident):
    observed = simulate_csr(window, n, seed=2)
    if coincident:
        simulated = PointPattern(window, [[3.0, 7.0]] * n)
    else:
        simulated = simulate_reproduction(window, n, ReproductionParams(0.5, 5.0), seed=3)
    grid = DistanceGrid.default(window, 25)
    obs_g = g_function(observed, grid)
    obs_f = f_function(observed, grid, n_ref, seed=4)
    # the second call reuses the shared, tree-ordered reference set of the first
    direct = [discrepancy(obs_g, obs_f, simulated, grid, n_ref, seed=5) for _ in range(2)]
    g_s = g_function(simulated, grid)
    f_s = f_function(simulated, grid, n_ref, seed=5)  # a fresh draw
    stepwise = (
        trapezoid_integrate(grid.values, np.abs(obs_g - g_s))
        + trapezoid_integrate(grid.values, np.abs(obs_f - f_s))
    )
    assert direct == [stepwise, stepwise]


def test_discrepancy_rejects_foreign_grid():
    window = Window(0.0, 0.0, 100.0, 100.0)
    pattern = simulate_csr(window, 20, seed=1)
    grid = DistanceGrid.default(window, 20)
    other = DistanceGrid.default(window, 21)
    obs_g = g_function(pattern, grid)
    obs_f = f_function(pattern, grid, 100, seed=1)
    with pytest.raises(InvalidInputError):
        discrepancy(obs_g, obs_f, pattern, other, 100, seed=1)


@pytest.mark.parametrize("seed", [-1, 1.5, [1]])
def test_discrepancy_and_fit_reject_a_bad_seed(seed):
    window = Window(0.0, 0.0, 100.0, 100.0)
    pattern = simulate_csr(window, 20, seed=1)
    grid = DistanceGrid.default(window, 20)
    curves = g_function(pattern, grid), f_function(pattern, grid, 100, seed=1)
    with pytest.raises(InvalidInputError, match="seed must be"):
        discrepancy(*curves, pattern, grid, 100, seed)
    with pytest.raises(InvalidInputError, match="seed must be"):
        fit(pattern, [0.5], [5.0], 1, grid, 100, seed)


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
    assert result.d_total.shape == (1,)
    assert result.d_min == result.d_total[0]


def test_fit_table_shape_and_sums(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    result = small_fit()
    assert result.d.shape == (6, 3)
    assert (result.d >= 0.0).all()
    p, sigma = np.array(list(itertools.product([0.2, 0.5, 0.8], [4.0, 8.0]))).T
    d_total = np.array([sum(row) for row in result.d.tolist()])
    assert_same_fit(result, FitResult(result.best, float(d_total.min()), p, sigma, result.d,
                                      d_total))


def test_fit_best_is_first_minimizer_in_scan_order(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    result = small_fit()
    for k in range(len(result.d_total)):  # the arrays are already in scan order
        if result.d_total[k] == result.d_min:
            assert result.best == ReproductionParams(result.p[k], result.sigma[k])
            break


def test_fit_deterministic_across_runs_and_workers(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    a = small_fit()
    b = small_fit()
    monkeypatch.setenv("PALMPAT_THREADS", "2")
    c = small_fit()
    assert_same_fit(a, b)
    assert_same_fit(a, c)


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
    ([0.2, 0.5, 0.8], [4.0, 8.0], 10, 150, 2),  # numpy's sum of d's row 2 differs from Python's
])
def test_fit_equals_nested_loop_oracle(ps, sigmas, n_trials, n_ref, workers, monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", str(workers))
    window = Window(0.0, 0.0, 100.0, 100.0)
    observed = simulate_reproduction(window, 60, ReproductionParams(0.6, 5.0), seed=3)
    grid = DistanceGrid.default(window, 20)
    expected = brute_fit(observed, ps, sigmas, n_trials, grid, n_ref, seed=11)
    assert_same_fit(fit(observed, ps, sigmas, n_trials, grid, n_ref, seed=11), expected)
    # candidates may be any iterable, generators included
    assert_same_fit(fit(observed, (p for p in ps), iter(sigmas), n_trials, grid, n_ref,
                        seed=11), expected)


def test_fit_draws_and_orders_its_reference_set_once(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    ripley._references.cache_clear()
    window = Window(0.0, 0.0, 100.0, 100.0)
    observed = simulate_csr(window, 30, seed=2)
    args = (observed, [0.3, 0.6], [5.0, 9.0], 3, DistanceGrid.default(window, 20), 200)
    result = fit(*args, seed=4)
    info = ripley._references.cache_info()
    assert (info.misses, info.hits) == (1, 4 * 3)  # the observed F, then every trial's
    assert_same_fit(result, brute_fit(*args, seed=4))


def test_fit_tie_goes_to_first_cell_like_the_oracle(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    # on a grid that ends at 1e-9 every G and F value is 0, so every cell ties at 0
    window = Window(0.0, 0.0, 100.0, 100.0)
    observed = simulate_csr(window, 30, seed=2)
    grid = DistanceGrid([0.0, 1e-9])
    args = (observed, [0.3, 0.6], [5.0, 9.0], 2, grid, 100)
    result = fit(*args, seed=4)
    assert set(result.d_total.tolist()) == {0.0}
    assert result.best == ReproductionParams(0.3, 5.0)
    assert_same_fit(result, brute_fit(*args, seed=4))


def test_fit_names_the_first_invalid_cell():
    window = Window(0.0, 0.0, 100.0, 100.0)
    observed = simulate_csr(window, 20, seed=1)
    with pytest.raises(InvalidInputError, match="sigma must be positive and finite, got -1.0"):
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


def _not_before_the_cap(*args, **kwargs):
    raise AssertionError("called before the task cap was checked")


@pytest.mark.parametrize("ps, sigmas, n_trials", [
    ([0.5], [1.0], MAX_TASKS + 1),
    (np.linspace(0.0, 1.0, 1001), np.arange(1.0, 1001.0), 1),
], ids=["trials", "cells"])
def test_fit_refuses_more_tasks_than_the_cap_before_any_seed_or_cell(ps, sigmas, n_trials,
                                                                     monkeypatch):
    monkeypatch.setattr(reproduction, "substream_seed", _not_before_the_cap)
    monkeypatch.setattr(reproduction, "ReproductionParams", _not_before_the_cap)
    observed = simulate_csr(Window(0.0, 0.0, 100.0, 100.0), 20, seed=1)
    count = len(ps) * len(sigmas) * n_trials
    with pytest.raises(InvalidInputError,
                       match=f"^fit task count must be at most {MAX_TASKS}, got {count}$"):
        fit(observed, ps, sigmas, n_trials=n_trials)
