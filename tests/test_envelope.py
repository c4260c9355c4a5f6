import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palmpat import (
    DistanceGrid,
    InvalidInputError,
    PointPattern,
    Window,
    envelope,
    simulate_csr,
)
from palmpat._pool import MAX_TASKS
from palmpat.envelope import _nan_reduce
from palmpat.errors import check_count

WINDOW = Window(0.0, 0.0, 100.0, 100.0)


def clustered_pattern(n=50, radius=0.5):
    """All points packed into a tiny disk at the window center."""
    rng = np.random.default_rng(123)
    angles = rng.uniform(0, 2 * np.pi, n)
    radii = radius * np.sqrt(rng.uniform(0, 1, n))
    coords = np.column_stack([50 + radii * np.cos(angles), 50 + radii * np.sin(angles)])
    return PointPattern(WINDOW, coords)


# ---------------------------------------------------------------- CSR generator


def test_csr_points_inside_window():
    p = simulate_csr(WINDOW, 10, seed=4)
    assert len(p) == 10
    assert np.all(WINDOW.contains(p.coords[:, 0], p.coords[:, 1]))


def test_csr_deterministic():
    a = simulate_csr(WINDOW, 100, seed=9)
    b = simulate_csr(WINDOW, 100, seed=9)
    np.testing.assert_array_equal(a.coords, b.coords)
    c = simulate_csr(WINDOW, 100, seed=10)
    assert not np.array_equal(a.coords, c.coords)


def test_csr_sample_mean_within_clt_bound():
    # mean of 1e5 uniforms on [0, 100]: 4-sigma bound = 100 * 4 / sqrt(12e5)
    p = simulate_csr(WINDOW, 100_000, seed=11)
    bound = 100 * 4 / np.sqrt(12 * 100_000)
    assert abs(p.coords[:, 0].mean() - 50.0) < bound
    assert abs(p.coords[:, 1].mean() - 50.0) < bound


def test_csr_rejects_nonpositive_count():
    with pytest.raises(InvalidInputError):
        simulate_csr(WINDOW, 0, seed=1)


@pytest.mark.parametrize("window", [
    WINDOW,
    Window(1000.25, 7.5, 1450.0, 7.75),  # non-zero origin
    Window(-3e5, -2.5, -1e5, 40.0),  # negative origin
    Window(-1e160, 3e159, 0.0, 1.3e160),  # sides near 1e160
    Window(2e-158, -3e-160, 2.01e-158, -2e-160),  # sides near 1e-160
])
def test_csr_is_numpys_uniform_draw(window):
    # simulate_csr computes lo + (hi - lo) * random((n, 2)), which is what uniform does
    for seed in range(300):
        n = 1 + seed % 37
        expected = np.random.default_rng(seed).uniform(window.lo, window.hi, (n, 2))
        assert simulate_csr(window, n, seed).coords.tobytes() == expected.tobytes()


# ---------------------------------------------------------------- envelope mechanics


@st.composite
def curves(draw):
    """Up to 199 simulated curves of up to 100 grid points, valued like G or F
    (multiples of 1/levels, so many ties), with some columns all 0 and some all 1;
    like J, some columns may hold a few NaN and some only NaN."""
    shape = (draw(st.integers(1, 199)), draw(st.integers(1, 100)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 2, 7, 500, 8000]))
    sims = rng.integers(0, levels + 1, shape) / levels
    sims.sort(axis=1)  # nondecreasing along the grid, like a CDF
    sims[:, rng.random(shape[1]) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    sims[:, rng.random(shape[1]) < draw(st.sampled_from([0.0, 0.2]))] = 1.0
    holed = rng.random(shape[1]) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    sims[(rng.random(shape) < draw(st.sampled_from([0.01, 0.5]))) & holed] = np.nan
    sims[:, rng.random(shape[1]) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = np.nan
    return sims


@settings(max_examples=150, deadline=None)
@given(sims=curves())
def test_band_is_the_nan_ignoring_band(sims):
    # NaN-free columns take np.mean and np.quantile, the rest np.nanquantile: the same bytes
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        expected = (np.nanmean(sims, axis=0), *np.nanquantile(sims, [0.025, 0.975], axis=0))
    assert [a.tobytes() for a in _nan_reduce(sims)] == [a.tobytes() for a in expected]


@pytest.mark.parametrize("clean, partly", [(50, 10), (0, 10), (0, 0)])
def test_band_of_all_nan_columns_is_nan(clean, partly):
    # J's shape: NaN-free columns, then partly NaN ones, then all-NaN ones where F reaches 1
    rng = np.random.default_rng(clean + partly)
    sims = np.sort(rng.integers(0, 501, (199, 100)) / 500, axis=1)
    sims[rng.random((199, 100)) < 0.3] = np.nan
    sims[:, :clean] = np.sort(rng.integers(0, 501, (199, clean)) / 500, axis=1)
    sims[:, clean + partly:] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = (np.nanmean(sims, axis=0), *np.nanquantile(sims, [0.025, 0.975], axis=0))
    reduced = _nan_reduce(sims)
    assert [a.tobytes() for a in reduced] == [a.tobytes() for a in expected]
    assert np.isnan(np.array(reduced)[:, clean + partly:]).all()


@pytest.mark.parametrize("statistic", ["G", "F", "J"])
def test_envelope_deterministic_and_worker_invariant(statistic, monkeypatch):
    # F and J: each pool worker draws and keeps its own copy of the reference set
    p = simulate_csr(WINDOW, 40, seed=2)
    grid = DistanceGrid.default(WINDOW, 25)
    results = []
    for w in (1, 1, 2):
        monkeypatch.setenv("PALMPAT_THREADS", str(w))
        results.append(envelope(p, grid, statistic, m=19, seed=5, n_ref=200))
    for other in results[1:]:
        np.testing.assert_array_equal(results[0].observed, other.observed)
        np.testing.assert_array_equal(results[0].sim_mean, other.sim_mean)
        np.testing.assert_array_equal(results[0].lo95, other.lo95)
        np.testing.assert_array_equal(results[0].hi95, other.hi95)
        np.testing.assert_array_equal(results[0].p_values, other.p_values)


def test_envelope_band_brackets_mean(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    p = simulate_csr(WINDOW, 60, seed=3)
    grid = DistanceGrid.default(WINDOW, 30)
    r = envelope(p, grid, "G", m=39, seed=6)
    assert np.all(r.lo95 <= r.sim_mean) and np.all(r.sim_mean <= r.hi95)


def test_envelope_p_value_floor(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    p = simulate_csr(WINDOW, 60, seed=3)
    grid = DistanceGrid.default(WINDOW, 30)
    r = envelope(p, grid, "G", m=39, seed=6)
    assert np.all(r.p_values >= 1.0 / 40.0)
    assert np.all(r.p_values <= 1.0)


def test_envelope_requires_19_simulations():
    p = simulate_csr(WINDOW, 20, seed=1)
    with pytest.raises(InvalidInputError):
        envelope(p, DistanceGrid.default(WINDOW, 10), "G", m=18, seed=0)


def test_envelope_refuses_more_simulations_than_the_task_cap_before_any_seed(monkeypatch):
    def no_seed(*args):
        raise AssertionError("a seed was derived before the task cap was checked")

    # the package's ``envelope`` attribute is the function, not the module
    monkeypatch.setattr(importlib.import_module("palmpat.envelope"), "substream_seed", no_seed)
    p = simulate_csr(WINDOW, 20, seed=1)
    with pytest.raises(InvalidInputError,
                       match=f"^m must be at most {MAX_TASKS}, got {MAX_TASKS + 1}$"):
        envelope(p, DistanceGrid.default(WINDOW, 10), "G", m=MAX_TASKS + 1, seed=0)
    assert check_count(MAX_TASKS, "m", 19, MAX_TASKS) == MAX_TASKS  # the cap itself is allowed


def test_envelope_rejects_unknown_statistic():
    p = simulate_csr(WINDOW, 20, seed=1)
    with pytest.raises(InvalidInputError):
        envelope(p, DistanceGrid.default(WINDOW, 10), "K", m=19, seed=0)


def test_most_extreme_observation_attains_rank_p_one_twentieth(monkeypatch):
    # A pattern far more clustered than any of 19 CSR simulations ranks
    # first, so the rank formula gives exactly (1 + 0) / 20 at small d.
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    grid = DistanceGrid(np.linspace(0.0, 20.0, 21))
    r = envelope(clustered_pattern(), grid, "G", m=19, seed=7)
    assert r.p_values.min() == 1.0 / 20.0


@pytest.mark.parametrize("m", [199, 999])
def test_minimum_attainable_p_is_inverse_m_plus_one(m):
    grid = DistanceGrid(np.linspace(0.0, 20.0, 11))
    r = envelope(clustered_pattern(), grid, "G", m=m, seed=8)
    assert r.p_values.min() == 1.0 / (m + 1)


def test_clustered_pattern_exceeds_band_at_small_distances():
    grid = DistanceGrid(np.linspace(0.0, 20.0, 21))
    r = envelope(clustered_pattern(), grid, "G", m=199, seed=9)
    small = (grid.values > 1.0) & (grid.values < 10.0)
    assert np.all(r.observed[small] > r.hi95[small])
    assert np.all(r.p_values[small] < 0.01)


def test_j_envelope_flags_undefined_entries_as_nan(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    p = simulate_csr(WINDOW, 30, seed=12)
    # push the grid far beyond saturation so F reaches 1
    grid = DistanceGrid(np.linspace(0.0, math.hypot(WINDOW.width, WINDOW.height) * 1.1, 30))
    r = envelope(p, grid, "J", m=19, seed=13, n_ref=200)
    undefined = np.isnan(r.observed)
    assert undefined.any() and not undefined.all()
    assert np.all(np.isnan(r.p_values[undefined]))
    defined = ~undefined & ~np.isnan(r.sim_mean)
    assert np.all(r.p_values[defined] >= 1.0 / 20.0)


def test_csr_j_curves_stay_inside_band_on_average():
    # 100 CSR draws tested against their own null: the J curve should sit
    # inside the 95% band at >= 90% of the defined grid points on average.
    window = Window(0.0, 0.0, 60.0, 60.0)
    grid = DistanceGrid.default(window, 40)
    fractions = []
    for trial in range(100):
        p = simulate_csr(window, 64, seed=10_000 + trial)
        r = envelope(p, grid, "J", m=199, seed=20_000 + trial, n_ref=256)
        ok = ~np.isnan(r.observed) & ~np.isnan(r.lo95) & ~np.isnan(r.hi95)
        inside = (r.observed[ok] >= r.lo95[ok]) & (r.observed[ok] <= r.hi95[ok])
        fractions.append(inside.mean())
    assert np.mean(fractions) >= 0.90


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("statistic", ["G", "F", "J"])
def test_envelope_of_coincident_points(statistic, monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    pattern = PointPattern(WINDOW, np.full((20, 2), 40.0))
    r = envelope(pattern, DistanceGrid.default(WINDOW, 20), statistic, m=19, seed=3,
                 n_ref=300)
    p = r.p_values[~np.isnan(r.p_values)]
    assert p.size and np.all((p >= 1.0 / 20.0) & (p <= 1.0))
