import math

import numpy as np
import pytest

from palmpat import (
    DistanceGrid,
    InvalidInputError,
    PointPattern,
    Window,
    envelope,
    simulate_csr,
)

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


# ---------------------------------------------------------------- envelope mechanics


def test_envelope_deterministic_and_worker_invariant():
    p = simulate_csr(WINDOW, 40, seed=2)
    grid = DistanceGrid.default(WINDOW, 25)
    results = [
        envelope(p, grid, "G", m=19, seed=5, workers=w) for w in (1, 1, 2)
    ]
    for other in results[1:]:
        np.testing.assert_array_equal(results[0].observed, other.observed)
        np.testing.assert_array_equal(results[0].sim_mean, other.sim_mean)
        np.testing.assert_array_equal(results[0].lo95, other.lo95)
        np.testing.assert_array_equal(results[0].hi95, other.hi95)
        np.testing.assert_array_equal(results[0].p_values, other.p_values)


def test_envelope_band_brackets_mean():
    p = simulate_csr(WINDOW, 60, seed=3)
    grid = DistanceGrid.default(WINDOW, 30)
    r = envelope(p, grid, "G", m=39, seed=6, workers=1)
    assert np.all(r.lo95 <= r.sim_mean) and np.all(r.sim_mean <= r.hi95)


def test_envelope_p_value_floor():
    p = simulate_csr(WINDOW, 60, seed=3)
    grid = DistanceGrid.default(WINDOW, 30)
    r = envelope(p, grid, "G", m=39, seed=6, workers=1)
    assert np.all(r.p_values >= 1.0 / 40.0)
    assert np.all(r.p_values <= 1.0)


def test_envelope_requires_19_simulations():
    p = simulate_csr(WINDOW, 20, seed=1)
    with pytest.raises(InvalidInputError):
        envelope(p, DistanceGrid.default(WINDOW, 10), "G", m=18, seed=0)


def test_envelope_rejects_unknown_statistic():
    p = simulate_csr(WINDOW, 20, seed=1)
    with pytest.raises(InvalidInputError):
        envelope(p, DistanceGrid.default(WINDOW, 10), "K", m=19, seed=0)


def test_most_extreme_observation_attains_rank_p_one_twentieth():
    # A pattern far more clustered than any of 19 CSR simulations ranks
    # first, so the rank formula gives exactly (1 + 0) / 20 at small d.
    grid = DistanceGrid(np.linspace(0.0, 20.0, 21))
    r = envelope(clustered_pattern(), grid, "G", m=19, seed=7, workers=1)
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


def test_j_envelope_flags_undefined_entries_as_nan():
    p = simulate_csr(WINDOW, 30, seed=12)
    # push the grid far beyond saturation so F reaches 1
    grid = DistanceGrid(np.linspace(0.0, math.hypot(WINDOW.width, WINDOW.height) * 1.1, 30))
    r = envelope(p, grid, "J", m=19, seed=13, n_ref=200, workers=1)
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
