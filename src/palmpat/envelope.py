"""Monte Carlo envelope test against complete spatial randomness.

The null model is the binomial process: the observed number of points
dropped independently and uniformly in the observed window, so the test
conditions on abundance. For each of m simulated patterns the chosen
statistic (G, F or J) is evaluated on the shared grid; the result carries
the pointwise simulation mean, the central 95% band (2.5%/97.5%
quantiles), and two-sided rank p-values

    p(d) = (1 + #{sims with |stat - mean| >= |observed - mean|}) / (m + 1)

whose smallest attainable value is 1 / (m + 1). Per-simulation seeds are
split off the master seed by counter, so the result is reproducible and
independent of worker count. For the J statistic, grid points where the
statistic is undefined (F == 1) propagate as NaN through every field.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._pool import MAX_TASKS, map_tasks
from .errors import InvalidInputError, check_count
from .geometry import PointPattern, Window
from .ripley import DistanceGrid, statistic_curve
from .seeding import DEFAULT_SEED, rng_from_seed, substream_seed

DEFAULT_SIMULATIONS = 199


@dataclass(frozen=True)
class EnvelopeResult:
    observed: np.ndarray
    sim_mean: np.ndarray
    lo95: np.ndarray
    hi95: np.ndarray
    p_values: np.ndarray


def simulate_csr(window: Window, n: int, seed: int = DEFAULT_SEED) -> PointPattern:
    """n points independently uniform over the window (binomial process)."""
    n = check_count(n, "n")
    rng = rng_from_seed(seed)
    return PointPattern(window, rng.uniform(window.lo, window.hi, size=(n, 2)))


def _sim_curve(task) -> np.ndarray:
    window, n, grid, statistic, n_ref, pattern_seed, f_seed = task
    pattern = simulate_csr(window, n, pattern_seed)
    return statistic_curve(pattern, grid, statistic, n_ref, f_seed)


def _nan_reduce(sims: np.ndarray):
    """Columnwise mean and 95% band, ignoring NaN; all-NaN columns stay NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(sims, axis=0)
        lo, hi = np.nanquantile(sims, [0.025, 0.975], axis=0)
    return mean, lo, hi


def envelope(
    pattern: PointPattern,
    grid: DistanceGrid,
    statistic: str = "G",
    m: int = DEFAULT_SIMULATIONS,
    seed: int = DEFAULT_SEED,
    n_ref: int | None = None,
) -> EnvelopeResult:
    """Compare a pattern's statistic against m conditional CSR simulations."""
    m = check_count(m, "m", 19, MAX_TASKS)  # 19: the fewest simulations for a 95% band
    n = len(pattern)
    if n < 2:
        raise InvalidInputError(f"envelope test needs at least 2 points, got {n}")

    observed = statistic_curve(pattern, grid, statistic, n_ref, substream_seed(seed, 0, 1))
    tasks = [
        (pattern.window, n, grid, statistic, n_ref,
         substream_seed(seed, i, 0), substream_seed(seed, i, 1))
        for i in range(1, m + 1)
    ]
    sims = np.stack(map_tasks(_sim_curve, tasks))

    sim_mean, lo95, hi95 = _nan_reduce(sims)
    t_obs = np.abs(observed - sim_mean)
    t_sim = np.abs(sims - sim_mean)
    # NaN comparisons are False, so undefined simulation entries never count
    # as extreme; the denominator stays m + 1 (conservative).
    exceed = np.sum(t_sim >= t_obs, axis=0)
    p_values = (1.0 + exceed) / (m + 1.0)
    p_values[np.isnan(t_obs)] = np.nan

    return EnvelopeResult(observed, sim_mean, lo95, hi95, p_values)
