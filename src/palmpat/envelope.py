"""Monte Carlo envelope test against complete spatial randomness.

The null model is the binomial process: the observed number of points
dropped independently and uniformly in the observed window, so the test
conditions on abundance. For each of m simulated patterns the chosen
statistic (G, F or J) is evaluated on the shared grid; the result carries
the pointwise simulation mean, the central 95% band (2.5%/97.5%
quantiles), and two-sided rank p-values

    p(d) = (1 + #{sims with |stat - mean| >= |observed - mean|}) / (m + 1)

whose smallest attainable value is 1 / (m + 1). Simulation i's seeds are
split off the master seed by the counters (i, 0) for its pattern and (i, 1)
for F's reference points; each task carries only i and the worker splits
them, so the result is reproducible and independent of worker count. For the
J statistic, grid points where the statistic is undefined (F == 1) propagate
as NaN through every field.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._pool import MAX_TASKS, map_tasks
from .errors import InvalidInputError, check_count
from .geometry import PointPattern, Window
from .ripley import DistanceGrid, statistic_curve
from .seeding import DEFAULT_SEED, substream_seed, uniform_rows

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
    return PointPattern(window, uniform_rows(window.lo, window.hi, check_count(n, "n"), seed))


def _sim_curve(task) -> np.ndarray:
    (window, n, grid, statistic, n_ref, seed), i = task
    pattern = simulate_csr(window, n, substream_seed(seed, i, 0))
    f_seed = 0 if statistic == "G" else substream_seed(seed, i, 1)  # G reads no references
    return statistic_curve(pattern, grid, statistic, n_ref, f_seed)


def _nan_reduce(sims: np.ndarray):
    """Columnwise mean and 95% band, ignoring NaN; all-NaN columns stay NaN.
    nanquantile loops over the columns in Python, so only the columns partly
    NaN go to it; all-NaN columns are filled with NaN and the rest take
    np.quantile, the same bytes column by column. The mean is one np.nanmean
    over all columns."""
    nan = np.isnan(sims)
    holed = nan.any(axis=0)
    partly = holed & ~nan.all(axis=0)
    band = np.full((2, sims.shape[1]), np.nan)
    band[:, ~holed] = np.quantile(sims[:, ~holed], [0.025, 0.975], axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the mean of all-NaN columns
        mean = np.nanmean(sims, axis=0)
    band[:, partly] = np.nanquantile(sims[:, partly], [0.025, 0.975], axis=0)
    return mean, band[0], band[1]


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
    shared = (pattern.window, n, grid, str(statistic).upper(), n_ref, seed)
    sims = np.stack(map_tasks(_sim_curve, [(shared, i) for i in range(1, m + 1)]))

    sim_mean, lo95, hi95 = _nan_reduce(sims)
    t_obs = np.abs(observed - sim_mean)
    t_sim = np.abs(sims - sim_mean)
    # NaN comparisons are False, so undefined simulation entries never count
    # as extreme; the denominator stays m + 1 (conservative).
    exceed = np.sum(t_sim >= t_obs, axis=0)
    p_values = (1.0 + exceed) / (m + 1.0)
    p_values[np.isnan(t_obs)] = np.nan

    return EnvelopeResult(observed, sim_mean, lo95, hi95, p_values)
