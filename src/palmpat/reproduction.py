"""Bimodal (local Gaussian + global uniform) point-process simulator and
the grid-search fit that matches it to an observed pattern.

The generative model grows a pattern one point at a time. The first point
is uniform over the window. Each subsequent point picks a uniform random
parent among the points placed so far and, with probability ``p``, is
drawn from an isotropic Gaussian with standard deviation ``sigma``
centered on that parent (resampled until it lands inside the window);
otherwise it is uniform over the window. Higher ``p`` therefore means
*more* local clustering, and ``1 - p`` is the globally dispersed
fraction.

Goodness of fit between an observed pattern and a candidate (p, sigma) is
the trapezoid-integrated absolute difference of the G and F curves,

    d_i = integral |g - g_sim_i| dx + integral |f - f_sim_i| dx,

summed over ``n_trials`` independent simulations per candidate pair. The
grid search scans p in the outer loop and sigma in the inner loop and
keeps the first minimum, so ties resolve to the earliest candidate in scan
order.

Randomness layout: substream (0,) seeds one reference-point stream that
the observed F curve and every trial's simulated F curve share, so the
reference-sampling noise cancels out of the |f - f_sim| comparison
instead of drowning the between-cell signal; trial t of cell (ip, is)
uses substream (1, ip, is, t) for its simulation. Results are
bit-identical for a fixed master seed regardless of worker count or
execution order.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._pool import map_tasks
from .errors import InvalidInputError
from .geometry import PointPattern, Window
from .ripley import DistanceGrid, f_function, g_function
from .seeding import DEFAULT_SEED, rng_from_seed, substream_seed

logger = logging.getLogger(__name__)

DEFAULT_TRIALS = 10
MAX_GAUSSIAN_ATTEMPTS = 1000


@dataclass(frozen=True)
class ReproductionParams:
    """Clustering probability p in [0, 1] and Gaussian spread sigma > 0."""

    p: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.p) and 0.0 <= self.p <= 1.0):
            raise InvalidInputError(f"p must be in [0, 1], got {self.p}")
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise InvalidInputError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class FitCell:
    """One grid-search cell: candidate pair, total and per-trial discrepancies."""

    p: float
    sigma: float
    d_total: float
    d_trials: tuple[float, ...]


@dataclass(frozen=True)
class FitResult:
    best: ReproductionParams
    d_min: float
    table: tuple[FitCell, ...]


@dataclass
class SimulationDiagnostics:
    """Mutable counters a caller can pass in to observe rare fallbacks."""

    gaussian_fallbacks: int = 0


def trapezoid_integrate(xs, ys) -> float:
    """Composite trapezoid rule over strictly increasing abscissae."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1 or xs.size != ys.size:
        raise InvalidInputError(
            f"xs and ys must be 1-D and equally long, got {xs.shape} and {ys.shape}"
        )
    if xs.size < 2:
        raise InvalidInputError(f"need at least 2 samples, got {xs.size}")
    if not np.all(np.isfinite(xs)):
        raise InvalidInputError("xs must be finite")
    if not np.all(np.diff(xs) > 0.0):
        raise InvalidInputError("xs must be strictly increasing")
    return float(np.sum((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1])) / 2.0)


def simulate_reproduction(
    window: Window,
    n: int,
    params: ReproductionParams,
    seed: int = DEFAULT_SEED,
    diagnostics: SimulationDiagnostics | None = None,
) -> PointPattern:
    """Grow an n-point pattern under the bimodal dispersal model.

    Gaussian offspring falling outside the window are resampled, up to
    ``MAX_GAUSSIAN_ATTEMPTS`` times; after that the draw falls back to a
    uniform point and the event is counted in ``diagnostics`` (and logged).
    With p=0 the output is exactly a binomial/CSR pattern.

    Python floats, same generator calls and order as the numpy array loop
    (``uniform(lo, hi)`` = ``lo + (hi - lo) * random(2)``), so the same bytes;
    about 7-11 ms per n=1500 call on a 2-core x86 host (that loop: 19-29 ms).
    """
    if n < 1:
        raise InvalidInputError(f"point count must be positive, got {n}")
    rng = rng_from_seed(seed)
    integers, random, standard_normal = rng.integers, rng.random, rng.standard_normal
    x0, y0, x1, y1 = map(float, window.lo + window.hi)
    p, sigma = params.p, params.sigma

    def uniform():
        u = random(2).tolist()
        return (x0 + (x1 - x0) * u[0], y0 + (y1 - y0) * u[1])

    pts = [uniform()]
    fallbacks = 0
    for i in range(1, n):
        px, py = pts[integers(i)]
        if random() < p:
            for _ in range(MAX_GAUSSIAN_ATTEMPTS):
                zx, zy = standard_normal(2).tolist()
                cx, cy = px + sigma * zx, py + sigma * zy
                if x0 <= cx <= x1 and y0 <= cy <= y1:
                    pts.append((cx, cy))
                    break
            else:
                pts.append(uniform())
                fallbacks += 1
        else:
            pts.append(uniform())
    if fallbacks:
        logger.warning(
            "gaussian resampling hit the %d-attempt cap %d time(s); used uniform fallback",
            MAX_GAUSSIAN_ATTEMPTS, fallbacks,
        )
        if diagnostics is not None:
            diagnostics.gaussian_fallbacks += fallbacks
    return PointPattern(window, np.array(pts))


def discrepancy(
    observed_g: np.ndarray,
    observed_f: np.ndarray,
    simulated: PointPattern,
    grid: DistanceGrid,
    n_ref: int | None = None,
    seed: int = DEFAULT_SEED,
) -> float:
    """Integrated |G - G_sim| + |F - F_sim| over the grid the observed curves used."""
    if not (np.shape(observed_g) == np.shape(observed_f) == (len(grid),)):
        raise InvalidInputError("observed curves must be evaluated on the given grid")
    g_sim = g_function(simulated, grid)
    f_sim = f_function(simulated, grid, n_ref, seed)
    return (
        trapezoid_integrate(grid.values, np.abs(observed_g - g_sim))
        + trapezoid_integrate(grid.values, np.abs(observed_f - f_sim))
    )


def _trial_discrepancy(task) -> float:
    (window, n, params, grid, n_ref, obs_g, obs_f, sim_seed, f_seed) = task
    simulated = simulate_reproduction(window, n, params, sim_seed)
    return discrepancy(obs_g, obs_f, simulated, grid, n_ref, f_seed)


def fit(
    observed: PointPattern,
    p_candidates,
    sigma_candidates,
    n_trials: int = DEFAULT_TRIALS,
    grid: DistanceGrid | None = None,
    n_ref: int | None = None,
    seed: int = DEFAULT_SEED,
) -> FitResult:
    """Exhaustive grid search for the (p, sigma) pair that best reproduces
    the observed pattern's G and F curves.

    The observed curves are computed once up front; every candidate cell
    then runs ``n_trials`` simulations of ``len(observed)`` points and
    accumulates their discrepancies. Returns the full table (scan order:
    p outer, sigma inner, trials in order) plus the best cell: the first
    minimum of ``d_total`` in scan order, so a tie goes to the earlier cell.
    ``n_ref`` is passed to every F evaluation as given (None: the
    ``f_function`` default, which depends only on the shared point count).
    """
    sigmas = list(sigma_candidates)
    cells = [ReproductionParams(float(p), float(s)) for p in p_candidates for s in sigmas]
    if not cells:
        raise InvalidInputError("candidate lists must be nonempty")
    if n_trials < 1:
        raise InvalidInputError(f"n_trials must be positive, got {n_trials}")
    n = len(observed)
    if n < 2:
        raise InvalidInputError(f"fit needs at least 2 observed points, got {n}")
    if grid is None:
        grid = DistanceGrid.default(observed.window)

    f_seed = substream_seed(seed, 0)
    obs_g = g_function(observed, grid)
    obs_f = f_function(observed, grid, n_ref, f_seed)

    tasks = [
        (observed.window, n, params, grid, n_ref, obs_g, obs_f,
         substream_seed(seed, 1, *divmod(k, len(sigmas)), t), f_seed)
        for k, params in enumerate(cells)
        for t in range(n_trials)
    ]
    d_values = map_tasks(_trial_discrepancy, tasks)
    runs = [tuple(d_values[i:i + n_trials]) for i in range(0, len(d_values), n_trials)]
    table = tuple(FitCell(c.p, c.sigma, float(sum(d)), d) for c, d in zip(cells, runs))
    best = min(table, key=lambda c: c.d_total)
    return FitResult(ReproductionParams(best.p, best.sigma), best.d_total, table)
