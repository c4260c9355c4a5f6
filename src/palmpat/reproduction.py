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

Randomness layout: substream (0,) seeds one reference-point set that
the observed F curve and every trial's simulated F curve share, so the
reference-sampling noise cancels out of the |f - f_sim| comparison
instead of drowning the between-cell signal (``f_function`` keeps the set
it drew last, so each process of a fit draws it once; see ``ripley``);
trial t of cell (ip, is) uses substream (1, ip, is, t) for its simulation.
Results are bit-identical for a fixed master seed regardless of worker count
or execution order.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _native
from ._pool import MAX_TASKS, map_tasks
from .errors import InvalidInputError, check_count, check_real
from .geometry import PointPattern, Window, increasing_values
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
        object.__setattr__(self, "p", check_real(self.p, "p", 0.0, 1.0))
        object.__setattr__(self, "sigma", check_real(self.sigma, "sigma", 0.0, low_open=True))


@dataclass(frozen=True, eq=False)
class FitResult:
    """The best cell and the whole table as arrays in scan order (see ``fit``)."""

    best: ReproductionParams
    d_min: float
    p: np.ndarray
    sigma: np.ndarray
    d: np.ndarray
    d_total: np.ndarray


@dataclass
class SimulationDiagnostics:
    """Mutable counters a caller can pass in to observe rare fallbacks."""

    gaussian_fallbacks: int = 0


def trapezoid_integrate(xs, ys) -> float:
    """Composite trapezoid rule over strictly increasing abscissae."""
    xs = increasing_values(xs, "xs")
    try:
        ys = np.asarray(ys, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        ys = None
    if ys is None or ys.shape != xs.shape or xs.size < 2:
        raise InvalidInputError(f"need 1-D ys as long as xs, and 2+ samples; xs has {xs.size}")
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

    The C loop of ``_native.load()`` or, if it cannot load, the same loop on Python
    floats: both make the numpy array loop's generator calls in its order
    (``uniform(lo, hi)`` = ``lo + (hi - lo) * random(2)``), so the same bytes. Per
    n=1500 call on a 2-core x86 host: C 0.1-0.2 ms, floats 7-11 ms, array loop 19-29 ms.
    """
    n = check_count(n, "n")  # before the split, so both paths refuse the same inputs
    rng = rng_from_seed(seed)
    x0, y0, x1, y1 = window.lo + window.hi
    if lib := _native.load():
        pts = np.empty((n, 2))
        with rng.bit_generator.lock:
            fallbacks = lib.sample_reproduction(
                rng.bit_generator.ctypes.bit_generator.value, n, x0, y0, x1, y1, params.p,
                params.sigma, MAX_GAUSSIAN_ATTEMPTS, pts.ctypes.data)
    else:
        pts, fallbacks = _scalar_reproduction(rng, n, x0, y0, x1, y1, params.p, params.sigma)
    if fallbacks:
        logger.warning(
            "gaussian resampling hit the %d-attempt cap %d time(s); used uniform fallback",
            MAX_GAUSSIAN_ATTEMPTS, fallbacks,
        )
        if diagnostics is not None:
            diagnostics.gaussian_fallbacks += fallbacks
    return PointPattern(window, np.array(pts))


def _scalar_reproduction(rng, n, x0, y0, x1, y1, p, sigma):
    integers, random, standard_normal = rng.integers, rng.random, rng.standard_normal

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
    return pts, fallbacks


def discrepancy(
    observed_g: np.ndarray,
    observed_f: np.ndarray,
    simulated: PointPattern,
    grid: DistanceGrid,
    n_ref: int | None = None,
    seed: int = DEFAULT_SEED,
) -> float:
    """Integrated |G - G_sim| + |F - F_sim| over the grid the observed curves used;
    F_sim is ``f_function(simulated, grid, n_ref, seed)``."""
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
    accumulates their discrepancies. Returns the table as arrays in scan
    order (p outer, sigma inner): ``p``, ``sigma`` and ``d_total`` are
    (cells,), ``d`` is (cells, n_trials), and ``d_total`` is the Python
    ``sum`` of each row of ``d`` in trial order. ``best`` is the first
    minimum of ``d_total`` in scan order, so a tie goes to the earlier cell.
    ``n_ref`` is the F reference-point count (None: the ``f_function``
    default, which depends only on the shared point count); the observed F
    and every trial's F read one reference set, which the calling process and
    each pool worker draw once for themselves.
    """
    ps, sigmas = list(p_candidates), list(sigma_candidates)
    check_count(len(ps) * len(sigmas) * check_count(n_trials, "n_trials"), "fit task count", 0,
                MAX_TASKS)
    cells = [ReproductionParams(p, s) for p in ps for s in sigmas]
    if not cells:
        raise InvalidInputError("candidate lists must be nonempty")
    n = len(observed)
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
    d = np.reshape(map_tasks(_trial_discrepancy, tasks), (len(cells), n_trials))
    d_total = np.array([sum(row) for row in d.tolist()])  # numpy's sum can differ
    k = int(np.argmin(d_total))
    return FitResult(cells[k], float(d_total[k]), np.array([c.p for c in cells]),
                     np.array([c.sigma for c in cells]), d, d_total)
