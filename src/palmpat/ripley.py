"""Single-scale nearest-neighbor statistics on point patterns.

Implements the empirical G (nearest-neighbor), F (empty-space) and
J = (1 - G) / (1 - F) functions as float arrays over ``grid.values``,
plus per-point k-nearest-neighbor summary statistics.

Conventions, applied consistently so that observed and simulated patterns
are always compared with the same estimator:

* G(d) is the fraction of points whose nearest-neighbor distance is
  *strictly* less than d; F(d) is the analogous fraction over reference
  points dropped uniformly in the window. No edge correction is applied.
* F draws its reference points from a seeded stream, generated up front
  in one call (the bytes of ``rng.uniform(window.lo, window.hi, (n_ref, 2))``),
  so the curve is bit-reproducible for a fixed seed; ``n_ref`` defaults to
  max(1000, n). Each process keeps the last set it drew (``_references``),
  so every F of a fit reads one set. It keeps that set's filing into the
  grid kernel's cells with it (``_filed_references``) and files it again
  only when the pattern size changes, so a fit files it once.
* G's nearest-neighbour distances, F's reference distances and ``nn_stats``
  all come from ``geometry.nearest_neighbor_distances``, which states its
  kernel-or-tree rule and the window's scale bound.
* J is left undefined (NaN) wherever F(d) == 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, check_count
from .geometry import (FiledQueries, PointPattern, Window, increasing_values,
                       nearest_neighbor_distances)
from .seeding import DEFAULT_SEED, uniform_rows

DEFAULT_GRID_STEPS = 100
DEFAULT_NN_K, DEFAULT_NN_BINS = 5, 30
STATISTICS = ("G", "F", "J")


@dataclass(frozen=True)
class DistanceGrid:
    """Strictly increasing evaluation distances, first entry >= 0."""

    values: np.ndarray

    def __post_init__(self):
        values = increasing_values(self.values, "distance grid")
        if values[0] < 0.0:
            raise InvalidInputError(f"distances must be nonnegative, got {values[0]}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    @classmethod
    def default(cls, window: Window, steps: int = DEFAULT_GRID_STEPS) -> "DistanceGrid":
        """Evenly spaced grid from 0 to half the shorter window side."""
        steps = check_count(steps, "steps", 2)
        return cls(np.linspace(0.0, min(window.width, window.height) / 2.0, steps))


@dataclass(frozen=True)
class NeighborStats:
    """Summary of per-point mean k-nearest-neighbor distances."""

    mean: float
    median: float
    std: float
    bin_edges: np.ndarray
    counts: np.ndarray


def _empirical_cdf(sorted_samples: np.ndarray, grid: DistanceGrid) -> np.ndarray:
    # strict inequality: count of samples < d
    counts = np.searchsorted(sorted_samples, grid.values, side="left")
    return counts / sorted_samples.size


def g_function(pattern: PointPattern, grid: DistanceGrid) -> np.ndarray:
    """Fraction of points with nearest-neighbor distance strictly below d."""
    nnd = nearest_neighbor_distances(pattern, k=1)[:, 0]
    nnd.sort()
    return _empirical_cdf(nnd, grid)


def f_function(
    pattern: PointPattern,
    grid: DistanceGrid,
    n_ref: int | None = None,
    seed: int = DEFAULT_SEED,
) -> np.ndarray:
    """Fraction of seeded uniform reference points strictly closer than d to
    a point of the pattern (see the module docstring).

    ``n_ref`` defaults to max(1000, n) so that the Monte Carlo noise in F
    stays well below the discrepancies it is used to measure.
    """
    if len(pattern) == 0:
        raise InvalidInputError("F function needs a nonempty pattern")
    seed = check_count(seed, "seed", 0, None)  # before the cache, which cannot hash every bad seed
    n_ref = max(1000, len(pattern)) if n_ref is None else check_count(n_ref, "n_ref")
    refs = _filed_references(pattern.window, n_ref, seed)
    dist = nearest_neighbor_distances(pattern, queries=refs)[:, 0]
    dist.sort()
    return _empirical_cdf(dist, grid)


@lru_cache(maxsize=1)
def _references(window: Window, n_ref: int, seed: int) -> np.ndarray:
    """The seeded draw, read-only, kept until a call with other arguments."""
    refs = uniform_rows(window.lo, window.hi, n_ref, seed)
    refs.setflags(write=False)
    return refs


_filed = (None, None)  # the last set ``_references`` returned, and it as FiledQueries


def _filed_references(window: Window, n_ref: int, seed: int) -> FiledQueries:
    """``_references``' set as the ``FiledQueries`` F reads, kept with the set."""
    global _filed
    refs = _references(window, n_ref, seed)
    last, filed = _filed
    if last is not refs:  # a new draw
        filed = FiledQueries(refs)
        _filed = refs, filed
    return filed


def j_function(
    pattern: PointPattern,
    grid: DistanceGrid,
    n_ref: int | None = None,
    seed: int = DEFAULT_SEED,
) -> np.ndarray:
    """Pointwise (1 - G) / (1 - F), F drawn as by ``f_function``; NaN where F is 1."""
    g = g_function(pattern, grid)
    denom = 1.0 - f_function(pattern, grid, n_ref, seed)
    values = np.full_like(denom, np.nan)
    ok = denom > 0.0
    values[ok] = (1.0 - g[ok]) / denom[ok]
    return values


def statistic_curve(
    pattern: PointPattern,
    grid: DistanceGrid,
    statistic: str,
    n_ref: int | None,
    f_seed: int,
) -> np.ndarray:
    """Evaluate one statistic named in any case; F and J consume the given reference seed."""
    name = str(statistic).upper()
    if name == "G":
        return g_function(pattern, grid)
    if name == "F":
        return f_function(pattern, grid, n_ref, f_seed)
    if name == "J":
        return j_function(pattern, grid, n_ref, f_seed)
    raise InvalidInputError(f"statistic must be one of {STATISTICS}, got {statistic!r}")


def nn_stats(pattern: PointPattern, k: int = DEFAULT_NN_K,
             bins: int = DEFAULT_NN_BINS) -> NeighborStats:
    """Distribution of each point's mean distance to its k nearest neighbors.

    k=1 summarizes plain nearest-neighbor spacing; k=5 the average of the
    five nearest. Standard deviation uses the n-1 denominator.
    """
    check_count(bins, "bins")
    per_point = nearest_neighbor_distances(pattern, k).mean(axis=1)
    counts, edges = np.histogram(per_point, bins=bins)
    return NeighborStats(
        mean=float(per_point.mean()),
        median=float(np.median(per_point)),
        std=float(per_point.std(ddof=1)),
        bin_edges=edges,
        counts=counts,
    )
