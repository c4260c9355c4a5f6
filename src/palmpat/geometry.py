"""Planar geometry primitives: windows, patterns, boxes.

Coordinates are plain floats in working units (meters once any pixel
scaling has been applied upstream). Containment is boundary-inclusive
everywhere. All functions are pure and safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _native
from .errors import InvalidInputError, check_count, check_real


def finite_rows(rows, width: int, name: str) -> np.ndarray:
    """``rows`` as an (n, width) float array of finite values."""
    try:
        arr = np.asarray(rows, dtype=float)
        arr = arr.reshape(0, width) if arr.size == 0 else arr
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 2 or arr.shape[1] != width or not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must be an (n, {width}) array of finite values")
    return arr


def increasing_values(values, name: str) -> np.ndarray:
    """``values`` as a new nonempty, finite, strictly increasing 1-D float array."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 1 or not (arr.size and np.isfinite(arr).all()
                                           and (np.diff(arr) > 0.0).all()):
        raise InvalidInputError(f"{name} must be nonempty, finite, strictly increasing and 1-D")
    return arr


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangle with strictly positive area."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        for field in ("x_min", "y_min", "x_max", "y_max"):
            object.__setattr__(self, field, check_real(getattr(self, field), f"window {field}"))
        bounds = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise InvalidInputError(f"window must have positive area, got {bounds}")
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise InvalidInputError(f"window width and height must be finite, got {bounds}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def lo(self) -> tuple[float, float]:
        return (self.x_min, self.y_min)

    @property
    def hi(self) -> tuple[float, float]:
        return (self.x_max, self.y_max)

    def contains(self, x, y):
        """Boundary-inclusive containment test; accepts scalars or arrays."""
        return (
            (self.x_min <= x) & (x <= self.x_max)
            & (self.y_min <= y) & (y <= self.y_max)
        )


@dataclass(frozen=True)
class PointPattern:
    """A finite set of events inside an observation window.

    ``coords`` is an immutable float array of shape (n, 2); column 0 is x.
    Points on the window boundary count as inside.
    """

    window: Window
    coords: np.ndarray

    def __post_init__(self):
        coords = finite_rows(self.coords, 2, "coords").copy()
        outside = ~self.window.contains(coords[:, 0], coords[:, 1])
        if outside.any():
            x, y = coords[outside][0]
            raise InvalidInputError(f"point ({x}, {y}) lies outside window {self.window}")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return self.coords.shape[0]

    @cached_property
    def tree(self):
        """scipy's ``cKDTree`` on ``coords``, built on first use and shared by
        every statistic of this pattern (see ``check_distance_scale``). scipy is
        imported here, on first use, since the grid kernel mostly answers instead."""
        from scipy.spatial import cKDTree

        check_distance_scale(self.window)
        return cKDTree(self.coords)


def check_distance_scale(window: Window) -> None:
    """Refuse a window side outside [1e-150, 1e150], where squared distances
    overflow or turn subnormal; both nearest-neighbour paths pass through here."""
    sides = (window.width, window.height)
    if not 1e-150 <= min(sides) <= max(sides) <= 1e150:
        raise InvalidInputError(f"window sides {sides} lie outside [1e-150, 1e150]; "
                                "rescale the coordinates")


class Box(NamedTuple):
    """One unvalidated row of an (n, 5) box array; the library checks boxes
    where they enter ``merge_nms`` or ``to_global``."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    confidence: float = 1.0


def iou(a, b):
    """Intersection over union of box rows ``a`` and ``b`` (broadcast over
    leading axes); 0 where the interiors are disjoint."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = iw * ih
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    out = np.zeros(inter.shape)
    np.divide(inter, area_a + area_b - inter, out=out, where=(iw > 0.0) & (ih > 0.0))
    return out[()]


def nearest_neighbor_distances(pattern: PointPattern, k: int = 1) -> np.ndarray:
    """Per-point distances to the k nearest other points, ascending.

    Returns an (n, k) array; row i holds the k smallest distances from
    point i to the remaining points. Exact, and coincident points yield zero
    distances. At k = 1 the compiled grid kernel of ``nearest_distances``
    answers, with the k-d tree ``pattern.tree`` as its fallback; the tree
    answers every k > 1. Both give the all-pairs answer, byte for byte.
    """
    n = len(pattern)
    if n < 2:
        raise InvalidInputError(f"nearest-neighbor query needs at least 2 points, got {n}")
    check_count(k, "k", most=n - 1)
    if k == 1:
        return nearest_distances(pattern)[:, None]
    dist, _ = pattern.tree.query(pattern.coords, k=k + 1)
    # Column 0 is the point itself, or a tied zero among coincident points.
    return np.ascontiguousarray(dist[:, 1:])


def nearest_distances(pattern: PointPattern, queries: np.ndarray | None = None) -> np.ndarray:
    """The distance from each query row to the nearest point of ``pattern``, or
    with no queries from each point to its nearest other point (n >= 2).

    The compiled grid kernel answers first (``grid_distances``); the k-d tree
    answers when the library cannot load or the kernel gives up on a tight
    cluster. Both compute ``sqrt(dx*dx + dy*dy)`` exactly alike, so the bytes
    are the same either way.
    """
    check_distance_scale(pattern.window)
    dist = grid_distances(pattern, queries)
    if dist is not None:
        return dist
    if queries is None:  # column 0 is the point itself, or a tied zero
        return pattern.tree.query(pattern.coords, k=2)[0][:, 1].copy()
    return pattern.tree.query(queries, k=1)[0]


def grid_distances(pattern: PointPattern, queries: np.ndarray | None = None):
    """``nearest_distances`` by the compiled grid kernel alone; None when the
    library cannot load or the kernel passes its work budget."""
    lib = _native.load()
    if lib is None:
        return None
    if queries is not None:  # the kernel reads C-contiguous float rows
        queries = np.ascontiguousarray(finite_rows(queries, 2, "queries"))
    m = len(pattern) if queries is None else len(queries)
    dist = np.empty(m)
    w = pattern.window
    status = lib.nearest_distances(
        pattern.coords.ctypes.data, len(pattern), None if queries is None else queries.ctypes.data,
        m, w.x_min, w.y_min, w.x_max, w.y_max, dist.ctypes.data)
    return dist if status == 0 else None
