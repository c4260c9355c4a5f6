"""Planar geometry primitives: windows, patterns, boxes.

Coordinates are plain floats in working units (meters once any pixel
scaling has been applied upstream). Containment is boundary-inclusive
everywhere. All functions are pure and safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidInputError


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangle with strictly positive area."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        bounds = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(v) for v in bounds):
            raise InvalidInputError(f"window bounds must be finite, got {bounds}")
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
    def shorter_side(self) -> float:
        return min(self.width, self.height)

    @property
    def area(self) -> float:
        return self.width * self.height

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
        coords = np.array(self.coords, dtype=float, copy=True)
        if coords.size == 0:
            coords = coords.reshape(0, 2)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise InvalidInputError(f"coords must have shape (n, 2), got {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise InvalidInputError("coords must be finite")
        inside = self.window.contains(coords[:, 0], coords[:, 1])
        if not np.all(inside):
            bad = coords[~inside][0]
            raise InvalidInputError(
                f"point ({bad[0]}, {bad[1]}) lies outside window {self.window}"
            )
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return self.coords.shape[0]


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
    point i to the remaining points. Exact: the k-d tree is only an
    accelerator and matches the all-pairs answer. Coincident points yield
    zero distances.
    """
    n = len(pattern)
    if n < 2:
        raise InvalidInputError(f"nearest-neighbor query needs at least 2 points, got {n}")
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"k must be in [1, {n - 1}], got {k}")
    dist, _ = cKDTree(pattern.coords).query(pattern.coords, k=k + 1)
    # Column 0 is the point itself, or a tied zero among coincident points.
    return np.ascontiguousarray(dist[:, 1:])
