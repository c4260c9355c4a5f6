"""Planar geometry primitives: windows, patterns, boxes, close pairs.

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
        every statistic of this pattern; ``nearest_neighbor_distances`` says
        when it answers. scipy is imported here, on first use."""
        from scipy.spatial import cKDTree

        return cKDTree(self.coords)


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


def close_pairs(a: np.ndarray, b: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(i, j)`` of the pairs of (n, 2) float rows with
    ``|a[i] - b[j]| <= reach`` in both axes, each pair once. With ``a is b``
    a row is not paired with itself and each pair comes as i < j.

    ``b`` is filed in square cells just wider than ``reach``, numbered row by
    row, and each row of ``a`` gathers the 3x3 cells around its own: three
    runs of cell numbers, each found by a binary search of ``b``'s sorted
    cell numbers, so only occupied cells cost memory. A self search gathers
    only the rest of its own cell, the next cell and the three cells above.
    The cost is O((len(a) + len(b)) log len(b) + pairs in the gathered
    cells), whatever the span, unless ``reach`` is below 2^-30 of ``b``'s
    span: the cells are then that wide, so that a cell number fits in 64
    bits.
    """
    empty = np.empty(0, dtype=np.intp)
    if not (len(a) and len(b)):
        return empty, empty
    # Halved before subtracting, so that no span overflows. Each axis is a
    # 1-D column: numpy loops over a 2-wide axis slowly.
    x0, y0 = 0.5 * float(b[:, 0].min()), 0.5 * float(b[:, 1].min())
    sx, sy = 0.5 * float(b[:, 0].max()) - x0, 0.5 * float(b[:, 1].max()) - y0
    # The half side is padded above half the reach, so that rounding cannot
    # put a pair two cells apart; at least 2^-30 of the larger span, so that
    # a cell number fits in 64 bits; and at least 2^-1000, so that no
    # division below is subnormal or overflows.
    step = max(0.5 * reach * (1.0 + 2.0 ** -20), max(sx, sy) * 2.0 ** -30, 2.0 ** -1000)
    nx, ny = math.floor(sx / step) + 1, math.floor(sy / step) + 1
    # Three empty cells pad each side, so that the runs around a row never
    # wrap into the next row of cells; a row far outside is put two cells out.
    width = nx + 6

    def cell(column, lo, top):
        with np.errstate(over="ignore"):
            at = np.floor((0.5 * column - lo) / step)
        return np.clip(at, -2, top).astype(np.int64) + 3

    def cells(rows):
        return cell(rows[:, 1], y0, ny + 1) * width + cell(rows[:, 0], x0, nx + 1)

    key = cells(b)
    order = np.argsort(key)
    key = key[order]
    # Row t of (first, end) holds one run of cells for every row of a; the
    # rows of b in cells k..l are order[searchsorted(key, k):searchsorted(key, l + 1)].
    # The rows of a go in cell order too: a binary search over ascending
    # queries is several times faster.
    if a is b:
        rows = order
        first = np.stack((np.arange(1, len(b) + 1), np.searchsorted(key, key + width - 1)))
        end = np.searchsorted(key, np.stack((key + 2, key + width + 2)))
    else:
        rows = np.argsort(own := cells(a))
        first = own[rows] + np.array([[-width - 1], [-1], [width - 1]])
        first, end = np.searchsorted(key, first), np.searchsorted(key, first + 3)
    count = (end - first).ravel()
    i = np.repeat(np.tile(rows, len(end)), count)
    j = order[np.repeat(first.ravel() - (np.cumsum(count) - count), count)
              + np.arange(len(i))]
    with np.errstate(over="ignore"):  # rows two cells apart may differ past the float range
        near = np.flatnonzero((np.abs(a[i, 0] - b[j, 0]) <= reach)
                              & (np.abs(a[i, 1] - b[j, 1]) <= reach))
    i, j = i[near], j[near]
    return (np.minimum(i, j), np.maximum(i, j)) if a is b else (i, j)


class FiledQueries:
    """Query rows for ``nearest_neighbor_distances`` that keep the kernel's
    filing of them (``_native.c``'s ``file_queries``) for the last pattern size
    and window they were asked against. That filing depends on nothing else, so
    one object passed to many calls of one size and window is filed once. The
    tree reads ``rows``."""

    def __init__(self, rows):
        self.rows = np.ascontiguousarray(finite_rows(rows, 2, "queries"))  # as the kernel reads
        self._filed = (None, None, None)  # (n, window), the filing and its address

    def filing(self, lib, n: int, window: Window) -> tuple[np.ndarray, int]:
        """The rows filed into the grid that ``lib`` lays for n points in
        ``window``, and its address; hold the filing while the kernel reads it."""
        grid, filing, address = self._filed
        if grid != (n, window):
            filing = np.empty(4 * len(self.rows), dtype=np.int64)  # file_queries' 4 a row
            address = filing.ctypes.data
            if lib.file_queries(self.rows.ctypes.data, len(self.rows), n, *window.lo,
                                *window.hi, address):
                raise MemoryError("the kernel could not file the queries")
            self._filed = ((n, window), filing, address)
        return filing, address


def nearest_neighbor_distances(pattern: PointPattern, k: int = 1,
                               queries: np.ndarray | FiledQueries | None = None) -> np.ndarray:
    """The (m, k) distances, ascending, from each query row to its k <= n
    nearest points of ``pattern``, or with no queries from each of its n >= 2
    points to the k <= n - 1 nearest others (m = n). Exact, so coincident
    points give zero distances, and the bytes are the same whichever path
    answers. A window side outside [1e-150, 1e150] is refused (after n and k):
    the squared differences would overflow or turn subnormal.

    The one kernel-or-tree rule: the compiled grid kernel (``_native.c``)
    answers when k = 1, the library loads and the kernel stays within its work
    budget; the k-d tree ``pattern.tree`` answers the rest. ``_native.c``'s
    header and comments describe the kernel's 3x3 block scan, the grid it
    refines for G and its budget. Raw ``queries`` are filed for the kernel on
    each call; ``FiledQueries`` keep their filing from call to call.
    """
    n = len(pattern)
    if queries is None and n < 2:
        raise InvalidInputError(f"nearest-neighbor query needs at least 2 points, got {n}")
    check_count(k, "k", most=n - 1 if queries is None else n)
    w = pattern.window
    if not 1e-150 <= min(w.width, w.height) <= max(w.width, w.height) <= 1e150:
        raise InvalidInputError(f"window sides {(w.width, w.height)} lie outside "
                                "[1e-150, 1e150]; rescale the coordinates")
    if queries is not None and not isinstance(queries, FiledQueries):
        queries = FiledQueries(queries)
    m = n if queries is None else len(queries.rows)
    dist = np.empty((m, 1))
    if k == 1 and (lib := _native.load()):
        # filing stays referenced here while the kernel reads it
        filing, q = (None, None) if queries is None else queries.filing(lib, n, w)
        if lib.nearest_distances(pattern.coords.ctypes.data, n, q, m, *w.lo, *w.hi,
                                 dist.ctypes.data) == 0:
            return dist
    if queries is None:  # column 0 is the point itself, or a tied zero among coincident points
        return np.ascontiguousarray(pattern.tree.query(pattern.coords, k=k + 1)[0][:, 1:])
    return pattern.tree.query(queries.rows, k=k)[0].reshape(m, k)
