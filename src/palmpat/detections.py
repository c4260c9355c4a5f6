"""Postprocessing for tiled detector output: patch-to-global coordinates,
duplicate removal across overlapping tiles, and count scoring against
labeled centers."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidInputError
from .geometry import Box, Point

DEFAULT_PATCH_SIZE = 800
DEFAULT_STRIDE = 400
DEFAULT_IOU_THRESHOLD = 0.5
DEFAULT_MATCH_RADIUS = 5.0


@dataclass(frozen=True)
class TileLayout:
    """Sliding-window tiling: tile (r, c) starts at origin + (c, r) * stride."""

    patch_size: int = DEFAULT_PATCH_SIZE
    stride: int = DEFAULT_STRIDE
    origin: Point = field(default_factory=lambda: Point(0.0, 0.0))

    def __post_init__(self):
        if self.patch_size <= 0:
            raise InvalidInputError(f"patch_size must be positive, got {self.patch_size}")
        if not 0 < self.stride <= self.patch_size:
            raise InvalidInputError(
                f"stride must be in (0, patch_size={self.patch_size}], got {self.stride}"
            )


@dataclass(frozen=True)
class DetectionSet:
    """Boxes tagged with their tile of origin; ``layout=None`` means the
    coordinates are already global."""

    layout: TileLayout | None
    boxes: tuple[tuple[int, int, Box], ...]

    def __post_init__(self):
        boxes = tuple((int(r), int(c), b) for r, c, b in self.boxes)
        for r, c, b in boxes:
            if r < 0 or c < 0:
                raise InvalidInputError(f"tile indices must be nonnegative, got ({r}, {c})")
            if self.layout is not None:
                s = self.layout.patch_size
                if not (0.0 <= b.x_min and b.x_max <= s and 0.0 <= b.y_min and b.y_max <= s):
                    raise InvalidInputError(
                        f"box {b} exceeds the {s}x{s} patch extent of tile ({r}, {c})"
                    )
        object.__setattr__(self, "boxes", boxes)

    def global_boxes(self) -> list[Box]:
        if self.layout is None:
            return [b for _, _, b in self.boxes]
        return [to_global(self.layout, r, c, b) for r, c, b in self.boxes]


def to_global(layout: TileLayout, tile_row: int, tile_col: int, box: Box) -> Box:
    """Translate a patch-local box into global coordinates."""
    if tile_row < 0 or tile_col < 0:
        raise InvalidInputError(f"tile indices must be nonnegative, got ({tile_row}, {tile_col})")
    return box.translate(
        layout.origin.x + tile_col * layout.stride,
        layout.origin.y + tile_row * layout.stride,
    )


def merge_nms(boxes, iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> list[Box]:
    """Greedy non-maximum suppression.

    Boxes are visited by descending confidence (input order breaks ties);
    a box is kept iff its IoU with every already-kept box stays below the
    threshold. Returns kept boxes in visit order.

    Only box pairs that can intersect are compared: a pair that does not
    intersect has IoU 0, which is below any threshold in (0, 1], so it can
    never suppress. Two boxes intersect only if their centres lie within
    the largest box extent of each other in every axis, so one k-d tree
    pair query finds every candidate pair, and their IoU is computed with
    the arithmetic of ``geometry.iou``. The kept list is therefore exactly
    that of comparing each candidate with every kept box, at a cost of
    about O(n log n + intersecting pairs) instead of O(n * kept).
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise InvalidInputError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    boxes = list(boxes)
    n = len(boxes)
    arr = np.array([(b.x_min, b.y_min, b.x_max, b.y_max, b.confidence) for b in boxes],
                   dtype=float).reshape(n, 5)
    order = np.argsort(-arr[:, 4], kind="stable")
    # Row k of the arrays below is the k-th box visited.
    x0, y0, x1, y1 = arr[order, :4].T

    # Halved before adding so that neither sum overflows.
    centres = np.column_stack((0.5 * x0 + 0.5 * x1, 0.5 * y0 + 0.5 * y1))
    half = np.maximum(0.5 * x1 - 0.5 * x0, 0.5 * y1 - 0.5 * y0)
    reach = 2.0 * float(half.max(initial=0.0))
    # Pad for rounding in the centre and extent arithmetic.
    reach += 1e-9 * (reach + float(np.abs(centres).max(initial=0.0)))
    # Pairs come as (i, j) with i < j: box i is visited first, so only it
    # can suppress the other.
    i, j = cKDTree(centres).query_pairs(reach, p=np.inf, output_type="ndarray").T

    iw = np.minimum(x1[i], x1[j]) - np.maximum(x0[i], x0[j])
    ih = np.minimum(y1[i], y1[j]) - np.maximum(y0[i], y0[j])
    hit = (iw > 0.0) & (ih > 0.0)
    i, j, iw, ih = i[hit], j[hit], iw[hit], ih[hit]
    area = (x1 - x0) * (y1 - y0)
    inter = iw * ih
    close = inter / (area[i] + area[j] - inter) >= iou_threshold
    i, j = i[close], j[close]
    by_first = np.argsort(i)
    later = j[by_first]
    bounds = np.searchsorted(i[by_first], np.arange(n + 1)).tolist()

    suppressed = np.zeros(n, dtype=bool)
    kept = []
    for k in range(n):
        if suppressed[k]:
            continue
        kept.append(boxes[order[k]])
        suppressed[later[bounds[k]:bounds[k + 1]]] = True
    return kept


def centers(boxes) -> list[Point]:
    return [b.center for b in boxes]


@dataclass(frozen=True)
class MatchReport:
    """One-to-one matching of detections to labels within a radius.

    ``matched`` holds one (labeled index, detected index) row per match, in
    match order, and ``distances`` the matched distances in the same order.
    ``accuracy`` divides by the labeled count (recall-style) and is NaN
    when there are no labels; ``detected_rate`` divides by the detected
    count. Shift statistics are over matched distances; std uses the n-1
    denominator and is NaN below 2 matches.
    """

    matched: np.ndarray
    distances: np.ndarray
    n_labeled: int
    n_detected: int
    accuracy: float
    detected_rate: float
    shift_mean: float
    shift_median: float
    shift_std: float


def _coords(points, name: str) -> np.ndarray:
    try:
        arr = np.asarray(points, dtype=float)
        arr = arr.reshape(0, 2) if arr.size == 0 else arr
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 2 or arr.shape[1] != 2 or not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must be an (n, 2) array of finite coordinates")
    return arr


def match_counts(detected, labeled, radius: float = DEFAULT_MATCH_RADIUS) -> MatchReport:
    """Greedily pair detections with labels, nearest pairs first.

    ``detected`` and ``labeled`` are (n, 2) coordinate arrays. Candidate
    pairs are those within ``radius``; they are matched in ascending
    distance order (ties: lower labeled index, then lower detected index),
    each point used at most once. One k-d tree query finds the candidate
    pairs, so the cost is about O(n log n + candidate pairs).
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise InvalidInputError(f"radius must be positive, got {radius}")
    detected = _coords(detected, "detected")
    labeled = _coords(labeled, "labeled")
    n_lab, n_det = len(labeled), len(detected)

    # Query a hair wide, then gate on the recomputed distance so the
    # "<= radius" rule is exact under one distance definition.
    ball = radius * (1.0 + 1e-12) + 1e-12
    pairs = cKDTree(labeled).sparse_distance_matrix(cKDTree(detected), ball,
                                                    output_type="ndarray")
    # math.hypot, not np.hypot: the two differ in the last bit on some pairs.
    delta = detected[pairs["j"]] - labeled[pairs["i"]]
    dist = np.array(list(map(math.hypot, delta[:, 0].tolist(), delta[:, 1].tolist())))
    near = dist <= radius
    li, di, dist = pairs["i"][near], pairs["j"][near], dist[near]
    order = np.lexsort((di, li, dist))

    used_labeled, used_detected = bytearray(n_lab), bytearray(n_det)
    taken = []
    for k, i, j in zip(order.tolist(), li[order].tolist(), di[order].tolist()):
        if used_labeled[i] or used_detected[j]:
            continue
        used_labeled[i] = used_detected[j] = 1
        taken.append(k)

    shifts = dist[taken]
    n_matched = len(taken)
    return MatchReport(
        matched=np.column_stack((li[taken], di[taken])),
        distances=shifts,
        n_labeled=n_lab,
        n_detected=n_det,
        accuracy=n_matched / n_lab if n_lab else float("nan"),
        detected_rate=n_matched / n_det if n_det else float("nan"),
        shift_mean=float(shifts.mean()) if n_matched else float("nan"),
        shift_median=float(np.median(shifts)) if n_matched else float("nan"),
        shift_std=float(shifts.std(ddof=1)) if n_matched >= 2 else float("nan"),
    )
