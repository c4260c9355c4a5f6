"""Postprocessing for tiled detector output: patch-to-global coordinates,
NMS across overlapping tiles in one pass over the close box pairs, and
count scoring against labeled centers; ``geometry.finite_rows`` reads input."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_count, check_real
from .geometry import Box, finite_rows, iou

DEFAULT_PATCH_SIZE = 800
DEFAULT_STRIDE = 400
DEFAULT_IOU_THRESHOLD = 0.5
DEFAULT_MATCH_RADIUS = 5.0


@dataclass(frozen=True)
class TileLayout:
    """Sliding-window tiling: tile (r, c) starts at origin + (c, r) * stride,
    where ``origin`` is an (x, y) pair."""

    patch_size: int = DEFAULT_PATCH_SIZE
    stride: int = DEFAULT_STRIDE
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        origin = tuple(self.origin) if np.iterable(self.origin) else ()
        if len(origin) != 2:
            raise InvalidInputError(f"origin must be an (x, y) pair, got {self.origin}")
        object.__setattr__(self, "origin", tuple(check_real(v, "origin") for v in origin))
        object.__setattr__(self, "patch_size", check_count(self.patch_size, "patch_size"))
        object.__setattr__(self, "stride", check_count(self.stride, "stride", most=self.patch_size))


def _raise_first(checks) -> None:
    """Raise for the first row that fails any of ``checks``, a list of
    (bad-row mask, message for row k) pairs; within that row the earliest
    failing check names the fault."""
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
    if bad.size:
        k = int(bad[0])
        raise InvalidInputError(next(message(k) for mask, message in checks if mask[k]))


def _box_checks(boxes: np.ndarray):
    """Positive area and confidence in [0, 1], for ``_raise_first``."""
    x0, y0, x1, y1, conf = boxes.T
    return [
        (~((x0 < x1) & (y0 < y1)),
         lambda k: f"box must have positive area, got {tuple(boxes[k, :4].tolist())}"),
        (~((0.0 <= conf) & (conf <= 1.0)),
         lambda k: f"confidence must be in [0, 1], got {conf[k].item()}"),
    ]


def to_global(layout: TileLayout, detections) -> np.ndarray:
    """Translate patch-local detections into global boxes.

    ``detections`` holds (n, 7) rows ``tile_row, tile_col, x_min, y_min,
    x_max, y_max, confidence``; a box in tile (r, c) moves by
    ``origin + (c, r) * stride``. Returns the (n, 5) global boxes. Every row
    is checked for integer tile indices, positive area and confidence
    before any row is checked for nonnegative tile indices and the patch
    extent; the first bad row raises.
    """
    rows = finite_rows(detections, 7, "detections")
    tiles, local = rows[:, :2], rows[:, 2:]
    _raise_first([
        ((tiles != np.floor(tiles)).any(axis=1),
         lambda k: f"tile indices must be integers, got {tuple(tiles[k].tolist())}"),
        *_box_checks(local),
    ])
    s = layout.patch_size
    _raise_first([
        ((tiles < 0).any(axis=1),
         lambda k: f"tile indices must be nonnegative, got {tuple(map(int, tiles[k]))}"),
        ((local[:, :2] < 0.0).any(axis=1) | (local[:, 2:4] > s).any(axis=1),
         lambda k: f"box {Box(*local[k].tolist())} exceeds the {s}x{s} patch extent "
                   f"of tile {tuple(map(int, tiles[k]))}"),
    ])
    with np.errstate(over="ignore"):  # merge_nms rejects a coordinate that overflows
        offset = np.asarray(layout.origin) + tiles[:, ::-1] * layout.stride
        return np.column_stack((local[:, :2] + offset, local[:, 2:4] + offset, local[:, 4]))


def merge_nms(boxes, iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> np.ndarray:
    """Greedy non-maximum suppression over (n, 5) box rows.

    Boxes are visited by descending confidence (input order breaks ties);
    a box is kept iff its IoU with every already-kept box stays below the
    threshold. Returns the indices of the kept boxes in visit order.

    Only box pairs that can intersect are compared: a pair that does not
    intersect has IoU 0, which is below any threshold in (0, 1], so it can
    never suppress. Two boxes intersect only if their centres lie within
    the largest box extent of each other in every axis, so one k-d tree
    pair query finds every candidate pair, and ``geometry.iou`` scores them
    all at once. One pass over the close pairs, by their first-visited box,
    settles each box before the pairs it starts, so the kept list is exactly
    that of comparing each candidate with every kept box. The cost is about
    O(n log n + pairs of centres within the largest extent), which tiles bound
    by the patch; one box that spans the area makes it O(n^2) in time and memory.
    """
    from scipy.spatial import cKDTree  # here, so that importing palmpat loads no scipy

    boxes = finite_rows(boxes, 5, "boxes")
    _raise_first(_box_checks(boxes))
    iou_threshold = check_real(iou_threshold, "iou_threshold", 0.0, 1.0, low_open=True)
    n = len(boxes)
    order = np.argsort(-boxes[:, 4], kind="stable")
    # Row k of the arrays below is the k-th box visited.
    ranked = boxes[order]
    x0, y0, x1, y1 = ranked[:, :4].T

    # Halved before adding so that neither sum overflows.
    centres = np.column_stack((0.5 * x0 + 0.5 * x1, 0.5 * y0 + 0.5 * y1))
    half = np.maximum(0.5 * x1 - 0.5 * x0, 0.5 * y1 - 0.5 * y0)
    reach = 2.0 * float(half.max(initial=0.0))
    # Pad for rounding in the centre and extent arithmetic.
    reach += 1e-9 * (reach + float(np.abs(centres).max(initial=0.0)))
    # Pairs come as (i, j) with i < j: box i is visited first, so only it
    # can suppress the other.
    i, j = cKDTree(centres).query_pairs(reach, p=np.inf, output_type="ndarray").T
    close = np.flatnonzero(iou(ranked[i], ranked[j]) >= iou_threshold)
    close = close[np.argsort(i[close])]
    suppressed = np.zeros(n, dtype=bool)
    for a, b in zip(i[close].tolist(), j[close].tolist()):
        if not suppressed[a]:
            suppressed[b] = True
    return order[~suppressed]


def centers(boxes) -> np.ndarray:
    """Centres of (n, 5) box rows as an (n, 2) array."""
    boxes = finite_rows(boxes, 5, "boxes")
    return (boxes[:, :2] + boxes[:, 2:4]) / 2.0


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


def match_counts(detected, labeled, radius: float = DEFAULT_MATCH_RADIUS) -> MatchReport:
    """Greedily pair detections with labels, nearest pairs first.

    ``detected`` and ``labeled`` are (n, 2) coordinate arrays. Candidate
    pairs are those within ``radius``; they are matched in ascending
    distance order (ties: lower labeled index, then lower detected index),
    each point used at most once. One k-d tree query finds the candidate
    pairs, so the cost is about O(n log n + candidate pairs).
    """
    from scipy.spatial import cKDTree

    radius = check_real(radius, "radius", 0.0, low_open=True)
    detected = finite_rows(detected, 2, "detected")
    labeled = finite_rows(labeled, 2, "labeled")
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
