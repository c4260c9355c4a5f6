"""Postprocessing for tiled detector output: patch-to-global coordinates,
NMS across overlapping tiles in one pass over the close box pairs, and
count scoring against labeled centers. ``geometry.close_pairs`` finds the
close pairs in plain numpy, so nothing here imports scipy;
``geometry.finite_rows`` reads input."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_count, check_real
from .geometry import Box, close_pairs, finite_rows, iou

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
    never suppress. Two boxes intersect only if their centres lie within the
    sum of their half-extents of each other in every axis. So the boxes up to
    4x the median half-extent pair among themselves at twice the largest of
    their half-extents, and the few larger boxes pair with every box at twice
    the largest half-extent, each by one ``geometry.close_pairs`` search;
    ``geometry.iou`` scores all the pairs at once. One pass over the close
    pairs, by their first-visited box, settles each box before the pairs it
    starts, so the kept list is exactly that of comparing each candidate with
    every kept box. The cost is about O(n log n + pairs of ordinary boxes
    within twice the largest ordinary half-extent + n per larger box), so a
    box that spans the area costs one pass over the others, and a box far
    away costs no more than one nearby. Boxes stacked within one reach of
    each other still pair with each other, so a pile of copies of one box
    costs n^2.
    """
    boxes = finite_rows(boxes, 5, "boxes")
    _raise_first(_box_checks(boxes))
    iou_threshold = check_real(iou_threshold, "iou_threshold", 0.0, 1.0, low_open=True)
    order = np.argsort(-boxes[:, 4], kind="stable")
    if not len(boxes):
        return order
    # Row k of the arrays below is the k-th box visited.
    ranked = boxes[order]
    x0, y0, x1, y1 = ranked[:, :4].T

    # Halved before adding so that neither sum overflows.
    centres = np.column_stack((0.5 * x0 + 0.5 * x1, 0.5 * y0 + 0.5 * y1))
    half = np.maximum(0.5 * x1 - 0.5 * x0, 0.5 * y1 - 0.5 * y0)
    # Padded for rounding in the centre and extent arithmetic.
    pad = 1e-9 * float(np.abs(centres).max())

    def reach(halves):
        widest = 2.0 * float(halves.max(initial=0.0))
        return widest + 1e-9 * widest + pad

    above = half > 4.0 * float(np.median(half))
    small, large = np.flatnonzero(~above), np.flatnonzero(above)
    own = centres[small]
    i, j = close_pairs(own, own, reach(half[small]))
    li, lj = close_pairs(centres[large], centres, reach(half[large]))
    # Every pair as (earlier, later): box i is visited first, so only it can
    # suppress the other. A larger box meets itself, which i < j drops, and
    # each other larger box twice, which the walk below does not mind.
    li, lj = np.minimum(large[li], lj), np.maximum(large[li], lj)
    i, j = np.concatenate((small[i], li)), np.concatenate((small[j], lj))
    close = np.flatnonzero((i < j) & (iou(ranked[i], ranked[j]) >= iou_threshold))
    close = close[np.argsort(i[close])]
    suppressed = np.zeros(len(boxes), dtype=bool)
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
    each point used at most once. One ``geometry.close_pairs`` search finds
    the candidate pairs, so the cost is about O(n log n + candidate pairs).
    """
    radius = check_real(radius, "radius", 0.0, low_open=True)
    detected = finite_rows(detected, 2, "detected")
    labeled = finite_rows(labeled, 2, "labeled")
    n_lab, n_det = len(labeled), len(detected)

    # Search a hair wide, then gate on the recomputed distance, so that the
    # "<= radius" rule is exact under one distance definition.
    li, di = close_pairs(labeled, detected, radius * (1.0 + 1e-12) + 1e-12)
    with np.errstate(over="ignore"):  # a radius near the float range
        dx, dy = (detected[di, c] - labeled[li, c] for c in (0, 1))
    # math.hypot, not np.hypot: the two differ in the last bit on some pairs.
    dist = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))
    near = dist <= radius
    li, di, dist = li[near], di[near], dist[near]
    # np.lexsort((di, li, dist)) in two cheaper sorts: the unique pair key, then
    # the distances, stably, in that order
    order = np.argsort(li * n_det + di)
    order = order[np.argsort(dist[order], kind="stable")]

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
