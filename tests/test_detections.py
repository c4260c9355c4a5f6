import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palmpat import (
    Box,
    DetectionSet,
    InvalidInputError,
    Point,
    TileLayout,
    centers,
    iou,
    match_counts,
    merge_nms,
    to_global,
)
from oracles import brute_match, brute_nms


def random_boxes(rng, n, span=100.0, max_side=20.0):
    out = []
    for _ in range(n):
        x, y = rng.uniform(0, span, 2)
        w, h = rng.uniform(1.0, max_side, 2)
        out.append(Box(x, y, x + w, y + h, float(rng.uniform(0, 1))))
    return out


# ---------------------------------------------------------------- tiling


def test_to_global_identity_tile():
    layout = TileLayout(800, 400, Point(0.0, 0.0))
    box = Box(10, 20, 100, 120, 0.9)
    assert to_global(layout, 0, 0, box) == box


def test_to_global_offsets():
    layout = TileLayout(800, 400, Point(0.0, 0.0))
    box = Box(10, 20, 100, 120, 0.9)
    moved = to_global(layout, 2, 1, box)
    assert (moved.x_min, moved.y_min, moved.x_max, moved.y_max) == (410, 820, 500, 920)
    assert moved.confidence == 0.9


def test_to_global_round_trip():
    layout = TileLayout(800, 400, Point(50.0, -30.0))
    box = Box(5, 6, 300, 400, 0.4)
    moved = to_global(layout, 3, 7, box)
    back = moved.translate(
        -(layout.origin.x + 7 * layout.stride), -(layout.origin.y + 3 * layout.stride)
    )
    assert back == box


def test_to_global_rejects_negative_tiles():
    layout = TileLayout()
    with pytest.raises(InvalidInputError):
        to_global(layout, -1, 0, Box(0, 0, 1, 1))


def test_layout_requires_overlappable_stride():
    with pytest.raises(InvalidInputError):
        TileLayout(800, 0)
    with pytest.raises(InvalidInputError):
        TileLayout(800, 801)
    TileLayout(800, 800)  # stride == patch_size is allowed (no overlap)


def test_detection_set_validates_patch_extent():
    layout = TileLayout(100, 50)
    with pytest.raises(InvalidInputError):
        DetectionSet(layout, ((0, 0, Box(10, 10, 120, 40, 0.5)),))
    ds = DetectionSet(layout, ((1, 2, Box(10, 10, 90, 40, 0.5)),))
    g = ds.global_boxes()[0]
    assert (g.x_min, g.y_min) == (10 + 2 * 50, 10 + 1 * 50)


def test_detection_set_global_passthrough():
    boxes = ((0, 0, Box(1000, 1000, 1100, 1080, 0.7)),)
    ds = DetectionSet(None, boxes)
    assert ds.global_boxes() == [boxes[0][2]]


# ---------------------------------------------------------------- NMS


def test_nms_keeps_highest_confidence_duplicate():
    a = Box(0, 0, 2, 2, 0.9)
    b = Box(0, 0, 2, 2, 0.8)
    assert merge_nms([b, a], 0.5) == [a]


def test_nms_keeps_weak_overlaps():
    a = Box(0, 0, 2, 2, 0.9)
    b = Box(1, 1, 3, 3, 0.8)  # IoU 1/7 < 0.5
    assert merge_nms([a, b], 0.5) == [a, b]


def test_nms_confidence_tie_prefers_earlier_input():
    a = Box(0, 0, 2, 2, 0.9)
    b = Box(0.1, 0, 2.1, 2, 0.9)
    assert merge_nms([a, b], 0.5) == [a]
    assert merge_nms([b, a], 0.5) == [b]


def test_nms_matches_brute_force_reference():
    rng = np.random.default_rng(11)
    for _ in range(100):
        boxes = random_boxes(rng, 50)
        threshold = float(rng.uniform(0.1, 0.9))
        assert merge_nms(boxes, threshold) == brute_nms(boxes, threshold)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000),
       threshold=st.floats(min_value=0.05, max_value=1.0))
def test_nms_output_subset_with_bounded_overlap(seed, threshold):
    rng = np.random.default_rng(seed)
    boxes = random_boxes(rng, 25)
    kept = merge_nms(boxes, threshold)
    assert all(k in boxes for k in kept)
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert iou(a, b) < threshold


def _near(k_max):
    """Integers plus offsets of 0 (edges that touch), +-1e-9 (barely
    overlapping or barely apart) or 0.5."""
    return st.builds(lambda k, eps: k + eps, st.integers(0, k_max),
                     st.sampled_from([0.0, 1e-9, -1e-9, 0.5]))


_confidence = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0)
_box = st.builds(lambda x, y, w, h, c: Box(x, y, x + w, y + h, c),
                 _near(12), _near(12), _near(5).map(lambda v: v + 1.0),
                 _near(5).map(lambda v: v + 1.0), _confidence)


@st.composite
def _crowded_boxes(draw):
    """Small integer-grid boxes, so duplicates, nesting and shared edges are
    common, optionally with copies of some boxes, one long thin box that
    sets the search reach along one axis only, and a translation to
    coordinates where rounding is coarse."""
    boxes = draw(st.lists(_box, max_size=30))
    if boxes:
        copies = draw(st.lists(st.sampled_from(boxes), max_size=8))
        boxes += [dataclasses.replace(b) for b in copies]
    if draw(st.booleans()):
        x, y, short = draw(_near(12)), draw(_near(12)), draw(_near(3)) + 1.0
        long = draw(st.sampled_from([40.0, 1000.0]))
        w, h = (long, short) if draw(st.booleans()) else (short, long)
        boxes.append(Box(x - w / 2, y - h / 2, x + w / 2, y + h / 2, draw(_confidence)))
    shift = draw(st.sampled_from([0.0, 1e6 + 0.1, -3e7]))
    boxes = [b.translate(shift, -shift) for b in boxes]
    return draw(st.permutations(boxes))


@settings(max_examples=300, deadline=None)
@given(boxes=_crowded_boxes(),
       threshold=st.sampled_from([1e-9, 0.5, 1.0]) | st.floats(min_value=1e-9, max_value=1.0))
@example(boxes=[], threshold=0.5)
@example(boxes=[Box(0, 0, 1, 1, 0.5)], threshold=1.0)
@example(boxes=[Box(0, 0, 1, 1, 0.5), Box(1, 0, 2, 1, 0.5)], threshold=1e-9)
@example(boxes=[Box(0, 0, 1, 1, 0.5), Box(1 - 1e-9, 0, 2, 1, 0.5)], threshold=1e-9)
@example(boxes=[Box(0, 0, 4, 4, 0.5), Box(1, 1, 2, 2, 0.9)], threshold=1 / 16)
@example(boxes=[Box(0, 0, 1, 1, 0.2 if c == "b" else 0.5) for c in "bbaaaaaabbabaaabbaa"],
         threshold=0.5)  # ties that an unstable sort reorders
def test_nms_matches_brute_force_on_degenerate_inputs(boxes, threshold):
    kept = merge_nms(boxes, threshold)
    expected = brute_nms(boxes, threshold)
    assert kept == expected
    assert all(a is b for a, b in zip(kept, expected))


def test_nms_scales_to_a_site():
    """About 10^5 boxes: 3*10^4 crowns each seen by every 800-px tile at
    stride 400 that holds it whole, with per-tile jitter and confidence."""
    rng = np.random.default_rng(2024)
    n_crowns, side, patch, stride = 30_000, 24_000.0, 800.0, 400.0
    centre = rng.uniform(25.0, side - 25.0, (n_crowns, 2))
    half = rng.uniform(10.0, 25.0, (n_crowns, 1))
    lo, hi = centre - half, centre + half
    n_tiles = int((side - patch) // stride) + 1
    first = np.clip(np.ceil((hi - patch) / stride), 0, n_tiles - 1).astype(int)
    last = np.clip(np.floor(lo / stride), 0, n_tiles - 1).astype(int)
    seen = np.prod(last - first + 1, axis=1)
    crown = np.repeat(np.arange(n_crowns), seen)
    jitter = rng.normal(0.0, 1.5, (crown.size, 4))
    rows = np.hstack([lo[crown], hi[crown]]) + jitter
    conf = rng.uniform(0.05, 1.0, crown.size)
    boxes = [Box(*r, c) for r, c in zip(rows.tolist(), conf.tolist())]
    assert len(boxes) > 100_000

    start = time.perf_counter()
    kept = merge_nms(boxes, 0.5)
    assert time.perf_counter() - start < 30.0
    assert 0.95 * n_crowns <= len(kept) <= n_crowns
    assert all(a.confidence >= b.confidence for a, b in zip(kept, kept[1:]))


def test_nms_threshold_validation():
    with pytest.raises(InvalidInputError):
        merge_nms([], 0.0)
    assert merge_nms([], 0.5) == []


# ---------------------------------------------------------------- centers


def test_centers_examples():
    assert centers([Box(0, 0, 2, 2)]) == [Point(1, 1)]
    assert centers([Box(-1, -1, 1, 1)]) == [Point(0, 0)]
    assert centers([Box(410, 820, 500, 920)]) == [Point(455, 870)]


# ---------------------------------------------------------------- counting


def test_match_perfect_detection():
    pts = [(0, 0), (10, 10), (3, 7)]
    report = match_counts(pts, pts, radius=5.0)
    assert report.accuracy == 1.0
    assert report.shift_mean == 0.0
    assert report.shift_median == 0.0
    assert report.shift_std == 0.0


def test_match_partial():
    labeled = [(0, 0), (10, 10)]
    detected = [(1, 0), (50, 50)]
    report = match_counts(detected, labeled, radius=5.0)
    assert report.accuracy == 0.5
    assert report.shift_mean == 1.0
    assert report.matched.tolist() == [[0, 0]]
    assert report.distances.tolist() == [1.0]


def test_match_tie_prefers_lower_labeled_index():
    labeled = [(0, 0), (6, 0)]
    detected = [(3, 0)]
    report = match_counts(detected, labeled, radius=5.0)
    assert report.matched.tolist() == [[0, 0]]
    assert report.accuracy == 0.5


def test_match_greedy_nearest_first():
    labeled = [(0, 0), (4, 0)]
    detected = [(1, 0), (3.5, 0)]
    report = match_counts(detected, labeled, radius=5.0)
    assert report.accuracy == 1.0
    # nearest pair (3.5, 0) <-> (4, 0) is taken first, then (1, 0) <-> (0, 0)
    assert report.matched.tolist() == [[1, 1], [0, 0]]
    assert report.distances.tolist() == [0.5, 1.0]


def test_match_is_one_to_one():
    labeled = [(0, 0), (1, 0)]
    detected = [(0.4, 0)]
    report = match_counts(detected, labeled, radius=5.0)
    assert len(report.matched) == 1
    assert report.accuracy == 0.5
    assert report.detected_rate == 1.0


def test_match_no_labels_flags_accuracy_undefined():
    report = match_counts([(0, 0)], [], radius=5.0)
    assert math.isnan(report.accuracy)
    assert report.n_labeled == 0
    assert report.n_detected == 1
    assert len(report.matched) == 0
    assert report.matched.shape == (0, 2)


def test_match_radius_is_inclusive():
    report = match_counts([(5, 0)], [(0, 0)], radius=5.0)
    assert report.accuracy == 1.0


def test_match_radius_validation():
    with pytest.raises(InvalidInputError):
        match_counts([], [], radius=0.0)


@pytest.mark.parametrize("detected, labeled", [
    ([(0.0, float("nan"))], [(0.0, 0.0)]),
    ([(0.0, 0.0)], [(float("inf"), 0.0)]),
    ([(0.0, 0.0, 0.0)], [(0.0, 0.0)]),
    ([0.0, 0.0], [(0.0, 0.0)]),
    ([(0.0, 0.0)], [[(0.0, 0.0)]]),
    ([(0.0, 0.0)], [("a", 0.0)]),
    ([(0.0, 0.0)], [Point(0.0, 0.0)]),
])
def test_match_rejects_bad_coordinates(detected, labeled):
    with pytest.raises(InvalidInputError):
        match_counts(detected, labeled, radius=5.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_match_invariants_on_random_inputs(seed):
    rng = np.random.default_rng(seed)
    n_lab = int(rng.integers(1, 25))
    n_det = int(rng.integers(0, 25))
    labeled = rng.uniform(0, 50, size=(n_lab, 2))
    detected = rng.uniform(0, 50, size=(n_det, 2))
    radius = float(rng.uniform(1.0, 20.0))
    report = match_counts(detected, labeled, radius)
    assert report.accuracy <= min(n_det, n_lab) / n_lab + 1e-15
    assert all(d <= radius for d in report.distances)
    if len(report.matched):
        assert 0.0 <= report.shift_mean <= radius
    # one-to-one
    assert len(set(report.matched[:, 0].tolist())) == len(report.matched)
    assert len(set(report.matched[:, 1].tolist())) == len(report.matched)


lattice_points = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=25)


@settings(max_examples=300, deadline=None)
@given(
    labeled=lattice_points,
    detected=lattice_points,
    radius=st.sampled_from([0.5, 1.0, math.sqrt(2), 2.0, 2.5, 5.0, 12.0]),
    scale=st.sampled_from([1.0, 0.5, 0.1]),
    offset=st.sampled_from([0.0, 1e6, -3e7]),
)
@example(labeled=[(0, 0), (6, 0)], detected=[(3, 0)], radius=5.0, scale=1.0, offset=0.0)
@example(labeled=[(0, 0), (0, 0), (3, 4)], detected=[(0, 0), (3, 4), (3, 4)],
         radius=5.0, scale=1.0, offset=1e6)
@example(labeled=[(1, 1)], detected=[], radius=1.0, scale=1.0, offset=0.0)
@example(labeled=[], detected=[(1, 1)], radius=1.0, scale=1.0, offset=0.0)
def test_match_equals_brute_force_on_lattice(labeled, detected, radius, scale, offset):
    # Integer lattices give exact distance ties, duplicate points and pairs
    # exactly at the radius; the offset moves them far from the origin.
    lab = [(x * scale + offset, y * scale + offset) for x, y in labeled]
    det = [(x * scale + offset, y * scale + offset) for x, y in detected]
    report = match_counts(det, lab, radius)
    expected = brute_match(det, lab, radius)
    assert report.matched.tolist() == [[li, di] for _, li, di in expected]
    assert report.distances.tolist() == [d for d, _, _ in expected]
    assert report.n_labeled == len(lab)
    assert report.n_detected == len(det)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_match_equals_brute_force_on_random_floats(seed):
    # About 0.6% of random pairs get a different last bit from np.hypot
    # than from math.hypot; thousands of candidate pairs make sure the
    # distances are math.hypot's.
    rng = np.random.default_rng(seed)
    labeled = rng.uniform(0, 60, size=(400, 2)).tolist()
    detected = rng.uniform(0, 60, size=(380, 2)).tolist()
    report = match_counts(detected, labeled, radius=5.0)
    expected = brute_match(detected, labeled, 5.0)
    assert report.matched.tolist() == [[li, di] for _, li, di in expected]
    assert report.distances.tolist() == [d for d, _, _ in expected]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_match_total_distance_invariant_under_permutation(seed):
    # Generic (tie-free) configurations: shuffling the inputs reindexes the
    # tie rules but cannot change the greedy outcome.
    rng = np.random.default_rng(seed)
    labeled = rng.uniform(0, 30, size=(12, 2))
    detected = rng.uniform(0, 30, size=(15, 2))
    base = match_counts(detected, labeled, radius=8.0)
    perm_d = rng.permutation(15)
    perm_l = rng.permutation(12)
    shuffled = match_counts(detected[perm_d], labeled[perm_l], radius=8.0)
    assert len(shuffled.matched) == len(base.matched)
    total = sum(base.distances)
    total_shuffled = sum(shuffled.distances)
    assert total_shuffled == pytest.approx(total, rel=1e-12, abs=1e-12)
