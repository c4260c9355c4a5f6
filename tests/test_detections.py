import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palmpat import (
    Box,
    InvalidInputError,
    TileLayout,
    centers,
    iou,
    match_counts,
    merge_nms,
    to_global,
)
from oracles import brute_match, brute_nms, brute_to_global


def nms_boxes(boxes, threshold):
    return [boxes[i] for i in merge_nms(boxes, threshold)]


def random_boxes(rng, n, span=100.0, max_side=20.0):
    out = []
    for _ in range(n):
        x, y = rng.uniform(0, span, 2)
        w, h = rng.uniform(1.0, max_side, 2)
        out.append(Box(x, y, x + w, y + h, float(rng.uniform(0, 1))))
    return out


# ---------------------------------------------------------------- tiling


def test_to_global_identity_tile():
    layout = TileLayout(800, 400, (0.0, 0.0))
    box = Box(10, 20, 100, 120, 0.9)
    assert to_global(layout, [[0, 0, *box]]).tolist() == [list(box)]


def test_to_global_offsets():
    layout = TileLayout(800, 400, (0.0, 0.0))
    moved = to_global(layout, [[2, 1, 10, 20, 100, 120, 0.9]])
    assert moved.tolist() == [[410, 820, 500, 920, 0.9]]


def test_to_global_round_trip():
    layout = TileLayout(800, 400, (50.0, -30.0))
    box = Box(5, 6, 300, 400, 0.4)
    moved = to_global(layout, [[3, 7, *box]])[0]
    dx, dy = layout.origin[0] + 7 * layout.stride, layout.origin[1] + 3 * layout.stride
    assert (moved - [dx, dy, dx, dy, 0.0]).tolist() == list(box)


def test_to_global_rejects_negative_tiles():
    layout = TileLayout()
    with pytest.raises(InvalidInputError):
        to_global(layout, [[-1, 0, 0, 0, 1, 1, 1.0]])


_origins = st.sampled_from([0.0, 1e6 + 0.1, -3e7])


@st.composite
def _tiled_rows(draw):
    """A layout and patch-local rows inside its patch extent, on integer or
    fractional bounds."""
    patch = draw(st.integers(1, 2000))
    layout = TileLayout(patch, draw(st.integers(1, patch)), (draw(_origins), draw(_origins)))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        bounds = []
        for _ in range(2):
            if draw(st.booleans()):
                lo = draw(st.integers(0, patch - 1))
                hi = draw(st.integers(lo + 1, patch))
            else:
                lo, hi = sorted(draw(st.lists(st.floats(0.0, float(patch)), min_size=2,
                                              max_size=2, unique=True)))
            bounds.append((lo, hi))
        (x0, x1), (y0, y1) = bounds
        tile = draw(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
        rows.append((*tile, x0, y0, x1, y1, draw(st.floats(0.0, 1.0))))
    return layout, rows


@settings(max_examples=300, deadline=None)
@given(case=_tiled_rows())
def test_to_global_is_bit_equal_to_scalar_translation(case):
    layout, rows = case
    got = to_global(layout, rows)
    want = np.array(brute_to_global(layout, rows), dtype=float).reshape(-1, 5)
    assert got.tobytes() == want.tobytes()


def test_layout_requires_overlappable_stride():
    with pytest.raises(InvalidInputError):
        TileLayout(800, 0)
    with pytest.raises(InvalidInputError):
        TileLayout(800, 801)
    TileLayout(800, 800)  # stride == patch_size is allowed (no overlap)


@pytest.mark.parametrize("origin", [(float("nan"), 0.0), (0.0, float("inf")), (-math.inf, 1.0)])
def test_layout_rejects_non_finite_origin(origin):
    with pytest.raises(InvalidInputError, match="origin must be finite"):
        TileLayout(800, 400, origin)


def test_to_global_validates_patch_extent():
    layout = TileLayout(100, 50)
    with pytest.raises(InvalidInputError):
        to_global(layout, [[0, 0, 10, 10, 120, 40, 0.5]])
    g = to_global(layout, [[1, 2, 10, 10, 90, 40, 0.5]])[0]
    assert (g[0], g[1]) == (10 + 2 * 50, 10 + 1 * 50)


# ---------------------------------------------------------------- NMS


def test_nms_keeps_highest_confidence_duplicate():
    a = Box(0, 0, 2, 2, 0.9)
    b = Box(0, 0, 2, 2, 0.8)
    assert nms_boxes([b, a], 0.5) == [a]


def test_nms_keeps_weak_overlaps():
    a = Box(0, 0, 2, 2, 0.9)
    b = Box(1, 1, 3, 3, 0.8)  # IoU 1/7 < 0.5
    assert nms_boxes([a, b], 0.5) == [a, b]


def test_nms_confidence_tie_prefers_earlier_input():
    a = Box(0, 0, 2, 2, 0.9)
    b = Box(0.1, 0, 2.1, 2, 0.9)
    assert nms_boxes([a, b], 0.5) == [a]
    assert nms_boxes([b, a], 0.5) == [b]


@pytest.mark.parametrize("confidences, reversed_kept", [
    ((0.9, 0.8, 0.7), "ac"),
    ((0.5, 0.5, 0.5), "ca"),  # a tie: input order visits c first
], ids=["ranked", "tied"])
def test_nms_chain_keeps_the_box_whose_suppressor_was_suppressed(confidences, reversed_kept):
    # a suppresses b (IoU 3/7), b would suppress c (3/7), a and c barely
    # overlap (1/9): c survives because b did not.
    a, b, c = (Box(x, 0, x + 10, 10, conf) for x, conf in zip((0, 4, 8), confidences))
    assert nms_boxes([a, b, c], 0.4) == brute_nms([a, b, c], 0.4) == [a, c]
    kept = [{"a": a, "c": c}[name] for name in reversed_kept]
    assert nms_boxes([c, b, a], 0.4) == brute_nms([c, b, a], 0.4) == kept


def test_nms_at_threshold_one_drops_only_exact_duplicates_ties_to_input_order():
    x, y = (0, 0, 2, 2), (1, 1, 3, 3)
    boxes = [Box(*x, 0.5), Box(*y, 0.7), Box(*x, 0.5), Box(*y, 0.7), Box(*x, 0.7)]
    assert merge_nms(boxes, 1.0).tolist() == [1, 4]
    assert nms_boxes(boxes, 1.0) == brute_nms(boxes, 1.0)


def test_nms_matches_brute_force_reference():
    rng = np.random.default_rng(11)
    for _ in range(100):
        boxes = random_boxes(rng, 50)
        threshold = float(rng.uniform(0.1, 0.9))
        assert nms_boxes(boxes, threshold) == brute_nms(boxes, threshold)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000),
       threshold=st.floats(min_value=0.05, max_value=1.0))
def test_nms_output_subset_with_bounded_overlap(seed, threshold):
    rng = np.random.default_rng(seed)
    boxes = random_boxes(rng, 25)
    kept = nms_boxes(boxes, threshold)
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
    sets the search reach along one axis only, up to three square boxes of
    12 to 1000 units (perhaps two copies of one), about or far past the
    median box's 4x cut, above which a box pairs with every box on its own,
    and a translation to coordinates where rounding is coarse."""
    boxes = draw(st.lists(_box, max_size=30))
    if boxes:
        copies = draw(st.lists(st.sampled_from(boxes), max_size=8))
        boxes += [Box(*b) for b in copies]
    if draw(st.booleans()):
        x, y, short = draw(_near(12)), draw(_near(12)), draw(_near(3)) + 1.0
        long = draw(st.sampled_from([40.0, 1000.0]))
        w, h = (long, short) if draw(st.booleans()) else (short, long)
        boxes.append(Box(x - w / 2, y - h / 2, x + w / 2, y + h / 2, draw(_confidence)))
    huge = st.builds(lambda x, y, side, c: Box(x, y, x + side, y + side, c),
                     _near(3).map(lambda v: v - 2.0), _near(3).map(lambda v: v - 2.0),
                     st.sampled_from([12.0, 16.0, 40.0, 1000.0]), _confidence)
    large = draw(st.lists(huge, max_size=2))
    if large and draw(st.booleans()):
        large.append(Box(*large[0]))
    boxes += large
    shift = draw(st.sampled_from([0.0, 1e6 + 0.1, -3e7]))
    boxes = [Box(x0 + shift, y0 - shift, x1 + shift, y1 - shift, c)
             for x0, y0, x1, y1, c in boxes]
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
@example(boxes=[Box(0, 0, 12, 12, 0.9)] + [Box(k, k, k + 1, k + 1, 0.5) for k in range(11)],
         threshold=1e-9)  # a window-sized box suppresses every box it meets
@example(boxes=[Box(0, 0, 1, 1, 0.9), Box(0, 0, 1, 1, 0.5), Box(-1, -1, 13, 13, 0.7),
                Box(-1, -1, 13, 13, 0.7), Box(0, 0, 12, 12, 0.8)],
         threshold=0.5)  # larger boxes that suppress each other, found from both
def test_nms_matches_brute_force_on_degenerate_inputs(boxes, threshold):
    kept = nms_boxes(boxes, threshold)
    expected = brute_nms(boxes, threshold)
    assert kept == expected
    assert all(a is b for a, b in zip(kept, expected))


def _tiled_site(rng, n_crowns, side, patch=800.0, stride=400.0):
    """Global boxes of ``n_crowns`` crowns in a ``side``-wide square, each
    seen by every patch-wide tile at ``stride`` that holds it whole, with
    per-tile jitter and confidence."""
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
    return np.column_stack((rows, conf))


def test_nms_scales_to_a_site():
    """About 10^5 boxes: 3*10^4 crowns in a 24,000-unit square, seen by
    800-unit tiles at stride 400."""
    n_crowns = 30_000
    boxes = _tiled_site(np.random.default_rng(2024), n_crowns, 24_000.0)
    assert len(boxes) > 100_000

    start = time.perf_counter()
    kept = merge_nms(boxes, 0.5)
    assert time.perf_counter() - start < 30.0
    assert 0.95 * n_crowns <= len(kept) <= n_crowns
    assert (np.diff(boxes[kept, 4]) <= 0.0).all()


@pytest.mark.slow
@pytest.mark.parametrize("extra", [
    [0.0, 0.0, 10_000.0, 10_000.0, 0.5],
    [1e7, 1e7, 1e7 + 30.0, 1e7 + 30.0, 0.5],
], ids=["window-sized", "far-off"])
def test_one_more_box_merges_within_3x_the_time(extra):
    """2·10^4 tiled boxes in a 10^4-unit square plus one more box merge
    within 3x the time of the 2·10^4 alone (best of 3 each). A box over the
    whole site pairs with every box once, not every pair of boxes with each
    other; an ordinary box 10^3 site widths away leaves the cells of the
    others as narrow as before."""
    boxes = _tiled_site(np.random.default_rng(7), 6_000, 10_000.0)
    assert len(boxes) >= 20_000
    spanned = np.vstack((boxes, extra))

    def best_of_3(rows):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            kept = merge_nms(rows, 0.5)
            times.append(time.perf_counter() - start)
        return min(times), kept

    alone, kept = best_of_3(boxes)
    with_box, kept_with_box = best_of_3(spanned)
    assert with_box <= 3.0 * alone
    # The extra box meets no box with an IoU anywhere near 0.5.
    assert kept_with_box.tolist() == sorted(
        kept.tolist() + [len(boxes)], key=lambda k: (-spanned[k, 4], k))


def test_nms_threshold_validation():
    with pytest.raises(InvalidInputError):
        merge_nms([], 0.0)
    assert merge_nms([], 0.5).tolist() == []


# ---------------------------------------------------------------- centers


def test_centers_examples():
    assert centers([Box(0, 0, 2, 2)]).tolist() == [[1, 1]]
    assert centers([Box(-1, -1, 1, 1)]).tolist() == [[0, 0]]
    assert centers([Box(410, 820, 500, 920)]).tolist() == [[455, 870]]


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
