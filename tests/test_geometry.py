import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palmpat import (
    Box,
    InvalidInputError,
    PointPattern,
    Window,
    iou,
    merge_nms,
    nearest_neighbor_distances,
)
from oracles import brute_knn_distances

UNIT = Window(0.0, 0.0, 1.0, 1.0)


def pattern_on(window, coords):
    return PointPattern(window, np.asarray(coords, dtype=float))


# ---------------------------------------------------------------- boxes


def test_iou_identical():
    b = Box(0, 0, 2, 3, 0.5)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) == 0.0


def test_iou_partial_overlap():
    # intersection 1, union 4 + 4 - 1
    assert iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == 1.0 / 7.0


def test_iou_touching_edges_is_zero():
    assert iou(Box(0, 0, 1, 1), Box(1, 0, 2, 1)) == 0.0


boxes = st.builds(
    lambda x, y, w, h, c: Box(x, y, x + w, y + h, c),
    x=st.floats(min_value=-1e3, max_value=1e3),
    y=st.floats(min_value=-1e3, max_value=1e3),
    w=st.floats(min_value=1e-3, max_value=1e3),
    h=st.floats(min_value=1e-3, max_value=1e3),
    c=st.floats(min_value=0.0, max_value=1.0),
)


@given(a=boxes, b=boxes)
def test_iou_symmetric_and_bounded(a, b):
    ab = iou(a, b)
    assert ab == iou(b, a)
    assert 0.0 <= ab <= 1.0


def test_box_validation():
    for bad in (Box(0, 0, 0, 1), Box(0, 0, 1, 1, confidence=1.5), Box(0, 0, 1, float("inf"))):
        with pytest.raises(InvalidInputError):
            merge_nms([bad])


# ---------------------------------------------------------------- windows and patterns


def test_window_validation():
    with pytest.raises(InvalidInputError):
        Window(0, 0, 0, 1)
    with pytest.raises(InvalidInputError):
        Window(5, 0, 1, 1)


@pytest.mark.parametrize("bounds", [(-1e308, 0, 1e308, 1), (0, -1e308, 1, 1e308),
                                    (-1.7e308, -1.7e308, 1.7e308, 1.7e308)])
def test_window_rejects_overflowing_size(bounds):
    with pytest.raises(InvalidInputError, match="width and height must be finite"):
        Window(*bounds)
    Window(-8e307, -8e307, 8e307, 8e307)  # a width of 1.6e308 is still finite


def test_window_properties():
    w = Window(1, 2, 4, 10)
    assert w.width == 3 and w.height == 8
    assert w.width * w.height == 24
    assert w.contains(1, 2) and w.contains(4, 10)  # boundary counts as inside
    assert not w.contains(0.999, 5)


def test_pattern_rejects_outside_points():
    with pytest.raises(InvalidInputError):
        pattern_on(UNIT, [[0.5, 0.5], [1.5, 0.5]])


@pytest.mark.parametrize("coords", [
    [[0.5, 0.5], [0.5]],  # ragged: numpy alone raises a plain ValueError
    np.zeros((1, 3)),
    [[0.5, float("nan")]],
    [0.5, 0.5],
], ids=["ragged", "three-columns", "nan", "flat"])
def test_pattern_rejects_coordinates_that_are_not_finite_rows(coords):
    with pytest.raises(InvalidInputError, match=r"coords must be an \(n, 2\) array"):
        PointPattern(UNIT, coords)


def test_pattern_copies_its_coordinates():
    coords = np.array([[0.5, 0.5]])
    p = PointPattern(UNIT, coords)
    coords[0, 0] = 0.25
    assert p.coords.tolist() == [[0.5, 0.5]] and coords.flags.writeable


def test_pattern_boundary_points_allowed():
    p = pattern_on(UNIT, [[0.0, 0.0], [1.0, 1.0]])
    assert len(p) == 2


def test_pattern_coords_immutable():
    p = pattern_on(UNIT, [[0.5, 0.5]])
    with pytest.raises(ValueError):
        p.coords[0, 0] = 0.1


# ---------------------------------------------------------------- nearest neighbors


def test_knn_collinear():
    w = Window(-1, -1, 4, 1)
    p = pattern_on(w, [[0, 0], [1, 0], [3, 0]])
    out = nearest_neighbor_distances(p, 1)
    assert out.tolist() == [[1.0], [1.0], [2.0]]


def test_knn_two_points():
    w = Window(0, 0, 10, 10)
    p = pattern_on(w, [[0, 0], [3, 4]])
    assert nearest_neighbor_distances(p, 1).tolist() == [[5.0], [5.0]]


def test_knn_requires_two_points():
    with pytest.raises(InvalidInputError):
        nearest_neighbor_distances(pattern_on(UNIT, [[0.5, 0.5]]), 1)


def test_knn_k_out_of_range():
    p = pattern_on(UNIT, [[0.1, 0.1], [0.2, 0.2], [0.9, 0.9]])
    with pytest.raises(InvalidInputError):
        nearest_neighbor_distances(p, 3)


def test_knn_to_queries_matches_brute_force_up_to_k_n():
    p = pattern_on(UNIT, [[0.1, 0.1], [0.2, 0.2], [0.9, 0.9]])
    queries = np.array([[0.1, 0.1], [0.5, 0.0]])
    brute = np.sort(np.linalg.norm(queries[:, None] - p.coords[None], axis=2), axis=1)
    for k in (1, 2, 3):
        np.testing.assert_allclose(nearest_neighbor_distances(p, k, queries), brute[:, :k],
                                   rtol=1e-12, atol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_knn_refuses_a_non_finite_query_row(bad):
    p = pattern_on(UNIT, [[0.1, 0.1], [0.2, 0.2]])
    with pytest.raises(InvalidInputError, match=r"^queries must be an \(n, 2\) array of finite"):
        nearest_neighbor_distances(p, 1, [[0.5, 0.5], [bad, 0.5]])


def test_knn_matches_brute_force_on_uniform_points():
    rng = np.random.default_rng(42)
    coords = rng.uniform(0, 100, size=(200, 2))
    p = pattern_on(Window(0, 0, 100, 100), coords)
    fast = nearest_neighbor_distances(p, 5)
    brute = brute_knn_distances(coords, 5)
    np.testing.assert_allclose(fast, brute, rtol=1e-12, atol=0)


def test_knn_matches_brute_force_at_thousand_points():
    rng = np.random.default_rng(1000)
    coords = rng.uniform(0, 500, size=(1000, 2))
    p = pattern_on(Window(0, 0, 500, 500), coords)
    np.testing.assert_allclose(
        nearest_neighbor_distances(p, 3), brute_knn_distances(coords, 3),
        rtol=1e-12, atol=0,
    )


def test_knn_handles_coincident_points():
    w = Window(0, 0, 10, 10)
    p = pattern_on(w, [[1, 1], [1, 1], [1, 1], [5, 5]])
    out = nearest_neighbor_distances(p, 2)
    brute = brute_knn_distances(p.coords, 2)
    np.testing.assert_allclose(out, brute, rtol=1e-12, atol=0)
    assert out[0].tolist() == [0.0, 0.0]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=2, max_value=40),
       sites=st.integers(min_value=1, max_value=4))
def test_knn_matches_brute_force_with_coincident_points(seed, n, sites):
    # every point sits on one of a few sites, so most distances tie at 0 and
    # the k-d tree often lists another point before the point itself
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 3, size=(sites, 2)).astype(float)[rng.integers(0, sites, n)]
    k = int(rng.integers(1, n))
    p = pattern_on(Window(0, 0, 2, 2), coords)
    np.testing.assert_array_equal(nearest_neighbor_distances(p, k), brute_knn_distances(coords, k))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=2, max_value=60))
def test_knn_matches_brute_force_property(seed, n):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 50, size=(n, 2))
    k = int(rng.integers(1, n))
    p = pattern_on(Window(0, 0, 50, 50), coords)
    np.testing.assert_allclose(
        nearest_neighbor_distances(p, k), brute_knn_distances(coords, k),
        rtol=1e-12, atol=0,
    )
