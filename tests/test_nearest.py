"""The compiled grid kernel behind G and F (``geometry.grid_distances``) against
the k-d tree it falls back to: the same bytes on awkward inputs, and at most
1.5x the tree's time on the tight clusters where a uniform grid is quadratic."""
import importlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palmpat import (
    DistanceGrid,
    PointPattern,
    ReproductionParams,
    Window,
    f_function,
    g_function,
    simulate_reproduction,
)
from palmpat import geometry, ripley

native = importlib.import_module("palmpat._native")


@pytest.fixture(scope="module")
def kernel():
    if native.load() is None:
        pytest.skip("the compiled library cannot be built on this host")


def assert_kernel_matches_tree(pattern, queries):
    """G's distances (each point skipping itself) and F's (``queries``) from the
    kernel, which must answer, are the tree's bytes."""
    g, f = geometry.grid_distances(pattern), geometry.grid_distances(pattern, queries)
    assert g is not None and f is not None  # within the work budget
    assert g.tobytes() == pattern.tree.query(pattern.coords, k=2)[0][:, 1].tobytes()
    assert f.tobytes() == pattern.tree.query(queries, k=1)[0].tobytes()


SIDES = [(1.0, 1.0), (3.0, 1.0), (1e6, 1.0), (1.0, 1e6), (2.0 ** 498, 2.0 ** 498),
         (2.0 ** -498, 2.0 ** -498), (2.0 ** 498, 2.0 ** 478), (2.0 ** -478, 2.0 ** -498)]


@st.composite
def layouts(draw):
    """A window and 2-32 points in it: uniform; on a lattice through its edges and
    corners, some one float off a lattice line; one tight cluster; or a few
    coincident sites. With at most 32 points the kernel stays inside its budget."""
    w, h = draw(st.sampled_from(SIDES))
    ox, oy = draw(st.sampled_from([(0.0, 0.0), (-0.5, -0.5), (1000.25, -3.0)]))
    window = Window(ox * w, oy * h, ox * w + w, oy * h + h)
    n = draw(st.integers(2, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "lattice", "cluster", "coincident"]))
    if kind == "lattice":
        d = draw(st.integers(1, 12))
        u = rng.integers(0, d + 1, (n, 2)) / d
    elif kind == "cluster":
        u = rng.uniform(0, 1, 2) + draw(st.sampled_from([1e-14, 1e-9, 1e-4])) * rng.uniform(
            -1, 1, (n, 2))
    elif kind == "coincident":
        sites = rng.uniform(0, 1, (draw(st.integers(1, 3)), 2))
        u = sites[rng.integers(0, len(sites), n)]
    else:
        u = rng.uniform(0, 1, (n, 2))
    coords = np.array(window.lo) + np.clip(u, 0, 1) * [w, h]
    if kind == "lattice":  # one float either way off some of the lattice lines
        coords = np.nextafter(coords, coords + rng.integers(-1, 2, (n, 2)) * [w, h])
    coords = np.clip(coords, window.lo, window.hi)
    return PointPattern(window, coords)


@settings(max_examples=400, deadline=None)
@given(pattern=layouts(), n_ref=st.integers(1, 300), seed=st.integers(0, 1000))
def test_kernel_is_byte_equal_to_the_tree(pattern, n_ref, seed, kernel):
    w = pattern.window
    corners_and_edges = [w.lo, w.hi, (w.x_min, w.y_max), (w.x_max, w.y_min),
                         (w.x_min, (w.y_min + w.y_max) / 2), ((w.x_min + w.x_max) / 2, w.y_max)]
    refs = ripley._references(w, n_ref, seed)
    assert_kernel_matches_tree(pattern, np.vstack([refs, corners_and_edges]))


@pytest.mark.parametrize("coords", [[(0, 0), (0, 0)], [(0, 0), (10, 4)], [(10, 0), (0, 4)],
                                    [(3, 2), (3, 2.5)], [(0.1, 0.3), (0.1, 0.30000000000000004)]])
def test_two_points(coords, kernel):
    pattern = PointPattern(Window(0, 0, 10, 4), coords)
    assert_kernel_matches_tree(pattern, ripley._references(pattern.window, 50, 1))


def floats_on(x, toward, k):
    """The k-th float after x in the direction of ``toward``."""
    for _ in range(k):
        x = np.nextafter(x, toward)
    return float(x)


@pytest.mark.parametrize("lo, hi, toward", [(-32.9, 19.46, np.inf), (1.3, 8.3, -np.inf)])
def test_a_point_one_float_across_a_cell_edge_is_searched(lo, hi, toward, kernel):
    # Four points in a 2:1 window make two columns split at lo + width / 2. In
    # these windows the scaled guess (x - lo) * 2 / width files the float just
    # across that edge (toward ``toward``) on the edge's other side; the kernel
    # must file it by the edge itself.
    width = hi - lo
    edge = lo + width / 2
    across = floats_on(edge, toward, 1)
    assert ((across - lo) * (2 / width) < 1.0) == (across > edge)
    # q is 4 floats across the edge and r 4 further, and the point just across
    # is 3 floats from q: a search that trusted the guess would stop at r, which
    # is no farther from q than the edge is.
    q, r = floats_on(edge, toward, 4), floats_on(edge, toward, 8)
    assert abs(q - edge) == abs(r - q) == 4 * abs(across - edge)
    window, far = Window(lo, 0.0, hi, width / 2), (lo if toward > 0 else hi)
    pattern = PointPattern(window, [(q, 0.0), (r, 0.0), (across, 0.0), (far, 0.0)])
    assert_kernel_matches_tree(pattern, np.array([(q, 0.0)]))
    assert geometry.grid_distances(pattern)[0] == abs(q - across) == 3 * abs(across - edge)
    others = PointPattern(window, [(r, 0.0), (across, 0.0), (far, 0.0), (far, width / 2)])
    assert geometry.grid_distances(others, np.array([(q, 0.0)])).tolist() == [abs(q - across)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("p, sigma", [(0.0, 1.0), (0.4, 50.0), (0.5, 60.0), (0.6, 70.0),
                                      (0.9, 10.0)])
def test_fit_size_patterns(p, sigma, seed, kernel):
    window = Window(0.0, 0.0, 3000.0, 3000.0)
    pattern = simulate_reproduction(window, 1500, ReproductionParams(p, sigma), seed)
    refs = ripley._references(window, 8000, seed)
    if p < 0.9:
        assert_kernel_matches_tree(pattern, refs)
    else:  # G gives up on these clusters (the tree is faster there); F answers
        assert geometry.grid_distances(pattern) is None
        assert (geometry.grid_distances(pattern, refs).tobytes()
                == pattern.tree.query(refs, k=1)[0].tobytes())


def g_and_f(window, coords):
    """G and F (the fit's 8000 references) of a fresh pattern, so the tree path
    builds its tree inside the timing."""
    pattern = PointPattern(window, coords)
    grid = DistanceGrid.default(window, 50)
    return g_function(pattern, grid).tobytes() + f_function(pattern, grid, 8000, 7).tobytes()


RNG = np.random.default_rng(20)
W3000 = Window(0.0, 0.0, 3000.0, 3000.0)
PATHOLOGIES = {
    "p=1 sigma=1": (lambda: simulate_reproduction(W3000, 1500, ReproductionParams(1.0, 1.0),
                                                  5).coords, 9),
    "p=1 sigma=50": (lambda: simulate_reproduction(W3000, 1500, ReproductionParams(1.0, 50.0),
                                                   5).coords, 9),
    "unit square": (lambda: RNG.uniform(0, 1, (50_000, 2)), 2),
    "opposite corners": (lambda: np.vstack([RNG.uniform(0, 1, (25_000, 2)),
                                            2999.0 + RNG.uniform(0, 1, (25_000, 2))]), 2),
    "coincident": (lambda: np.full((50_000, 2), 1234.5), 2),
}


@pytest.mark.slow
@pytest.mark.parametrize("case", PATHOLOGIES)
def test_tight_clusters_cost_at_most_one_and_a_half_trees(case, kernel, monkeypatch):
    make, reps = PATHOLOGIES[case]
    coords, lib = make(), native.load()
    times, outputs = {"kernel": [], "tree": []}, {}
    for path in ["kernel", "tree"] * reps:  # alternating, so a slow phase hits both; best of reps
        monkeypatch.setattr(native, "_lib", lib if path == "kernel" else False)
        start = time.perf_counter()
        outputs[path] = g_and_f(W3000, coords)
        times[path].append(time.perf_counter() - start)
    assert outputs["kernel"] == outputs["tree"]
    assert min(times["kernel"]) <= 1.5 * min(times["tree"]), times
