"""The compiled grid kernel against the k-d tree it falls back to, by the one
rule of ``geometry.nearest_neighbor_distances``: the same bytes on awkward inputs,
and at most 1.5x the tree's time on the tight clusters where a uniform grid is
quadratic."""
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


class KernelGaveUp(Exception):
    pass


def gave_up(pattern):
    raise KernelGaveUp


def kernel_distances(pattern, queries=None):
    """``nearest_neighbor_distances`` at k = 1 by the kernel alone, as a flat array:
    None where it gives up, which is where the tree (patched here to raise) would answer."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PointPattern, "tree", property(gave_up))
        try:
            return geometry.nearest_neighbor_distances(pattern, queries=queries)[:, 0]
        except KernelGaveUp:
            return None


def assert_kernel_matches_tree(pattern, queries):
    """G's distances (each point skipping itself) and F's (``queries``) from the
    kernel, which must answer, are the tree's bytes."""
    g, f = kernel_distances(pattern), kernel_distances(pattern, queries)
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
    tree = pattern.tree.query(refs, k=1)[0].tobytes()
    for _ in range(2):  # F's cached set: filed for this pattern, then read as filed
        assert kernel_distances(pattern, ripley._filed_references(w, n_ref, seed)).tobytes() == tree


@pytest.mark.parametrize("n", [4, 1512])
def test_one_reference_set_is_filed_again_for_another_pattern_size(n, filings):
    # F's grid has about n / 2 cells: 1 x 2 at n = 4 and 1 x 1 at 3, and 27 x 28
    # at 1512 and 27 x 27 at 1511. So a filing kept for one size would misfile
    # queries at the other.
    window = Window(0.0, 0.0, 3000.0, 3000.0)
    filed = geometry.FiledQueries(ripley._references(window, 8000, 4))
    for size, seed in [(n, 0), (n - 1, 1), (n - 1, 2), (n, 3)]:
        pattern = simulate_reproduction(window, size, ReproductionParams(0.5, 60.0), seed)
        f = kernel_distances(pattern, filed)
        assert f is not None and f.tobytes() == pattern.tree.query(filed.rows, k=1)[0].tobytes()
    assert filings == [n, n - 1, n]


def test_a_reference_set_first_read_by_the_tree_is_filed_once_the_library_is_back(
        filings, monkeypatch):
    # F caches its reference set while the library is forced off; once it is
    # back, the kernel files that set and answers
    window = Window(0.0, 0.0, 100.0, 100.0)
    pattern = simulate_reproduction(window, 60, ReproductionParams(0.5, 5.0), 2)
    grid = DistanceGrid.default(window, 20)
    ripley._references.cache_clear()
    lib = native.load()
    monkeypatch.setattr(native, "_lib", False)
    tree = f_function(pattern, grid, 400, 3)
    monkeypatch.setattr(native, "_lib", lib)
    monkeypatch.setattr(PointPattern, "tree", property(gave_up))
    assert f_function(pattern, grid, 400, 3).tobytes() == tree.tobytes()
    assert filings == [60]


@pytest.mark.parametrize("coords", [[(0, 0), (0, 0)], [(0, 0), (10, 4)], [(10, 0), (0, 4)],
                                    [(3, 2), (3, 2.5)], [(0.1, 0.3), (0.1, 0.30000000000000004)]])
def test_two_points(coords, kernel):
    pattern = PointPattern(Window(0, 0, 10, 4), coords)
    assert_kernel_matches_tree(pattern, ripley._references(pattern.window, 50, 1))


def test_zero_queries_give_an_empty_column_from_the_kernel(kernel):
    pattern = PointPattern(Window(0.0, 0.0, 10.0, 4.0), [(1.0, 1.0), (3.0, 2.0)])
    f = kernel_distances(pattern, np.empty((0, 2)))  # None if the tree had to answer
    assert f is not None and f.shape == (0,)
    assert geometry.nearest_neighbor_distances(pattern, queries=np.empty((0, 2))).shape == (0, 1)


@pytest.mark.parametrize("seed", range(3))
def test_many_queries_in_a_few_cells(seed, kernel):
    # 200 points make a 10 x 10 grid of 10-unit cells. 3000 references in three
    # 2-unit squares put about 1000 queries in each of a few cells; 20 more sit
    # on points. Each cell's block is scanned once for all of its queries.
    window = Window(0.0, 0.0, 100.0, 100.0)
    rng = np.random.default_rng(seed)
    pattern = PointPattern(window, rng.uniform(0.0, 100.0, (200, 2)))
    squares = [corner + rng.uniform(0.0, 2.0, (1000, 2)) for corner in rng.uniform(0, 98, (3, 2))]
    assert_kernel_matches_tree(pattern, np.vstack([*squares, pattern.coords[:20]]))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 24, 50])
@pytest.mark.parametrize("w, h", [(1.0, 1.0), (5.0, 1.0), (1.0, 5.0), (60.0, 1.0)])
def test_blocks_clipped_at_every_border_and_corner(n, w, h, kernel):
    # n + 4 points make grids from 1 x 3 through 27 x 1 and 5 x 5, so the 3x3
    # blocks are clipped on every side and corner; a point sits in each corner
    # and a 41 x 41 lattice through the window's edges queries every cell
    window = Window(0.0, 0.0, w, h)
    rng = np.random.default_rng(n)
    corners = [(0.0, 0.0), (w, 0.0), (0.0, h), (w, h)]
    pattern = PointPattern(window, np.vstack([corners, rng.uniform(0, 1, (n, 2)) * [w, h]]))
    lattice = np.stack(np.meshgrid(np.linspace(0, w, 41), np.linspace(0, h, 41)), axis=-1)
    assert_kernel_matches_tree(pattern, lattice.reshape(-1, 2))


@pytest.mark.parametrize("seed", range(3))
def test_far_queries_search_rings_beyond_the_block(seed, kernel):
    # 300 points make a 12 x 12 grid of 83-unit cells. All but 3 lie in the
    # window's left tenth, so the other points and the queries on the right
    # find no point in their 3x3 block and search rings r >= 2.
    window = Window(0.0, 0.0, 1000.0, 1000.0)
    rng = np.random.default_rng(seed)
    coords = np.vstack([rng.uniform((0, 0), (100, 1000), (297, 2)),
                        [(1000.0, 0.0), (1000.0, 1000.0), (600.0, 500.0)]])
    pattern = PointPattern(window, coords)
    queries = rng.uniform((100, 0), (1000, 1000), (500, 2))
    assert_kernel_matches_tree(pattern, queries)
    assert (kernel_distances(pattern, queries) > 3 * 1000 / 12).sum() > 100


@pytest.mark.parametrize("crowd", [2, 5, 8, 9, 13, 20])
def test_coincident_points_in_crowded_and_other_cells(crowd, kernel):
    # 200 points make a 10 x 10 grid of 10-unit cells. Cell [40, 50)^2 gets
    # `crowd` of them, each of its first few repeated once: with more than
    # CROWDED (8) points the cell scans its own points first (ring 0) and stops
    # at a zero distance wherever in a group of four it falls, else it scans its
    # whole block. The queries sit on the cell's points and around them.
    window = Window(0.0, 0.0, 100.0, 100.0)
    rng = np.random.default_rng(crowd)
    others = rng.uniform(0.0, 100.0, (400, 2))
    others = others[~((40 <= others) & (others < 50)).all(axis=1)][: 200 - crowd]
    repeats = (crowd + 2) // 3
    inside = rng.uniform(40.0, 50.0, (crowd - repeats, 2))
    cell = np.vstack([inside, inside[:repeats]])
    pattern = PointPattern(window, np.vstack([others[:100], cell, others[100:]]))
    queries = np.vstack([cell, rng.uniform(38.0, 52.0, (300, 2))])
    assert_kernel_matches_tree(pattern, queries)
    g = kernel_distances(pattern)[100:100 + crowd]
    assert not g[:repeats].any() and not g[-repeats:].any() and g[repeats:-repeats].all()


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
    assert kernel_distances(pattern)[0] == abs(q - across) == 3 * abs(across - edge)
    others = PointPattern(window, [(r, 0.0), (across, 0.0), (far, 0.0), (far, width / 2)])
    assert kernel_distances(others, np.array([(q, 0.0)])).tolist() == [abs(q - across)]


@pytest.mark.parametrize("corner", [0.0, 1000.0])
def test_a_cluster_on_four_corner_cells_stays_on_the_kernel(corner, kernel):
    # 800 points in this window make a 20 x 20 grid of 50-unit cells (about n / 2).
    # Half of them go on the 2 x 2 cells at a corner (100 a cell), or packed into
    # that corner's one cell. G refines that crowded grid, so it stays on the
    # kernel either way. F keeps the first grid: 300 queries on the 2 x 2 cells
    # stay within the work budget, and on the one cell they pass it. Edges one
    # cell up merge the low corner's cells, and one cell down the high corner's;
    # either way F gives up on both patterns there.
    window = Window(0.0, 0.0, 1000.0, 1000.0)
    rng = np.random.default_rng(3)
    offsets, rest = rng.uniform(0.0, 1.0, (400, 2)), rng.uniform(0.0, 1000.0, (400, 2))
    inside = rng.uniform(0.0, 1.0, (300, 2))
    for side in (100.0, 50.0):
        pattern = PointPattern(window, np.vstack([np.abs(corner - side * offsets), rest]))
        queries = np.abs(corner - side * inside)
        assert_kernel_matches_tree(pattern, queries if side == 100.0 else rest)
        if side == 50.0:
            assert kernel_distances(pattern, queries) is None


def test_g_of_coincident_points_stays_on_the_kernel(kernel):
    # each query stops at its first zero, so 5e4 points on one site stay within the budget
    pattern = PointPattern(Window(0.0, 0.0, 3000.0, 3000.0), np.full((50_000, 2), 1234.5))
    g = kernel_distances(pattern)
    assert g is not None and not g.any()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("p, sigma", [(0.0, 1.0), (0.4, 50.0), (0.5, 60.0), (0.6, 70.0),
                                      (0.9, 10.0)])
def test_fit_size_patterns(p, sigma, seed, kernel):
    # G on the (0.9, 10) clusters stays on the kernel by refining its grid
    window = Window(0.0, 0.0, 3000.0, 3000.0)
    pattern = simulate_reproduction(window, 1500, ReproductionParams(p, sigma), seed)
    assert_kernel_matches_tree(pattern, ripley._references(window, 8000, seed))


@pytest.mark.parametrize("seed", range(10))
def test_envelope_size_clusters_stay_on_the_kernel(seed, kernel):
    # the envelope benchmark's clustered observed patterns: G refines its grid,
    # F (the default 1000 references at this n) answers on the first one
    window = Window(0.0, 0.0, 1000.0, 1000.0)
    pattern = simulate_reproduction(window, 500, ReproductionParams(0.9, 10.0), seed)
    assert_kernel_matches_tree(pattern, ripley._references(window, 1000, seed))


def g_and_f(window, coords):
    """G and F (the fit's 8000 references) of a fresh pattern, so the tree path
    builds its tree inside the timing. The kernel path files the references on
    its first repetition and reuses that filing on the rest, as a fit does."""
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
    "unit square": (lambda: RNG.uniform(0, 1, (50_000, 2)), 5),
    "opposite corners": (lambda: np.vstack([RNG.uniform(0, 1, (25_000, 2)),
                                            2999.0 + RNG.uniform(0, 1, (25_000, 2))]), 5),
    "coincident": (lambda: np.full((50_000, 2), 1234.5), 5),
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
