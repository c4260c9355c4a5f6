"""End-to-end acceptance checks, one test per criterion.

Each criterion prints a live ``[ACCEPTANCE] <id> <name>: PASS|FAIL (<sec>)``
line, so the verdicts are visible in any pytest run. Criteria with runtime
budgets assert them. Criterion 7 needs real site data and is skipped unless
``PALMPAT_SITE_POINTS`` names a centers CSV.
"""
import contextlib
import math
import os
import time

import numpy as np
import pytest

from palmpat import (
    Box,
    DistanceGrid,
    ReproductionParams,
    Window,
    envelope,
    f_function,
    fit,
    g_function,
    match_counts,
    merge_nms,
    nearest_neighbor_distances,
    nn_stats,
    simulate_csr,
    simulate_reproduction,
    trapezoid_integrate,
)
from palmpat.cli import main, parse_points_csv
from oracles import (
    brute_f_values,
    brute_g_values,
    brute_knn_distances,
    brute_nms,
    piecewise_linear_integral,
    rejects_csr_at_5pct,
    uniform_reference_stream,
)


@pytest.fixture
def report(capsys):
    @contextlib.contextmanager
    def _report(cid, name):
        start = time.perf_counter()
        try:
            yield
        except pytest.skip.Exception:
            with capsys.disabled():
                print(f"\n[ACCEPTANCE] {cid} {name}: SKIP", flush=True)
            raise
        except BaseException:
            with capsys.disabled():
                print(f"\n[ACCEPTANCE] {cid} {name}: FAIL "
                      f"({time.perf_counter() - start:.1f}s)", flush=True)
            raise
        else:
            with capsys.disabled():
                print(f"\n[ACCEPTANCE] {cid} {name}: PASS "
                      f"({time.perf_counter() - start:.1f}s)", flush=True)
    return _report


def random_boxes(rng, n):
    out = []
    for _ in range(n):
        x, y = rng.uniform(0, 100, 2)
        w, h = rng.uniform(1.0, 25.0, 2)
        out.append(Box(x, y, x + w, y + h, float(rng.uniform(0, 1))))
    return out


def test_criterion_1_oracle_equivalence(report):
    """g_function, f_function, nn_stats and merge_nms against brute force:
    100 random instances each, n <= 200, inside one minute."""
    with report(1, "oracle-equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(5, 201))
            side = float(rng.uniform(20, 200))
            window = Window(0, 0, side, side)
            pattern = simulate_csr(window, n, seed=int(rng.integers(0, 2**31)))
            grid = DistanceGrid(np.sort(rng.uniform(0, side, size=12)))

            fast_knn = nearest_neighbor_distances(pattern, 1)
            np.testing.assert_allclose(
                fast_knn, brute_knn_distances(pattern.coords, 1), rtol=1e-12, atol=0
            )
            np.testing.assert_array_equal(
                g_function(pattern, grid), brute_g_values(pattern.coords, grid.values)
            )

            n_ref = int(rng.integers(100, 1200))
            f_seed = int(rng.integers(0, 2**31))
            refs = uniform_reference_stream(window, n_ref, f_seed)
            np.testing.assert_array_equal(
                f_function(pattern, grid, n_ref, f_seed),
                brute_f_values(pattern.coords, refs, grid.values),
            )

            k = int(rng.integers(1, min(9, n)))
            stats = nn_stats(pattern, k, bins=12)
            per_point = brute_knn_distances(pattern.coords, k).mean(axis=1)
            assert stats.mean == pytest.approx(per_point.mean(), rel=1e-12)
            assert stats.median == pytest.approx(np.median(per_point), rel=1e-12)
            assert stats.std == pytest.approx(per_point.std(ddof=1), rel=1e-12)

            boxes = random_boxes(rng, int(rng.integers(2, 51)))
            threshold = float(rng.uniform(0.1, 0.9))
            kept = [boxes[i] for i in merge_nms(boxes, threshold)]
            assert kept == brute_nms(boxes, threshold)
        assert time.perf_counter() - start < 60.0


def test_criterion_2_trapezoid_correctness(report):
    """Exact on piecewise-linear inputs to 1e-12; < 1e-6 error for x^2 on a
    1001-point grid against the analytic 1/3."""
    with report(2, "trapezoid-correctness"):
        rng = np.random.default_rng(202)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            xs = np.sort(rng.uniform(-20, 20, n))
            while np.any(np.diff(xs) <= 1e-6):
                xs = np.sort(rng.uniform(-20, 20, n))
            ys = rng.uniform(-10, 10, n)
            assert trapezoid_integrate(xs, ys) == pytest.approx(
                piecewise_linear_integral(xs, ys), rel=1e-12, abs=1e-12
            )
        xs = np.linspace(0.0, 1.0, 1001)
        assert abs(trapezoid_integrate(xs, xs ** 2) - 1.0 / 3.0) < 1e-6


@pytest.mark.slow
def test_criterion_3_csr_calibration(report):
    """Type-I error <= 10/100 on CSR patterns and power >= 95/100 on strongly
    clustered patterns, under the documented fixed-scale 5% rejection rule,
    within five minutes."""
    with report(3, "csr-calibration"):
        start = time.perf_counter()
        window = Window(0, 0, 1000, 1000)
        grid = DistanceGrid.default(window, 100)

        false_rejections = 0
        for t in range(100):
            pattern = simulate_csr(window, 500, seed=1000 + t)
            result = envelope(pattern, grid, "G", m=199, seed=5000 + t)
            false_rejections += rejects_csr_at_5pct(result)
        assert false_rejections <= 10

        params = ReproductionParams(0.9, 10.0)  # sigma = 1% of the window side
        detections = 0
        for t in range(100):
            pattern = simulate_reproduction(window, 500, params, seed=2000 + t)
            result = envelope(pattern, grid, "G", m=199, seed=6000 + t)
            detections += rejects_csr_at_5pct(result)
        assert detections >= 95
        assert time.perf_counter() - start < 300.0


@pytest.mark.slow
def test_criterion_4_parameter_recovery(report):
    """Truth (p=0.5, sigma=60), n=1500 in [0,3000]^2, candidates p 0.30..0.70
    step 0.05 and sigma 40..80 step 10, N=10: the fitted pair lands within
    one grid step of truth for at least 8 of 10 master seeds, within 15
    minutes. n_ref=8000 keeps the F reference-noise floor well below the
    between-cell separation; the evaluation grid is the library default."""
    with report(4, "parameter-recovery"):
        start = time.perf_counter()
        window = Window(0, 0, 3000, 3000)
        truth = ReproductionParams(0.5, 60.0)
        p_cands = [round(0.30 + 0.05 * i, 12) for i in range(9)]
        s_cands = [40.0, 50.0, 60.0, 70.0, 80.0]
        hits = 0
        outcomes = []
        for ms in range(10):
            observed = simulate_reproduction(window, 1500, truth, seed=100 + ms)
            result = fit(observed, p_cands, s_cands, n_trials=10,
                         n_ref=8000, seed=200 + ms)
            hit = (abs(result.best.p - truth.p) <= 0.05 + 1e-9
                   and abs(result.best.sigma - truth.sigma) <= 10.0 + 1e-9)
            hits += hit
            outcomes.append((result.best.p, result.best.sigma, hit))
        assert hits >= 8, f"recovered {hits}/10: {outcomes}"
        assert time.perf_counter() - start < 900.0


def test_criterion_5_determinism_across_workers(report, tmp_path, monkeypatch):
    """fit and envelope CLI outputs are byte-identical across repeated runs
    and across 1, 4 and 16 workers."""
    with report(5, "worker-determinism"):
        rng = np.random.default_rng(55)
        coords = rng.uniform(0, 80, size=(60, 2))
        points = tmp_path / "pts.csv"
        points.write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in coords))

        def run(tag, workers):
            out = tmp_path / f"{tag}-{workers}"
            monkeypatch.setenv("PALMPAT_THREADS", str(workers))
            assert main(["envelope", "--points", str(points), "--stat", "g",
                         "--m", "39", "--grid-steps", "30", "--seed", "9",
                         "--out-dir", str(out)]) == 0
            assert main(["fit", "--points", str(points), "--p", "0.3:0.5:0.1",
                         "--sigma", "5:10:5", "--trials", "3", "--grid-steps", "30",
                         "--n-ref", "300", "--seed", "9", "--out-dir", str(out)]) == 0
            return ((out / "envelope_g.csv").read_bytes(),
                    (out / "fit_table.csv").read_bytes())

        baseline = run("a", 1)
        assert run("b", 1) == baseline   # repeated run
        assert run("a", 4) == baseline
        assert run("a", 16) == baseline


def test_criterion_6_counting_protocol(report):
    """match_counts against hand-computed matchings, including tie cases and
    the constructed shift set {0.5, 1.0, 1.5} m."""
    with report(6, "counting-protocol"):
        # perfect detection
        pts = [(0, 0), (7, 3), (2, 9)]
        r = match_counts(pts, pts, radius=5.0)
        assert r.accuracy == 1.0 and r.shift_mean == 0.0 and r.shift_std == 0.0

        # one of two labels matched at distance 1
        r = match_counts([(1, 0), (50, 50)], [(0, 0), (10, 10)], 5.0)
        assert r.accuracy == 0.5 and r.shift_mean == 1.0 and r.shift_median == 1.0

        # distance tie resolves to the lower labeled index
        r = match_counts([(3, 0)], [(0, 0), (6, 0)], 5.0)
        assert r.matched.tolist() == [[0, 0]]
        assert r.accuracy == 0.5

        # nearest-first greedy: (3.5,0) pairs with (4,0), then (1,0) with (0,0)
        r = match_counts([(1, 0), (3.5, 0)], [(0, 0), (4, 0)], 5.0)
        assert r.accuracy == 1.0
        assert r.matched.tolist() == [[1, 1], [0, 0]]
        assert r.distances.tolist() == [0.5, 1.0]

        # constructed shifts {0.5, 1.0, 1.5}: mean 1.0, median 1.0
        labeled = [(0, 0), (10, 0), (20, 0)]
        detected = [(0.5, 0), (11, 0), (21.5, 0)]
        r = match_counts(detected, labeled, radius=5.0)
        assert r.accuracy == 1.0
        assert r.shift_mean == 1.0
        assert r.shift_median == 1.0
        assert r.shift_std == pytest.approx(0.5, rel=1e-15)

        # no labels: accuracy undefined but counts reported
        r = match_counts([(0, 0)], [], radius=5.0)
        assert math.isnan(r.accuracy) and r.n_detected == 1 and r.n_labeled == 0


def test_criterion_7_published_site_fit(report):
    """Optional data-driven check: refit the published FCAT 1 centers and
    expect the estimate to land within one candidate step of that site's
    known values (p*=0.49, sigma*=50). Non-blocking: needs
    PALMPAT_SITE_POINTS to name a local x,y centers CSV in the site's
    working units."""
    with report(7, "published-site-fit"):
        path = os.environ.get("PALMPAT_SITE_POINTS", "").strip()
        if not path:
            pytest.skip("PALMPAT_SITE_POINTS not set; published annotations not bundled")
        pattern = parse_points_csv(path)
        p_cands = [round(0.30 + 0.05 * i, 12) for i in range(9)]
        s_cands = [40.0, 50.0, 60.0, 70.0, 80.0]
        result = fit(pattern, p_cands, s_cands, n_trials=10, n_ref=8000, seed=0)
        assert abs(result.best.p - 0.49) <= 0.05 + 1e-9
        assert abs(result.best.sigma - 50.0) <= 10.0 + 1e-9
