"""Every count argument is read by one rule, ``errors.check_count``, every
real-valued scalar by one rule, ``errors.check_real``, and every increasing 1-D
input (distance grids, trapezoid abscissae) by one check."""
import argparse
import contextlib
import importlib
import math
import os
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from palmpat import (
    DistanceGrid,
    InvalidInputError,
    ReproductionParams,
    TileLayout,
    Window,
    envelope,
    f_function,
    fit,
    match_counts,
    merge_nms,
    nearest_neighbor_distances,
    nn_stats,
    simulate_csr,
    simulate_reproduction,
    substream_seed,
    trapezoid_integrate,
)
from palmpat._pool import MAX_TASKS, MAX_WORKERS, resolve_workers
from palmpat.cli import cmd_count, main, parse_points_csv
from palmpat.errors import check_count
from palmpat.seeding import rng_from_seed

native = importlib.import_module("palmpat._native")
reproduction = importlib.import_module("palmpat.reproduction")

WINDOW = Window(0.0, 0.0, 100.0, 100.0)
PATTERN = simulate_csr(WINDOW, 30, seed=1)
GRID = DistanceGrid.default(WINDOW, 10)
PARAMS = ReproductionParams(0.5, 5.0)

# (call, the argument's name, its least value); call(v) passes v as that argument
COUNTS = {
    "substream_seed": (lambda v: substream_seed(v, 1), "seed", 0),
    "rng_from_seed": (rng_from_seed, "seed", 0),
    "f_function.seed": (lambda v: f_function(PATTERN, GRID, 50, v), "seed", 0),
    "simulate_csr.n": (lambda v: simulate_csr(WINDOW, v, 0), "n", 1),
    "envelope.m": (lambda v: envelope(PATTERN, GRID, "G", v, 0), "m", 19),
    "simulate_reproduction.n": (lambda v: simulate_reproduction(WINDOW, v, PARAMS, 0), "n", 1),
    "fit.n_trials": (lambda v: fit(PATTERN, [0.5], [5.0], v, GRID, 50, 0), "n_trials", 1),
    "DistanceGrid.default.steps": (lambda v: DistanceGrid.default(WINDOW, v), "steps", 2),
    "f_function.n_ref": (lambda v: f_function(PATTERN, GRID, v, 0), "n_ref", 1),
    "nn_stats.bins": (lambda v: nn_stats(PATTERN, 1, v), "bins", 1),
    "nn_stats.k": (lambda v: nn_stats(PATTERN, v), "k", 1),
    "nearest_neighbor_distances.k": (lambda v: nearest_neighbor_distances(PATTERN, v), "k", 1),
    "nearest_neighbor_distances.k to queries": (
        lambda v: nearest_neighbor_distances(PATTERN, v, PATTERN.coords[:3]), "k", 1),
}


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """Run in a fresh directory that holds pts.csv and det.csv."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pts.csv").write_text("x,y\n1,2\n5,3\n2,8\n")
    (tmp_path / "det.csv").write_text(
        "tile_row,tile_col,x_min,y_min,x_max,y_max,confidence\n0,0,10,10,30,30,0.9\n")


@pytest.mark.parametrize("bad", [
    pytest.param(lambda least: 2.5, id="2.5"),
    pytest.param(lambda least: True, id="True"),
    pytest.param(lambda least: np.True_, id="np.True_"),
    pytest.param(lambda least: "3", id="str"),
    pytest.param(lambda least: least - 1, id="below"),
])
@pytest.mark.parametrize("site", sorted(COUNTS))
def test_every_count_argument_refuses_a_non_integer_or_too_small_value(site, bad):
    call, name, least = COUNTS[site]
    with pytest.raises(InvalidInputError, match=f"^{name} must be "):
        call(bad(least))


@pytest.mark.parametrize("site", sorted(COUNTS))
def test_every_count_argument_takes_a_numpy_integer(site):
    call, _, least = COUNTS[site]
    call(np.int64(least))
    call(np.uint32(least))


def test_count_messages():
    with pytest.raises(InvalidInputError, match=r"^n_ref must be a positive integer, got 0$"):
        f_function(PATTERN, GRID, 0, 0)
    with pytest.raises(InvalidInputError, match=r"^m must be an integer >= 19, got 18$"):
        envelope(PATTERN, GRID, "G", 18, 0)
    with pytest.raises(InvalidInputError, match=r"^seed must be an integer >= 0, got True$"):
        substream_seed(True)


def test_nn_stats_refuses_a_fractional_k():
    # k=1.5 used to reach the k-d tree and return the k=2 statistics
    with pytest.raises(InvalidInputError, match="^k must be a positive integer, got 1.5$"):
        nn_stats(PATTERN, 1.5)


@pytest.mark.parametrize("path", ["compiled", "scalar"])
def test_simulate_reproduction_refuses_a_bool_count_on_both_sampler_paths(path, monkeypatch):
    calls = []
    if path == "compiled":
        monkeypatch.setattr(native, "_lib", SimpleNamespace(
            sample_reproduction=lambda *args: calls.append(args) or 0))
    else:
        monkeypatch.setattr(native, "_lib", False)
        monkeypatch.setattr(reproduction, "_scalar_reproduction",
                            lambda *args: calls.append(args) or ([], 0))
    with pytest.raises(InvalidInputError, match="^n must be a positive integer, got True$"):
        simulate_reproduction(WINDOW, True, PARAMS, 0)
    assert calls == []


@pytest.mark.parametrize("build, name", [
    (DistanceGrid, "distance grid"),
    (lambda v: trapezoid_integrate(v, [0.0, 1.0]), "xs"),
])
@pytest.mark.parametrize("values", [
    [[1.0], [2.0, 3.0]], [0.0, [1.0, 2.0]], [], [[0.0, 1.0]], [0.0, np.nan], [1.0, 1.0],
    [2.0, 1.0], "ab", None,
])
def test_increasing_values_refuses_ragged_empty_and_unordered_input(build, name, values):
    with pytest.raises(InvalidInputError,
                       match=f"^{name} must be nonempty, finite, strictly increasing and 1-D$"):
        build(values)


@pytest.mark.parametrize("ys", [[0.0, 1.0, 2.0], [[0.0, 1.0]], [1.0], 2.0])
def test_trapezoid_refuses_ys_that_do_not_match_xs(ys):
    with pytest.raises(InvalidInputError, match="^need 1-D ys as long as xs"):
        trapezoid_integrate([0.0, 1.0], ys)


def test_trapezoid_needs_two_samples():
    with pytest.raises(InvalidInputError, match="^need 1-D ys as long as xs, and 2"):
        trapezoid_integrate([0.0], [1.0])


def test_increasing_values_copy_their_input():
    xs = np.array([0.0, 1.0, 2.0])
    grid = DistanceGrid(xs)
    xs[0] = -1.0
    assert grid.values.tolist() == [0.0, 1.0, 2.0]
    assert not grid.values.flags.writeable
    assert trapezoid_integrate(xs, [1.0, 1.0, 1.0]) == 3.0


@pytest.mark.parametrize("ys", [[0.0, [1.0, 2.0]], [[1.0], [2.0, 3.0]], ["a", 1.0], None])
def test_trapezoid_refuses_ragged_or_non_numeric_ys(ys):
    with pytest.raises(InvalidInputError, match="^need 1-D ys as long as xs, and 2"):
        trapezoid_integrate([0.0, 1.0], ys)


# ---------------------------------------------------------------- size cap

CAP = 2**53

# (call, the count's name, the site's own cap below 2**53); call(v) passes v as that count
OWN_CAPS = {
    "envelope.m": (COUNTS["envelope.m"][0], "m", MAX_TASKS),
    "fit task count": (COUNTS["fit.n_trials"][0], "fit task count", MAX_TASKS),
    "nearest_neighbor_distances.k": (COUNTS["nearest_neighbor_distances.k"][0], "k",
                                     len(PATTERN) - 1),
    "nearest_neighbor_distances.k to queries": (
        COUNTS["nearest_neighbor_distances.k to queries"][0], "k", len(PATTERN)),
    "nn_stats.k": (COUNTS["nn_stats.k"][0], "k", len(PATTERN) - 1),
    "TileLayout.stride": (lambda v: TileLayout(800, v), "stride", 800),
}


@pytest.mark.parametrize("site", sorted(COUNTS))
def test_every_size_is_capped_and_no_seed_is(site):
    call, name, _ = COUNTS[site]
    cap = OWN_CAPS[site][2] if site in OWN_CAPS else CAP
    if name == "seed":  # substream_seed derives seeds up to 2**64 - 1
        call(2**64 - 1)
    else:
        with pytest.raises(InvalidInputError,
                           match=f"^{name} must be at most {cap}, got {cap + 1}$"):
            call(cap + 1)


class _SeedReached(Exception):
    """Raised in place of the first seed derivation, once every count check has passed."""


def _seed_reached(*args):
    raise _SeedReached


@pytest.mark.parametrize("site", sorted(OWN_CAPS))
def test_each_own_cap_is_allowed_and_one_above_it_is_not(site, monkeypatch):
    # a fit or envelope at the task cap stops at its first seed instead of running
    for module in ("palmpat.reproduction", "palmpat.envelope"):
        monkeypatch.setattr(importlib.import_module(module), "substream_seed", _seed_reached)
    call, name, cap = OWN_CAPS[site]
    with pytest.raises(InvalidInputError, match=f"^{name} must be at most {cap}, got {cap + 1}$"):
        call(cap + 1)
    with contextlib.suppress(_SeedReached):
        call(cap)


def _no_pool(workers):
    raise AssertionError(f"a pool of {workers} workers was started")


def test_thread_count_is_a_count_and_zero_means_one_worker_per_cpu(monkeypatch):
    monkeypatch.setattr(importlib.import_module("palmpat._pool"), "_pool", _no_pool)
    monkeypatch.setenv("PALMPAT_THREADS", "0")
    assert resolve_workers() == min(os.cpu_count() or 1, MAX_WORKERS)
    monkeypatch.setattr(os, "cpu_count", lambda: 1000)
    assert resolve_workers() == MAX_WORKERS
    monkeypatch.setenv("PALMPAT_THREADS", str(MAX_WORKERS))
    assert resolve_workers() == MAX_WORKERS == 256
    for raw, need in (("-1", "an integer >= 0"), ("257", "at most 256")):
        monkeypatch.setenv("PALMPAT_THREADS", raw)
        with pytest.raises(InvalidInputError,
                           match=f"^PALMPAT_THREADS must be {need}, got {raw}$"):
            resolve_workers()


@pytest.mark.parametrize("counter", [-1, 1.5, True, "1"])
def test_substream_counters_are_counts(counter):
    with pytest.raises(InvalidInputError,
                       match=f"^counter must be an integer >= 0, got {re.escape(repr(counter))}$"):
        substream_seed(0, 1, counter)


def test_substream_counters_reach_the_largest_uint64():
    assert substream_seed(0, np.uint64(2**64 - 1)) == substream_seed(0, 2**64 - 1)


def test_the_cap_itself_is_a_valid_count():
    assert check_count(CAP, "n") == CAP
    assert check_count(np.uint64(CAP), "n") == CAP


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--n", str(10**20), "--window", "0", "0", "1", "1"], "n"),
    (["simulate", "--n", str(10**20), "--window", "0", "0", "1", "1",
      "--p", "0.5", "--sigma", "1"], "n"),
    (["nn-stats", "--points", "pts.csv", "--bins", str(10**20)], "bins"),
    (["ripley", "--stat", "g", "--points", "pts.csv", "--grid-steps", str(10**20)],
     "--grid-steps"),
    (["ripley", "--stat", "g", "--points", "pts.csv", "--grid-steps", str(10**20),
      "--grid-max", "3"], "--grid-steps"),
    (["ripley", "--stat", "f", "--points", "pts.csv", "--n-ref", str(10**20)], "n_ref"),
    (["merge", "--detections", "det.csv", "--patch-size", str(10**20)], "patch_size"),
])
def test_cli_sizes_above_the_cap_are_one_line_data_errors(argv, message, in_tmp, capsys):
    assert main([*argv, "--out-dir", "out"]) == 3
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {message} must be at most {CAP}, got {10**20}"]


# ---------------------------------------------------------------- real scalars

BOXES = np.array([[0.0, 0.0, 2.0, 2.0, 0.9], [1.0, 0.0, 3.0, 2.0, 0.8]])
BELOW_0, ABOVE_1 = math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0)


def _count(units):
    return cmd_count(argparse.Namespace(units_per_meter=units, detected="pts.csv",
                                        labeled="pts.csv", match_radius=5.0, out_dir="out"))


# (call, the argument's name, the nearest values outside its range); call(v) passes
# v as that argument, in the directory of ``in_tmp``
REALS = {
    "Window.x_min": (lambda v: Window(v, 0.0, 2.0, 2.0), "window x_min", []),
    "Window.y_min": (lambda v: Window(0.0, v, 2.0, 2.0), "window y_min", []),
    "Window.x_max": (lambda v: Window(-1.0, 0.0, v, 2.0), "window x_max", []),
    "Window.y_max": (lambda v: Window(0.0, -1.0, 2.0, v), "window y_max", []),
    "ReproductionParams.p": (lambda v: ReproductionParams(v, 1.0), "p", [BELOW_0, ABOVE_1]),
    "ReproductionParams.sigma": (lambda v: ReproductionParams(0.5, v), "sigma", [0.0, -0.0]),
    "fit.p": (lambda v: fit(PATTERN, [0.5, v], [5.0], 1, GRID, 50, 0), "p", [BELOW_0, ABOVE_1]),
    "fit.sigma": (lambda v: fit(PATTERN, [0.5], [5.0, v], 1, GRID, 50, 0), "sigma", [0.0]),
    "TileLayout.origin.x": (lambda v: TileLayout(800, 400, (v, 0.0)), "origin", []),
    "TileLayout.origin.y": (lambda v: TileLayout(800, 400, (0.0, v)), "origin", []),
    "merge_nms.iou_threshold": (lambda v: merge_nms(BOXES, v), "iou_threshold", [0.0, ABOVE_1]),
    "match_counts.radius": (lambda v: match_counts(BOXES[:, :2], BOXES[:, :2], v), "radius",
                            [0.0, BELOW_0]),
    "parse_points_csv.units_per_meter": (lambda v: parse_points_csv("pts.csv", v),
                                         "units_per_meter", [0.0]),
    "count.units_per_meter": (_count, "units_per_meter", [0.0]),
}

NOT_REALS = {"str": "0.5", "None": None, "True": True, "np.True_": np.True_, "nan": math.nan,
             "inf": math.inf, "-inf": -math.inf, "10**400": 10**400,
             "Fraction(10**400, 3)": Fraction(10**400, 3)}
REALS_IN_RANGE = {"np.float32": np.float32(0.5), "np.int64": np.int64(1),
                  "Fraction": Fraction(1, 2)}


@pytest.mark.parametrize("site, bad", [
    pytest.param(site, bad, id=f"{site}-{label}")
    for site in sorted(REALS)
    for label, bad in [*NOT_REALS.items(), *((repr(v), v) for v in REALS[site][2])]
])
def test_every_real_argument_refuses_a_non_real_non_finite_or_out_of_range_value(
        site, bad, in_tmp):
    call, name, _ = REALS[site]
    with pytest.raises(InvalidInputError, match=f"^{re.escape(name)} must be "):
        call(bad)


@pytest.mark.parametrize("good", REALS_IN_RANGE.values(), ids=REALS_IN_RANGE)
@pytest.mark.parametrize("site", sorted(REALS))
def test_every_real_argument_takes_numpy_scalars_and_fractions(site, good, in_tmp, capsys):
    REALS[site][0](good)


@pytest.mark.parametrize("good", REALS_IN_RANGE.values(), ids=REALS_IN_RANGE)
def test_stored_reals_are_floats(good):
    window = Window(good, good, 2, 2)
    params = ReproductionParams(good, good)
    layout = TileLayout(800, 400, (good, good))
    best = fit(PATTERN, [good], [good], 1, GRID, 50, 0).best
    stored = [window.x_min, window.y_min, window.x_max, window.y_max, params.p, params.sigma,
              *layout.origin, best.p, best.sigma]
    assert [type(v) for v in stored] == [float] * len(stored)
    assert stored[-2:] == [float(good)] * 2


def test_real_messages():
    cases = [
        (lambda: ReproductionParams(0.5, 0.0), "sigma must be positive and finite, got 0.0"),
        (lambda: ReproductionParams(ABOVE_1, 1.0), "p must be in [0, 1], got 1.0000000000000002"),
        (lambda: merge_nms(BOXES, 0.0), "iou_threshold must be in (0, 1], got 0.0"),
        (lambda: match_counts(BOXES[:, :2], BOXES[:, :2], True),
         "radius must be positive and finite, got True"),
        (lambda: Window(0, 0, math.nan, 1), "window x_max must be finite, got nan"),
        (lambda: Window(0, 0, 10**400, 1), f"window x_max must be finite, got {10**400}"),
    ]
    for call, message in cases:
        with pytest.raises(InvalidInputError) as info:
            call()
        assert str(info.value) == message


def test_fit_refuses_a_bool_candidate():
    # True used to pass the p check as 1.0 and fit p=1.0
    with pytest.raises(InvalidInputError, match=r"^p must be in \[0, 1\], got True$"):
        fit(PATTERN, [True], [1.0], 1, GRID, 50, 0)


def test_window_messages_print_stored_floats():
    with pytest.raises(InvalidInputError,
                       match=r"^window must have positive area, got \(0.0, 0.0, 0.0, 1.0\)$"):
        Window(0, 0, 0, 1)


@pytest.mark.parametrize("patch, stride, name", [
    (True, True, "patch_size"), (np.True_, 400, "patch_size"), (800.5, 400, "patch_size"),
    (math.inf, 400, "patch_size"), ("800", 400, "patch_size"), (800.0, 400, "patch_size"),
    (0, 400, "patch_size"), (CAP + 1, 400, "patch_size"),
    (800, 400.0, "stride"), (800, True, "stride"), (800, 0, "stride"),
])
def test_tile_sizes_are_counts(patch, stride, name):
    with pytest.raises(InvalidInputError, match=f"^{name} must be "):
        TileLayout(patch, stride)


def test_tile_sizes_are_stored_as_ints():
    layout = TileLayout(np.int64(800), np.uint32(400))
    assert (type(layout.patch_size), type(layout.stride)) == (int, int)
    with pytest.raises(InvalidInputError,
                       match=r"^stride must be at most 800, got 801$"):
        TileLayout(np.int64(800), 801)


@pytest.mark.parametrize("origin", [(0.0, 0.0, 1.0), (0.0,), (), 5, None])
def test_tile_origin_is_a_pair(origin):
    with pytest.raises(InvalidInputError,
                       match=rf"^origin must be an \(x, y\) pair, got {re.escape(str(origin))}$"):
        TileLayout(800, 400, origin)


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--n", "3", "--window", "0", "0", "1e400", "1"],
     "window x_max must be finite, got inf"),
    (["simulate", "--n", "3", "--window", "0", "0", "1", "1", "--p", "nan", "--sigma", "1"],
     "p must be in [0, 1], got nan"),
    (["simulate", "--n", "3", "--window", "0", "0", "1", "1", "--p", "0.5", "--sigma", "0"],
     "sigma must be positive and finite, got 0.0"),
    (["merge", "--detections", "det.csv", "--iou", "0"],
     "iou_threshold must be in (0, 1], got 0.0"),
    (["merge", "--detections", "det.csv", "--origin", "nan", "0"],
     "origin must be finite, got nan"),
    (["count", "--detected", "pts.csv", "--labeled", "pts.csv", "--radius", "inf"],
     "radius must be positive and finite, got inf"),
    (["count", "--detected", "pts.csv", "--labeled", "pts.csv", "--units-per-meter", "1e400"],
     "units_per_meter must be positive and finite, got inf"),
    (["ripley", "--stat", "g", "--points", "pts.csv", "--grid-max", "-1e-300"],
     "--grid-max must be positive and finite, got -1e-300"),
    (["ripley", "--stat", "g", "--points", "pts.csv", "--grid-max", "0"],
     "--grid-max must be positive and finite, got 0.0"),
])
def test_cli_real_arguments_are_one_line_data_errors(argv, message, in_tmp, capsys):
    assert main([*argv, "--out-dir", "out"]) == 3
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        f"error: {message}"]
