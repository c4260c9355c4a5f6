"""Command-line front end: CSV in, CSV out.

Subcommands map one-to-one onto library operations; multi-step analyses
compose through files so every intermediate stays auditable:

    ripley     G/F/J curve for a points file      -> ripley_<stat>.csv
    envelope   Monte Carlo CSR envelope test      -> envelope_<stat>.csv
    simulate   CSR or bimodal pattern generator   -> simulated_points.csv
    fit        grid-search (p, sigma) estimation  -> fit_table.csv
    merge      tile-to-global mapping + NMS       -> merged_boxes.csv, merged_centers.csv
    count      match detected vs labeled centers  -> count_report.csv
    nn-stats   k-nearest-neighbor distance stats  -> nn_stats.csv, nn_histogram.csv

File schemas (UTF-8, '.' decimal separator, LF line endings):
points ``x,y``; detections ``tile_row,tile_col,x_min,y_min,x_max,y_max,confidence``
(plain ``x_min,...,confidence`` with --global); curves ``d,value``; envelopes
``d,observed,mean,lo95,hi95,p``; fit table ``p,sigma,d_total,d_1..d_N``.

ripley, envelope, simulate and fit take --seed (default 0, never
wall-clock); merge, count and nn-stats draw no random numbers. Identical
invocations produce byte-identical outputs; PALMPAT_THREADS caps the
worker count used by fit and envelope (0 or unset = auto).

Exit codes: 0 success, 2 usage error, 3 data error, out of memory or a
crashed worker process.
"""
from __future__ import annotations

import argparse
import logging
import math
import re
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from .detections import (
    DEFAULT_IOU_THRESHOLD,
    DEFAULT_MATCH_RADIUS,
    DEFAULT_PATCH_SIZE,
    DEFAULT_STRIDE,
    TileLayout,
    centers,
    match_counts,
    merge_nms,
    to_global,
)
from .envelope import DEFAULT_SIMULATIONS, EnvelopeResult, envelope, simulate_csr
from .errors import InvalidInputError, check_count, check_real
from .geometry import PointPattern, Window
from .reproduction import DEFAULT_TRIALS, FitResult, ReproductionParams, fit, simulate_reproduction
from .ripley import (DEFAULT_GRID_STEPS, DEFAULT_NN_BINS, DEFAULT_NN_K, DistanceGrid,
                     NeighborStats, nn_stats, statistic_curve)
from .seeding import DEFAULT_SEED

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DATA = 3
MAX_RANGE_VALUES = 10_000


# ---------------------------------------------------------------- parsing


def parse_range(text: str) -> list[float]:
    """``start:stop:step`` inclusive of both endpoints (1e-9 tolerance),
    or a single value."""
    try:
        values = [float(p) for p in text.split(":")]
    except ValueError:
        values = []
    if len(values) not in (1, 3):
        raise InvalidInputError(f"expected NUMBER or START:STOP:STEP, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise InvalidInputError(f"range values must be finite, got {text!r}")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0:
        raise InvalidInputError(f"range step must be positive, got {step}")
    if stop < start:
        raise InvalidInputError(f"range stop {stop} is below start {start}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_RANGE_VALUES:  # also an infinite span
        raise InvalidInputError(f"range {text!r} has more than {MAX_RANGE_VALUES} values")
    values = [round(start + i * step, 12) for i in range(math.floor(span) + 1)]
    if any(a >= b for a, b in zip(values, values[1:])):
        raise InvalidInputError(f"range {text!r} repeats values at 12-decimal rounding")
    return values


def _read_rows(path, expected_header: str):
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}")
    lines = text.splitlines()
    if not lines:
        raise InvalidInputError(f"{path}: empty file")
    header = lines[0].strip()
    if header != expected_header:
        raise InvalidInputError(
            f"{path}: expected header {expected_header!r}, got {header!r}"
        )
    n_fields = expected_header.count(",") + 1
    body = [line for line in lines[1:] if line.strip()]
    joined = ",".join(body)  # float() alone also reads "1_000" and non-ASCII digits
    try:  # the whole file at once
        if "_" in joined or not joined.isascii() or any(
                line.count(",") != n_fields - 1 for line in body):
            raise ValueError
        rows = np.array(list(map(float, joined.split(",")))).reshape(-1, n_fields)
        if np.isfinite(rows).all():
            return rows
    except ValueError:
        pass
    # Only a file with a bad line or no data rows gets here; name that line.
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != n_fields:
            raise InvalidInputError(
                f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}"
            )
        try:
            if "_" in line or not line.isascii():
                raise ValueError
            values = [float(f) for f in fields]
        except ValueError:
            raise InvalidInputError(f"{path}:{lineno}: non-numeric field in {line!r}")
        if not all(math.isfinite(v) for v in values):
            raise InvalidInputError(f"{path}:{lineno}: non-finite value in {line!r}")
    raise InvalidInputError(f"{path}: no data rows")


def parse_points_csv(path, units_per_meter: float = 1.0, window=None) -> PointPattern:
    """Load an ``x,y`` file, scale into meters, and attach a window.

    Coordinates and the optional ``window`` bounds (x_min, y_min, x_max,
    y_max, in input units) are divided by ``units_per_meter``. Without a
    window the points' bounding box is used and a notice is logged.
    """
    units = check_real(units_per_meter, "units_per_meter", 0.0, low_open=True)
    if window is not None:
        window = Window(*(v / units for v in window))
    coords = _read_rows(path, "x,y") / units
    if window is None:
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        if not (lo < hi).all():
            raise InvalidInputError(f"{path}: degenerate bounding box; pass an explicit --window")
        window = Window(*lo, *hi)
        logger.info("no --window given; using the points' bounding box %s", window)
    return PointPattern(window, coords)


# ---------------------------------------------------------------- output


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# Shared with scripts/site_analysis.py; each calls write_csv by its global name.
def write_curve(path, grid: DistanceGrid, curve) -> None:
    write_csv(path, ["d", "value"], zip(grid.values, curve))


def write_envelope(path, grid: DistanceGrid, result: EnvelopeResult) -> None:
    write_csv(path, ["d", "observed", "mean", "lo95", "hi95", "p"],
              zip(grid.values, result.observed, result.sim_mean, result.lo95,
                  result.hi95, result.p_values))


def write_fit_table(path, result: FitResult) -> None:
    header = ["p", "sigma", "d_total"] + [f"d_{i}" for i in range(1, result.d.shape[1] + 1)]
    write_csv(path, header,
              np.column_stack((result.p, result.sigma, result.d_total, result.d)).tolist())


def write_nn_histogram(path, stats: NeighborStats) -> None:
    write_csv(path, ["bin_lo", "bin_hi", "count"],
              zip(stats.bin_edges[:-1], stats.bin_edges[1:], stats.counts.tolist()))


def _emit(args, name: str, write, *data) -> None:
    """Write one output file into --out-dir and report its path."""
    path = Path(args.out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    write(path, *data)
    print(f"wrote {path}")


# ---------------------------------------------------------------- commands


def _grid(args, window: Window) -> DistanceGrid:
    """The distance grid of --grid-max and --grid-steps."""
    try:
        grid_max = None if args.grid_max == "auto" else float(args.grid_max)
    except ValueError:
        raise InvalidInputError(f"--grid-max must be a number or 'auto', got {args.grid_max!r}")
    steps = check_count(args.grid_steps, "--grid-steps", 2)
    if grid_max is None:
        return DistanceGrid.default(window, steps)
    grid_max = check_real(grid_max, "--grid-max", 0.0, low_open=True)
    return DistanceGrid(np.linspace(0.0, grid_max, steps))


def cmd_ripley(args) -> None:
    pattern = parse_points_csv(args.points, args.units_per_meter, args.window)
    grid = _grid(args, pattern.window)
    curve = statistic_curve(pattern, grid, args.stat, args.n_ref, args.seed)
    _emit(args, f"ripley_{args.stat}.csv", write_curve, grid, curve)


def cmd_envelope(args) -> None:
    pattern = parse_points_csv(args.points, args.units_per_meter, args.window)
    grid = _grid(args, pattern.window)
    result = envelope(pattern, grid, args.stat, args.envelope_m, args.seed, args.n_ref)
    _emit(args, f"envelope_{args.stat}.csv", write_envelope, grid, result)


def cmd_simulate(args) -> None:
    window = Window(*args.window)
    if (args.p is None) != (args.sigma is None):
        raise InvalidInputError("--p and --sigma must be given together (or neither, for CSR)")
    if args.p is None:
        pattern = simulate_csr(window, args.n, args.seed)
    else:
        pattern = simulate_reproduction(
            window, args.n, ReproductionParams(args.p, args.sigma), args.seed
        )
    _emit(args, "simulated_points.csv", write_csv, ["x", "y"], pattern.coords)


def cmd_fit(args) -> None:
    p_candidates = parse_range(args.p)
    sigma_candidates = parse_range(args.sigma)
    pattern = parse_points_csv(args.points, args.units_per_meter, args.window)
    grid = _grid(args, pattern.window)
    result = fit(pattern, p_candidates, sigma_candidates, n_trials=args.n_trials, grid=grid,
                 n_ref=args.n_ref, seed=args.seed)
    _emit(args, "fit_table.csv", write_fit_table, result)
    print(f"p*={_fmt(result.best.p)} sigma*={_fmt(result.best.sigma)} d_min={_fmt(result.d_min)}")


def cmd_merge(args) -> None:
    if args.global_coords:
        boxes = _read_rows(args.detections, "x_min,y_min,x_max,y_max,confidence")
    else:
        layout = TileLayout(args.patch_size, args.stride, args.origin)
        boxes = to_global(layout, _read_rows(
            args.detections, "tile_row,tile_col,x_min,y_min,x_max,y_max,confidence"))
    merged = boxes[merge_nms(boxes, args.iou_threshold)]
    _emit(args, "merged_boxes.csv", write_csv,
          ["x_min", "y_min", "x_max", "y_max", "confidence"], merged.tolist())
    _emit(args, "merged_centers.csv", write_csv, ["x", "y"], centers(merged))
    print(f"kept {len(merged)} of {len(boxes)} boxes")


def cmd_count(args) -> None:
    units = check_real(args.units_per_meter, "units_per_meter", 0.0, low_open=True)
    detected = _read_rows(args.detected, "x,y") / units
    labeled = _read_rows(args.labeled, "x,y") / units
    report = match_counts(detected, labeled, args.match_radius)
    _emit(
        args, "count_report.csv", write_csv,
        ["metric", "value"],
        [
            ["n_labeled", report.n_labeled],
            ["n_detected", report.n_detected],
            ["n_matched", len(report.matched)],
            ["accuracy", report.accuracy],
            ["detected_rate", report.detected_rate],
            ["shift_mean", report.shift_mean],
            ["shift_median", report.shift_median],
            ["shift_std", report.shift_std],
        ],
    )
    print(
        f"accuracy={_fmt(report.accuracy)} matched={len(report.matched)}/{report.n_labeled} "
        f"shift_mean={_fmt(report.shift_mean)}"
    )


def cmd_nn_stats(args) -> None:
    pattern = parse_points_csv(args.points, args.units_per_meter, args.window)
    stats = nn_stats(pattern, args.k, args.bins)
    _emit(
        args, "nn_stats.csv", write_csv,
        ["metric", "value"],
        [["k", args.k], ["n", len(pattern)], ["mean", stats.mean],
         ["median", stats.median], ["std", stats.std]],
    )
    _emit(args, "nn_histogram.csv", write_nn_histogram, stats)
    print(f"mean={_fmt(stats.mean)} median={_fmt(stats.median)} std={_fmt(stats.std)}")


# ---------------------------------------------------------------- wiring


def _add_common(sub, points=True, seed=True):
    if seed:
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                         help=f"master RNG seed (default {DEFAULT_SEED})")
    sub.add_argument("--out-dir", default=".", help="output directory (default .)")
    if points:
        sub.add_argument("--points", required=True, help="points CSV with header x,y")
        sub.add_argument("--units-per-meter", type=float, default=1.0, dest="units_per_meter",
                         help="input units per meter; coordinates are divided by this (default 1)")
        sub.add_argument("--window", type=float, nargs=4, default=None,
                         metavar=("X_MIN", "Y_MIN", "X_MAX", "Y_MAX"),
                         help="observation window in input units (default: points' bounding box)")


def _add_grid(sub):
    sub.add_argument("--grid-max", default="auto",
                     help="largest grid distance, or 'auto' for half the shorter window side")
    sub.add_argument("--grid-steps", type=int, default=DEFAULT_GRID_STEPS, dest="grid_steps",
                     help=f"number of grid distances (default {DEFAULT_GRID_STEPS})")
    sub.add_argument("--n-ref", type=int, default=None, dest="n_ref",
                     help="reference points for F (default max(1000, n))")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palmpat",
        description="Spatial point-pattern statistics and detection postprocessing.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("ripley", help="compute a G, F or J curve")
    _add_common(s)
    _add_grid(s)
    s.add_argument("--stat", choices=["g", "f", "j"], required=True, help="statistic: G, F or J")
    s.set_defaults(func=cmd_ripley)

    s = subs.add_parser("envelope", help="Monte Carlo CSR envelope test")
    _add_common(s)
    _add_grid(s)
    s.add_argument("--stat", choices=["g", "f", "j"], required=True, help="statistic: G, F or J")
    s.add_argument("--m", type=int, default=DEFAULT_SIMULATIONS, dest="envelope_m",
                   help=f"number of CSR simulations (default {DEFAULT_SIMULATIONS})")
    s.set_defaults(func=cmd_envelope)

    s = subs.add_parser("simulate", help="generate a CSR or bimodal pattern")
    _add_common(s, points=False)
    s.add_argument("--n", type=int, required=True, help="number of points")
    s.add_argument("--window", type=float, nargs=4, required=True,
                   metavar=("X_MIN", "Y_MIN", "X_MAX", "Y_MAX"), help="window to fill with points")
    s.add_argument("--p", type=float, default=None,
                   help="clustering probability (omit for CSR)")
    s.add_argument("--sigma", type=float, default=None,
                   help="Gaussian offspring spread (omit for CSR)")
    s.set_defaults(func=cmd_simulate)

    s = subs.add_parser("fit", help="grid-search (p, sigma) for a points file")
    _add_common(s)
    _add_grid(s)
    s.add_argument("--p", required=True, help="candidates, NUMBER or START:STOP:STEP")
    s.add_argument("--sigma", required=True, help="candidates, NUMBER or START:STOP:STEP")
    s.add_argument("--trials", type=int, default=DEFAULT_TRIALS, dest="n_trials",
                   help=f"simulations per candidate pair (default {DEFAULT_TRIALS})")
    s.set_defaults(func=cmd_fit)

    s = subs.add_parser("merge", help="map tiled detections to global coordinates and run NMS")
    _add_common(s, points=False, seed=False)
    s.add_argument("--detections", required=True, help="detections CSV")
    s.add_argument("--global", action="store_true", dest="global_coords",
                   help="detections are already in global coordinates")
    s.add_argument("--patch-size", type=int, default=DEFAULT_PATCH_SIZE, dest="patch_size",
                   help=f"tile side, in the detections' units (default {DEFAULT_PATCH_SIZE})")
    s.add_argument("--stride", type=int, default=DEFAULT_STRIDE,
                   help=f"offset between neighbouring tiles (default {DEFAULT_STRIDE})")
    s.add_argument("--origin", type=float, nargs=2, default=(0.0, 0.0), metavar=("X", "Y"),
                   help="global (x, y) where tile (0, 0) starts (default 0 0)")
    s.add_argument("--iou", type=float, default=DEFAULT_IOU_THRESHOLD, dest="iou_threshold",
                   help=f"NMS IoU threshold (default {DEFAULT_IOU_THRESHOLD})")
    s.set_defaults(func=cmd_merge)

    s = subs.add_parser("count", help="score detected centers against labeled centers")
    _add_common(s, points=False, seed=False)
    s.add_argument("--detected", required=True, help="detected centers CSV (x,y)")
    s.add_argument("--labeled", required=True, help="labeled centers CSV (x,y)")
    s.add_argument("--radius", type=float, default=DEFAULT_MATCH_RADIUS, dest="match_radius",
                   help=f"match radius in meters (default {DEFAULT_MATCH_RADIUS})")
    s.add_argument("--units-per-meter", type=float, default=1.0, dest="units_per_meter",
                   help="input units per meter; coordinates are divided by this (default 1)")
    s.set_defaults(func=cmd_count)

    s = subs.add_parser("nn-stats", help="k-nearest-neighbor distance statistics")
    _add_common(s, seed=False)
    s.add_argument("--k", type=int, default=DEFAULT_NN_K,
                   help=f"neighbors per point (default {DEFAULT_NN_K})")
    s.add_argument("--bins", type=int, default=DEFAULT_NN_BINS,
                   help=f"histogram bins (default {DEFAULT_NN_BINS})")
    s.set_defaults(func=cmd_nn_stats)

    # Python 3.11's argparse reads "-3e7" and "-inf" as options, not numbers.
    number = re.compile(r"^-(\.?\d|(inf(inity)?|nan)$)", re.IGNORECASE)
    for p in (parser, *subs.choices.values()):
        p._negative_number_matcher = number
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        args.func(args)
    except (InvalidInputError, OSError, MemoryError, BrokenProcessPool) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
