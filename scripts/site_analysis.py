#!/usr/bin/env python3
"""Full spatial analysis of one site's detected centers.

Given an ``x,y`` centers file, this runs the whole pipeline into one output
directory: G/F/J curves, Monte Carlo CSR envelope tests for each statistic,
nearest-neighbor summaries (k=1 and k=5), and the bimodal-model grid-search
fit. Everything is seeded, so reruns are byte-identical.

Example:
    python scripts/site_analysis.py --points centers.csv --out-dir results/site1 \
        --units-per-meter 20 --p 0.30:0.70:0.05 --sigma 40:80:10
"""
import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from palmpat import envelope, fit, nn_stats
from palmpat.cli import parse_points_csv, parse_range, write_csv
from palmpat.ripley import DistanceGrid, statistic_curve
from palmpat.seeding import substream_seed


def build_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", required=True, help="centers CSV with header x,y")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--units-per-meter", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--grid-steps", type=int, default=100)
    ap.add_argument("--n-ref", type=int, default=8000,
                    help="F reference points (high default: fitting quality)")
    ap.add_argument("--m", type=int, default=199, help="envelope simulations")
    ap.add_argument("--p", default="0.30:0.70:0.05", help="fit candidates for p")
    ap.add_argument("--sigma", default="40:80:10", help="fit candidates for sigma")
    ap.add_argument("--trials", type=int, default=10, help="fit trials per cell")
    ap.add_argument("--skip-fit", action="store_true")
    return ap.parse_args()


def main():
    args = build_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    pattern = parse_points_csv(args.points, args.units_per_meter)
    grid = DistanceGrid.default(pattern.window, args.grid_steps)
    print(f"{len(pattern)} points, window {pattern.window}")

    for stat in ("G", "F", "J"):
        curve = statistic_curve(pattern, grid, stat, args.n_ref, substream_seed(args.seed, 10))
        write_csv(out / f"ripley_{stat.lower()}.csv", ["d", "value"], zip(grid.values, curve))

    for stat in ("G", "F", "J"):
        t0 = time.perf_counter()
        r = envelope(pattern, grid, stat, m=args.m,
                     seed=substream_seed(args.seed, 20), n_ref=args.n_ref)
        write_csv(out / f"envelope_{stat.lower()}.csv",
                  ["d", "observed", "mean", "lo95", "hi95", "p"],
                  zip(grid.values, r.observed, r.sim_mean, r.lo95, r.hi95, r.p_values))
        flagged = int((r.p_values[~np.isnan(r.p_values)] < 0.05).sum())
        print(f"envelope {stat}: {flagged}/{len(grid)} grid points with p < 0.05 "
              f"({time.perf_counter() - t0:.1f}s)")

    for k in (1, 5):
        stats = nn_stats(pattern, k=k, bins=40)
        write_csv(out / f"nn_stats_k{k}.csv", ["metric", "value"],
                  [["mean", stats.mean], ["median", stats.median], ["std", stats.std]])
        write_csv(out / f"nn_histogram_k{k}.csv", ["bin_lo", "bin_hi", "count"],
                  ([stats.bin_edges[i], stats.bin_edges[i + 1], int(stats.counts[i])]
                   for i in range(len(stats.counts))))
        print(f"nn k={k}: mean {stats.mean:.2f} median {stats.median:.2f} std {stats.std:.2f}")

    if not args.skip_fit:
        t0 = time.perf_counter()
        result = fit(pattern, parse_range(args.p), parse_range(args.sigma),
                     n_trials=args.trials, grid=grid, n_ref=args.n_ref, seed=args.seed)
        header = ["p", "sigma", "d_total"] + [f"d_{i+1}" for i in range(args.trials)]
        write_csv(out / "fit_table.csv", header,
                  [[c.p, c.sigma, c.d_total, *c.d_trials] for c in result.table])
        print(f"fit: p*={result.best.p} sigma*={result.best.sigma} "
              f"d_min={result.d_min:.3f} ({time.perf_counter() - t0:.1f}s)")

    print(f"outputs in {out}")


if __name__ == "__main__":
    main()
