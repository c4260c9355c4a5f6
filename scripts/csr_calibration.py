#!/usr/bin/env python3
"""Calibration study for the CSR envelope test.

Measures the false-rejection rate on truly random patterns and the
detection rate on clustered patterns, under the fixed-scale 5% rule
(rank p-values at three pre-registered grid positions, Bonferroni-split).

Example:
    python scripts/csr_calibration.py --out results/calibration.csv
"""
import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from palmpat import DistanceGrid, ReproductionParams, Window, envelope, simulate_csr, simulate_reproduction
from palmpat.cli import write_csv


def load_oracles():
    """tests/oracles.py, which holds the fixed-scale rejection rule that
    acceptance criterion 3 applies."""
    spec = importlib.util.spec_from_file_location("palmpat_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="per-run results CSV")
    ap.add_argument("--runs", type=int, default=100, help="patterns per condition")
    ap.add_argument("--n", type=int, default=500, help="points per pattern")
    ap.add_argument("--side", type=float, default=1000.0)
    ap.add_argument("--m", type=int, default=199, help="envelope simulations")
    ap.add_argument("--cluster-p", type=float, default=0.9)
    ap.add_argument("--cluster-sigma-frac", type=float, default=0.01,
                    help="cluster spread as a fraction of the window side")
    ap.add_argument("--seed-base", type=int, default=1000)
    return ap.parse_args()


def main():
    args = build_args()
    oracles = load_oracles()
    alpha_each = 0.05 / len(oracles.REJECTION_GRID_FRACTIONS)
    if 1.0 / (args.m + 1) > alpha_each:
        print(f"warning: m={args.m} cannot reach the per-position threshold "
              f"{alpha_each:.4f} (min attainable p is 1/{args.m + 1}); "
              f"use m >= 59")
    window = Window(0.0, 0.0, args.side, args.side)
    grid = DistanceGrid.default(window, 100)
    params = ReproductionParams(args.cluster_p, args.cluster_sigma_frac * args.side)

    rows = []
    counts = {"csr": 0, "clustered": 0}
    t0 = time.perf_counter()
    for condition in ("csr", "clustered"):
        for t in range(args.runs):
            pattern_seed = args.seed_base + t
            env_seed = args.seed_base + 10_000 + t
            if condition == "csr":
                pattern = simulate_csr(window, args.n, seed=pattern_seed)
            else:
                pattern = simulate_reproduction(window, args.n, params, seed=pattern_seed)
            result = envelope(pattern, grid, "G", m=args.m, seed=env_seed)
            rej = oracles.rejects_csr_at_5pct(result)
            counts[condition] += rej
            rows.append([condition, pattern_seed, env_seed, int(rej),
                         float(np.nanmin(result.p_values))])
        print(f"{condition}: {counts[condition]}/{args.runs} rejections "
              f"({time.perf_counter() - t0:.1f}s elapsed)")

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_csv(args.out, ["condition", "pattern_seed", "envelope_seed", "rejected", "min_p"], rows)
    print(f"false-rejection rate {counts['csr'] / args.runs:.2%}, "
          f"detection rate {counts['clustered'] / args.runs:.2%} -> {args.out}")


if __name__ == "__main__":
    main()
