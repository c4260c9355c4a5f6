#!/usr/bin/env python3
"""Self-consistency study for the bimodal-model grid search.

Generates observed patterns from known (p, sigma), refits them over a
candidate grid, and reports how often the minimizer lands within one grid
step of the truth. Per-seed results go to a CSV for later inspection, and
a record of the run (each seed's p*, sigma* and hit, hits out of seeds with
a Wilson 95% interval, the git revision and the wall time) to a JSON file
with the CSV's name and a .json suffix.

Each seed also records how far the fit missed by, as margins behind the hit
bit: the truth cell's rank among all cells (1 is the best), d_total(truth) -
d_min, the best cell's Chebyshev distance from the truth in grid steps, and the
G and F parts of d_total for the truth cell and the best cell. The parts are
replayed through the public API with the fit's own seeds, and each trial's G and
F parts must sum to the fit table's d exactly. Margins are null when the truth
is not a candidate cell.

Example:
    python scripts/recovery_experiment.py --out results/recovery.csv --seeds 10
"""
import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np

from palmpat import (DistanceGrid, ReproductionParams, Window, f_function, fit, g_function,
                     simulate_reproduction, substream_seed, trapezoid_integrate)
from palmpat.cli import parse_range, write_csv
from palmpat.reproduction import DEFAULT_TRIALS

DEFAULT_TRUTH_P = 0.5
DEFAULT_TRUTH_SIGMA = 60.0
MARGINS = ["truth_rank", "truth_margin", "best_steps", "truth_g", "truth_f", "best_g", "best_f"]


def wilson(hits, n, z=1.959963984540054):
    """Wilson score interval for a binomial proportion (95% at the default z)."""
    centre = (hits + z * z / 2) / (n + z * z)
    half = z * math.sqrt(hits * (n - hits) / n + z * z / 4) / (n + z * z)
    return centre - half, centre + half


def cell_parts(observed, result, cell, n_sigmas, args, fit_seed):
    """The G and F parts of cell ``cell``'s d_total, replayed trial by trial as
    ``fit`` seeds them; each trial's parts must sum to the table's d exactly."""
    grid = DistanceGrid.default(observed.window)
    f_seed = substream_seed(fit_seed, 0)
    obs_g = g_function(observed, grid)
    obs_f = f_function(observed, grid, args.n_ref, f_seed)
    params = ReproductionParams(float(result.p[cell]), float(result.sigma[cell]))
    g_part = f_part = 0.0
    for t in range(args.trials):
        sim = simulate_reproduction(observed.window, len(observed), params,
                                    substream_seed(fit_seed, 1, *divmod(cell, n_sigmas), t))
        g = trapezoid_integrate(grid.values, np.abs(obs_g - g_function(sim, grid)))
        f = trapezoid_integrate(grid.values,
                                np.abs(obs_f - f_function(sim, grid, args.n_ref, f_seed)))
        if g + f != result.d[cell, t]:
            raise RuntimeError(f"cell {cell} trial {t}: replayed G + F = {g + f!r}, "
                               f"but the fit's d = {result.d[cell, t]!r}")
        g_part, f_part = g_part + g, f_part + f
    return g_part, f_part


def margins(observed, result, truth, p_cands, s_cands, args, fit_seed):
    """The seed's margins (see the module docstring), all None when the truth
    is not a candidate."""
    ip = [i for i, p in enumerate(p_cands) if abs(p - truth.p) <= 1e-9]
    js = [j for j, s in enumerate(s_cands) if abs(s - truth.sigma) <= 1e-9]
    if not (ip and js):
        return dict.fromkeys(MARGINS)
    k_truth, k_best = ip[0] * len(s_cands) + js[0], int(np.argmin(result.d_total))
    steps = max(abs(a - b) for a, b in zip(divmod(k_best, len(s_cands)),
                                            divmod(k_truth, len(s_cands))))
    truth_parts = cell_parts(observed, result, k_truth, len(s_cands), args, fit_seed)
    best_parts = (truth_parts if k_best == k_truth
                  else cell_parts(observed, result, k_best, len(s_cands), args, fit_seed))
    order = np.argsort(result.d_total, kind="stable").tolist()
    return dict(zip(MARGINS, [order.index(k_truth) + 1,
                              float(result.d_total[k_truth]) - result.d_min, steps,
                              *truth_parts, *best_parts]))


def revision():
    """The checkout's git revision, marked -dirty when it has local changes."""
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                              cwd=REPO, capture_output=True, text=True)
    except OSError:  # no git
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def build_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="per-seed results CSV")
    ap.add_argument("--truth-p", type=float, default=DEFAULT_TRUTH_P)
    ap.add_argument("--truth-sigma", type=float, default=DEFAULT_TRUTH_SIGMA)
    ap.add_argument("--side", type=float, default=3000.0, help="square window side")
    ap.add_argument("--n", type=int, default=1500, help="points per pattern")
    ap.add_argument("--p", default="0.30:0.70:0.05")
    ap.add_argument("--sigma", default="40:80:10")
    ap.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    ap.add_argument("--n-ref", type=int, default=8000)
    ap.add_argument("--seeds", type=int, default=10, help="number of master seeds")
    ap.add_argument("--seed-base", type=int, default=100)
    return ap.parse_args()


def main():
    args = build_args()
    window = Window(0.0, 0.0, args.side, args.side)
    truth = ReproductionParams(args.truth_p, args.truth_sigma)
    p_cands = parse_range(args.p)
    s_cands = parse_range(args.sigma)
    p_step = p_cands[1] - p_cands[0] if len(p_cands) > 1 else 0.0
    s_step = s_cands[1] - s_cands[0] if len(s_cands) > 1 else 0.0

    rows = []
    hits = 0
    start = time.perf_counter()
    for i in range(args.seeds):
        obs_seed = args.seed_base + i
        fit_seed = args.seed_base + 100 + i
        t0 = time.perf_counter()
        observed = simulate_reproduction(window, args.n, truth, seed=obs_seed)
        result = fit(observed, p_cands, s_cands, n_trials=args.trials,
                     n_ref=args.n_ref, seed=fit_seed)
        elapsed = time.perf_counter() - t0
        hit = (abs(result.best.p - truth.p) <= p_step + 1e-9
               and abs(result.best.sigma - truth.sigma) <= s_step + 1e-9)
        hits += hit
        margin = margins(observed, result, truth, p_cands, s_cands, args, fit_seed)
        rows.append([obs_seed, fit_seed, result.best.p, result.best.sigma,
                     result.d_min, int(hit), round(elapsed, 2), margin])
        print(f"seed {obs_seed}: p*={result.best.p} sigma*={result.best.sigma} "
              f"hit={bool(hit)} rank={margin['truth_rank']} ({elapsed:.1f}s)")

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_csv(args.out,
              ["obs_seed", "fit_seed", "p_star", "sigma_star", "d_min", "hit", "seconds",
               *MARGINS],
              [row[:-1] + ["" if v is None else v for v in row[-1].values()] for row in rows])
    record = {
        "revision": revision(),
        "wall_s": round(time.perf_counter() - start, 1),
        "seeds": args.seeds,
        "hits": hits,
        "wilson_95": [round(bound, 4) for bound in wilson(hits, args.seeds)],
        "per_seed": [{"obs_seed": row[0], "p_star": row[2], "sigma_star": row[3],
                      "hit": bool(row[5]), **row[-1]} for row in rows],
    }
    record_path = Path(args.out).with_suffix(".json")
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"recovered within one step in {hits}/{args.seeds} seeds -> {args.out}, {record_path}")


if __name__ == "__main__":
    main()
