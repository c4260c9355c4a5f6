"""Smoke tests: each experiment script runs to completion on tiny inputs
and writes the files it promises."""
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def centres_csv(tmp_path):
    state = 99

    def draw(k):
        nonlocal state
        state = (1103515245 * state + 12345) % 2**31
        return (state >> 16) % k

    path = tmp_path / "centres.csv"
    path.write_text("x,y\n" + "".join(f"{draw(401)},{draw(301)}\n" for _ in range(80)))
    return path


def test_site_analysis_writes_every_output(centres_csv, tmp_path):
    out = tmp_path / "site"
    run_script("site_analysis.py", "--points", centres_csv, "--out-dir", out, "--skip-fit",
               "--m", 19, "--n-ref", 200, "--grid-steps", 20, cwd=tmp_path)
    expected = {f"{kind}_{stat}.csv" for kind in ("ripley", "envelope") for stat in "gfj"}
    expected |= {f"nn_{kind}_k{k}.csv" for kind in ("stats", "histogram") for k in (1, 5)}
    assert {p.name for p in out.iterdir()} == expected
    assert (out / "ripley_j.csv").read_text().splitlines()[0] == "d,value"


SITE_HASHES = {
    "envelope_f.csv": "d626bc6bd7a66ba3a8a6c60dfc649eb86e4b9c92b07ac3131547844a698391d6",
    "envelope_g.csv": "8370c9214483f75d65c608b509ce1ef8ce44ec48387dd1d4887e801e4fa854b9",
    "envelope_j.csv": "96061bfa8a8de61d657d694aeeb93944bfe447a2ef78cbd187dee57a4ee565f6",
    "fit_table.csv": "d33736a366faa69aafb2c75b40a2db563800862ff8be0b95db7bff8b6096c7d4",
    "nn_histogram_k1.csv": "63dce444bbe0bb588b77182e438a309500b077a3efdadaeb785a0853f6ffb799",
    "nn_histogram_k5.csv": "e4cacb708a54042cd5b351a988a4c0bd0d2a85f75c2adef949fd0e4917ffe882",
    "nn_stats_k1.csv": "6ed806e354a5b9a6716b5fb7fa8f315990f8e6fbae0edd711b2de6919b890cfc",
    "nn_stats_k5.csv": "a7da0fb21791a1b85ca813917618f1af82e63a470f6dbd309a2248b3f75708c4",
    "ripley_f.csv": "d59b1ddb755c15b9fa13cd87a2dec50c94db935969a53259503da1cea22f9b4f",
    "ripley_g.csv": "3ce921700d65aa4001ecfd85b0b6bd792e825e9415a5700d6336c1810e57d5eb",
    "ripley_j.csv": "e32b6aff9bc24b2b1565dbaaf357bd2e560277a3077ae6d236643c5f3de31453",
}


def test_site_analysis_with_fit_writes_golden_outputs(centres_csv, tmp_path):
    out = tmp_path / "site"
    stdout = run_script("site_analysis.py", "--points", centres_csv, "--out-dir", out,
                        "--m", 19, "--n-ref", 200, "--grid-steps", 20, "--trials", 2,
                        "--p", "0.4:0.6:0.2", "--sigma", "20:40:20", cwd=tmp_path)
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert hashes == SITE_HASHES
    assert "fit: p*=0.4 sigma*=40.0 d_min=7.069" in stdout


def test_csr_calibration_writes_one_row_per_run(tmp_path):
    out = tmp_path / "calibration.csv"
    stdout = run_script("csr_calibration.py", "--out", out, "--runs", 2, "--n", 60, "--m", 59,
                        cwd=tmp_path)
    rows = out.read_text().splitlines()
    assert rows[0] == "condition,pattern_seed,envelope_seed,rejected,min_p"
    assert [row.split(",")[0] for row in rows[1:]] == ["csr"] * 2 + ["clustered"] * 2
    assert "false-rejection rate" in stdout


def test_recovery_experiment_writes_one_row_per_seed(tmp_path):
    out = tmp_path / "recovery.csv"
    stdout = run_script("recovery_experiment.py", "--out", out, "--seeds", 2, "--n", 60,
                        "--side", 300, "--truth-sigma", 30, "--p", "0.4:0.6:0.2",
                        "--sigma", "20:40:20", "--trials", 1, "--n-ref", 200, cwd=tmp_path)
    rows = out.read_text().splitlines()
    assert rows[0] == ("obs_seed,fit_seed,p_star,sigma_star,d_min,hit,seconds," + ",".join(MARGINS))
    assert len(rows) == 3
    assert all(row.endswith(",,,,,,,") for row in rows[1:])  # the truth (0.5, 30) is no cell
    assert "recovered within one step in" in stdout
    record = json.loads(out.with_suffix(".json").read_text())
    assert list(record) == ["revision", "wall_s", "seeds", "hits", "wilson_95", "per_seed"]
    assert record["seeds"] == 2 and 0 <= record["hits"] <= 2 and record["wall_s"] >= 0
    assert [list(seed) for seed in record["per_seed"]] == [
        ["obs_seed", "p_star", "sigma_star", "hit", *MARGINS]] * 2
    assert all(seed[name] is None for seed in record["per_seed"] for name in MARGINS)
    assert [seed["obs_seed"] for seed in record["per_seed"]] == [100, 101]
    assert record["hits"] == sum(seed["hit"] for seed in record["per_seed"])
    assert record["revision"]


MARGINS = ["truth_rank", "truth_margin", "best_steps", "truth_g", "truth_f", "best_g", "best_f"]


def test_recovery_experiment_records_margins_when_the_truth_is_a_cell(tmp_path):
    # The script itself asserts that each replayed trial's G and F parts sum to
    # the fit table's d exactly; here the margins must agree with p* and sigma*.
    out = tmp_path / "recovery.csv"
    run_script("recovery_experiment.py", "--out", out, "--seeds", 3, "--n", 60, "--side", 300,
               "--truth-sigma", 30, "--p", "0.4:0.6:0.1", "--sigma", "20:40:10", "--trials", 2,
               "--n-ref", 200, cwd=tmp_path)
    seeds = json.loads(out.with_suffix(".json").read_text())["per_seed"]
    assert [seed["truth_rank"] for seed in seeds] == [1, 1, 4]
    for seed in seeds:
        steps = round(max(abs(seed["p_star"] - 0.5) / 0.1, abs(seed["sigma_star"] - 30) / 10))
        assert seed["best_steps"] == steps and seed["hit"] == (steps <= 1)
        assert (seed["truth_rank"] == 1) == (seed["truth_margin"] == 0.0) == (steps == 0)
        assert seed["truth_g"] + seed["truth_f"] == pytest.approx(
            seed["best_g"] + seed["best_f"] + seed["truth_margin"], rel=1e-12)
    assert seeds[2]["truth_margin"] == pytest.approx(4.507575757575758, rel=1e-12)


def test_wilson_interval():
    spec = importlib.util.spec_from_file_location("recovery_experiment",
                                                  SCRIPTS / "recovery_experiment.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.wilson(8, 10) == pytest.approx((0.4902, 0.9433), abs=1e-4)
    lo, hi = module.wilson(0, 10)
    assert lo == pytest.approx(0.0, abs=1e-12) and hi == pytest.approx(0.2775, abs=1e-4)
