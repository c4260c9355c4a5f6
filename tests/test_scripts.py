"""Smoke tests: each experiment script runs to completion on tiny inputs
and writes the files it promises."""
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
    assert rows[0] == "obs_seed,fit_seed,p_star,sigma_star,d_min,hit,seconds"
    assert len(rows) == 3
    assert "recovered within one step in" in stdout
