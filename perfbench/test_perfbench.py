"""Tests of the benchmark itself, on tiny inputs (smoke mode).

    python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "tests")]

import run  # noqa: E402
import workloads  # noqa: E402
from oracles import brute_nms as repository_brute_nms  # noqa: E402
from palmpat import Box  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_match_the_harness():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in SPEC["end_to_end"]] == list(run.END_TO_END.values())
    layers = [f"{span}.{field}" for span, fields in run.LAYERS for field in fields]
    assert [m["name"] for m in SPEC["per_layer"]] == layers + list(run.TRACE_METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_smoke_runs_every_workload_traced_and_untraced():
    result = result_line(bench("--smoke", "--seconds", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for w in workloads.WORKLOADS:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][f"{w}/{m['name']}"]["value"] > 0
        for m in SPEC["per_layer"]:
            assert f"{w}/{m['name']}" in result["metrics"]
    assert result["metrics"]["fit-site/reproduction.simulate_reproduction.calls"]["value"] == 12
    assert result["metrics"]["merge-tiles/geometry.iou.calls"]["value"] > 0
    assert result["metrics"]["count-site/cli.read.rows"]["value"] > 0


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_one_workload_prints_the_result_line(trace, section):
    result = result_line(bench("--smoke", "--workload", "envelope-batch", "--seed", "3",
                               "--seconds", "0", "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC[section]]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "count-site", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_depend_only_on_the_seed(tmp_path):
    hashes = []
    for k, seed in enumerate((5, 5, 6)):
        w = workloads.MergeTiles(tmp_path / str(k), smoke=True)
        w.generate(seed)
        hashes.append(w.input_sha256())
    assert hashes[0] == hashes[1] != hashes[2]


def test_array_nms_oracle_equals_repository_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 80))
        lo = rng.uniform(0, 100, (n, 2))
        boxes = np.column_stack([lo, lo + rng.uniform(1, 25, (n, 2)),
                                 rng.integers(0, 5, n) / 4.0])  # many confidence ties
        threshold = float(rng.uniform(0.1, 0.9))
        kept = workloads.brute_nms(boxes, threshold)
        want = repository_brute_nms([Box(*b) for b in boxes.tolist()], threshold)
        assert kept.tolist() == [[b.x_min, b.y_min, b.x_max, b.y_max, b.confidence] for b in want]


def test_golden_holds_the_seeds_record_golden_writes():
    import record_golden

    golden = json.loads(workloads.GOLDEN_PATH.read_text())
    assert set(golden) == {workloads.MergeTiles.name, workloads.CountSite.name}
    for seeds in golden.values():
        assert sorted(int(s) for s in seeds) == list(record_golden.SEEDS)
