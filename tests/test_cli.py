import argparse
import hashlib
import importlib
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import palmpat.cli
from palmpat import (
    DistanceGrid,
    FitResult,
    InvalidInputError,
    ReproductionParams,
    Window,
    envelope,
    fit,
    match_counts,
    simulate_csr,
)
from palmpat._pool import map_tasks
from palmpat.cli import _read_rows, main, parse_points_csv, parse_range
from oracles import assert_same_fit


def write(path, text):
    """Write ``text`` as UTF-8, or ``bytes`` as they are."""
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def points_csv(tmp_path):
    rng = np.random.default_rng(31)
    coords = rng.uniform(0, 50, size=(40, 2))
    lines = ["x,y"] + [f"{x},{y}" for x, y in coords]
    return write(tmp_path / "pts.csv", "\n".join(lines) + "\n")


# ---------------------------------------------------------------- parsing helpers


def test_parse_range_inclusive_endpoints():
    assert parse_range("0.3:0.7:0.05") == [0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7]
    assert parse_range("40:80:10") == [40.0, 50.0, 60.0, 70.0, 80.0]
    assert parse_range("0.5") == [0.5]


def test_parse_range_rejects_bad_specs():
    for bad in ("1:2", "a:b:c", "1:0:1", "0:1:0", "0:inf:0.1", "nan:1:0.1", "0:1:nan",
                "-inf:0:1", "0:1:inf", "nan", "0:1e308:1e-300", "0:1:1e-300",
                "0:1e-12:1e-13", "1e-14:5e-14:1e-14"):
        with pytest.raises(InvalidInputError):
            parse_range(bad)


def test_fit_rejects_range_that_rounds_to_repeats(points_csv, tmp_path, capsys):
    code = main(["fit", "--points", points_csv, "--p", "0.5", "--sigma", "1e-14:5e-14:1e-14",
                 "--out-dir", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: range '1e-14:5e-14:1e-14' repeats values at 12-decimal rounding\n"
    )


def test_parse_range_caps_the_value_count():
    assert len(parse_range("0:9999:1")) == 10_000
    with pytest.raises(InvalidInputError, match="more than 10000 values"):
        parse_range("0:10000:1")


def test_fit_rejects_non_finite_range(points_csv, tmp_path, capsys):
    code = main(["fit", "--points", points_csv, "--p", "0:inf:0.1", "--sigma", "3",
                 "--out-dir", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == "error: range values must be finite, got '0:inf:0.1'\n"


def test_parse_points_roundtrip(tmp_path):
    path = write(tmp_path / "p.csv", "x,y\n0,0\n3,4\n")
    pattern = parse_points_csv(path)
    assert len(pattern) == 2
    assert pattern.coords.tolist() == [[0.0, 0.0], [3.0, 4.0]]


def test_parse_points_scales_units(tmp_path):
    path = write(tmp_path / "p.csv", "x,y\n0,0\n20,40\n")
    pattern = parse_points_csv(path, units_per_meter=20.0)
    assert pattern.coords.tolist() == [[0.0, 0.0], [1.0, 2.0]]
    pattern = parse_points_csv(path, 20.0, (-20.0, 0.0, 40.0, 60.0))
    assert pattern.window == Window(-1.0, 0.0, 2.0, 3.0)


def test_parse_points_header_only_is_error(tmp_path):
    path = write(tmp_path / "p.csv", "x,y\n")
    with pytest.raises(InvalidInputError):
        parse_points_csv(path)


def test_parse_points_malformed_row_names_line(tmp_path):
    path = write(tmp_path / "p.csv", "x,y\n1,2\noops,3\n")
    with pytest.raises(InvalidInputError, match=":3:"):
        parse_points_csv(path)


def test_parse_points_degenerate_bbox_needs_window(tmp_path):
    path = write(tmp_path / "p.csv", "x,y\n1,1\n1,2\n")
    with pytest.raises(InvalidInputError, match="--window"):
        parse_points_csv(path)


# Every outcome of the CSV reader, with the result or message the
# line-by-line reader gave before it parsed whole files at once; Python's
# float() also reads PEP 515 underscores and non-ASCII digits, which the
# reader refuses in both of its passes.
READ_CASES = {
    "bom": ("\ufeffx,y\n1,2\n", [[1.0, 2.0]]),
    "blank_lines": ("x,y\n\n1,2\n   \n3,4\n\n", [[1.0, 2.0], [3.0, 4.0]]),
    "whitespace": (" x,y \n 1 , 2 \n\t3,\t4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "crlf": ("x,y\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    "field_count": ("x,y\n1,2\n3\n", "{path}:3: expected 2 fields, got 1"),
    "extra_field": ("x,y\n1,2\n3,4,5\n", "{path}:3: expected 2 fields, got 3"),
    "fields_even_out": ("x,y\n1\n2,3,4\n", "{path}:2: expected 2 fields, got 1"),
    "non_numeric": ("x,y\n1,2\noops,3\n", "{path}:3: non-numeric field in 'oops,3'"),
    "empty_field": ("x,y\n1,\n", "{path}:2: non-numeric field in '1,'"),
    "first_bad_line_wins": ("x,y\n1,2\noops,3\n4\n",
                            "{path}:3: non-numeric field in 'oops,3'"),
    "nan": ("x,y\n1,2\nnan,3\n", "{path}:3: non-finite value in 'nan,3'"),
    "inf": ("x,y\n1,2\n3,-inf\n", "{path}:3: non-finite value in '3,-inf'"),
    "overflow": ("x,y\n1e999,2\n", "{path}:2: non-finite value in '1e999,2'"),
    "underscore": ("x,y\n1_000,2\n3,4\n5,1\n", "{path}:2: non-numeric field in '1_000,2'"),
    "arabic_digit": ("x,y\n1,2\n3,\u0664\n", "{path}:3: non-numeric field in '3,\u0664'"),
    "fullwidth_digit": ("x,y\n\uff11,2\n", "{path}:2: non-numeric field in '\uff11,2'"),
    "header_only": ("x,y\n", "{path}: no data rows"),
    "header_and_blanks": ("x,y\n\n  \n", "{path}: no data rows"),
    "empty_file": ("", "{path}: empty file"),
    "wrong_header": ("a,b\n1,2\n", "{path}: expected header 'x,y', got 'a,b'"),
    "not_utf8": (b"x,y\n\xff,2\n", "cannot read {path}: 'utf-8' codec can't decode byte 0xff "
                 "in position 4: invalid start byte"),
}


@pytest.mark.parametrize("case", sorted(READ_CASES))
def test_read_rows_outcomes(case, tmp_path):
    text, expected = READ_CASES[case]
    path = write(tmp_path / "p.csv", text)
    if isinstance(expected, list):
        rows = _read_rows(path, "x,y")
        assert rows.tolist() == expected
        assert len(rows) == len(expected)
    else:
        with pytest.raises(InvalidInputError) as info:
            _read_rows(path, "x,y")
        assert str(info.value) == expected.format(path=path)


# ---------------------------------------------------------------- exit codes


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(points_csv, capsys):
    assert main(["ripley", "--points", points_csv, "--stat", "g", "--bogus"]) == 2
    capsys.readouterr()


def test_missing_file_is_data_error(tmp_path, capsys):
    code = main(["ripley", "--points", str(tmp_path / "absent.csv"), "--stat", "g",
                 "--out-dir", str(tmp_path)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_malformed_csv_is_data_error(tmp_path, capsys):
    path = write(tmp_path / "bad.csv", "x,y\n1,2\n3\n")
    code = main(["ripley", "--points", path, "--stat", "g", "--out-dir", str(tmp_path)])
    assert code == 3
    assert ":3:" in capsys.readouterr().err


def test_non_utf8_csv_is_data_error(tmp_path, capsys):
    path = write(tmp_path / "bad.csv", b"x,y\n1,2\n\xff\xfe,3\n")
    code = main(["ripley", "--points", path, "--stat", "g", "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: cannot read {path}: 'utf-8' "
                                                  "codec can't decode byte 0xff in position 8: "
                                                  "invalid start byte\n")


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 149. GiB for an array with shape (10000000000, 2)"),
     "Unable to allocate 149. GiB for an array with shape (10000000000, 2)"),
    (MemoryError(), "out of memory"),
])
def test_memory_error_is_one_line_data_error(exc, message, points_csv, tmp_path, capsys,
                                              monkeypatch):
    def exhausted(*args, **kwargs):
        raise exc
    monkeypatch.setattr(palmpat.cli, "statistic_curve", exhausted)
    code = main(["ripley", "--points", points_csv, "--stat", "f",
                 "--window", "0", "0", "50", "50", "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")


TEST_PID = os.getpid()


def _exit_in_worker(task):
    """Kill the process it runs in, unless that is the test process itself."""
    if os.getpid() != TEST_PID:
        os._exit(1)
    raise AssertionError("ran in the test process, not in a pool worker")


def _worker_pid(task):
    time.sleep(0.02)  # long enough for every worker to take a task
    return os.getpid()


def _parent_pid(task):
    return os.getppid()


def _refuse_odd(task):
    if task % 2:
        raise InvalidInputError(f"task {task} is odd")
    return os.getpid()


def test_crashed_worker_breaks_the_pool(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "2")
    with pytest.raises(BrokenProcessPool):
        map_tasks(_exit_in_worker, [0, 1])
    # the broken pool is dropped, and the next call starts a new one
    workers = set(map_tasks(_worker_pid, range(8)))
    assert len(workers) == 2 and TEST_PID not in workers


def test_consecutive_calls_run_on_the_same_forked_workers(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "2")
    workers = set(map_tasks(_worker_pid, range(8)))
    assert len(workers) == 2 and TEST_PID not in workers
    assert set(map_tasks(_worker_pid, range(8))) == workers
    assert set(map_tasks(_parent_pid, range(4))) == {TEST_PID}


def test_a_new_worker_count_replaces_the_pool(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "2")
    old = set(map_tasks(_worker_pid, range(8)))
    monkeypatch.setenv("PALMPAT_THREADS", "3")
    new = set(map_tasks(_worker_pid, range(12)))
    assert len(new) == 3 and new.isdisjoint(old)
    assert old.isdisjoint(p.pid for p in multiprocessing.active_children())
    # the old pool's threads were joined first, so the new workers were forked
    assert set(map_tasks(_parent_pid, range(6))) == {TEST_PID}


def test_a_failing_task_leaves_the_pool_usable(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "2")
    workers = set(map_tasks(_worker_pid, range(8)))
    with pytest.raises(InvalidInputError, match="^task 1 is odd$"):
        map_tasks(_refuse_odd, range(4))
    assert set(map_tasks(_worker_pid, range(8))) == workers


def _envelope_f_and_fit_bytes():
    window = Window(0.0, 0.0, 50.0, 50.0)
    pattern = simulate_csr(window, 40, seed=8)
    grid = DistanceGrid.default(window, 15)
    env = envelope(pattern, grid, "F", m=19, seed=5, n_ref=200)
    result = fit(pattern, [0.3, 0.6], [4.0, 8.0], 2, grid, 200, seed=6)
    arrays = (env.observed, env.sim_mean, env.lo95, env.hi95, env.p_values, result.d)
    return b"".join(a.tobytes() for a in arrays)


def test_a_live_thread_makes_the_pool_start_by_forkserver(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    serial = _envelope_f_and_fit_bytes()
    pool_module = importlib.import_module("palmpat._pool")
    pool_module._shutdown()  # so that the next pool starts while the thread runs
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        monkeypatch.setenv("PALMPAT_THREADS", "2")
        assert _envelope_f_and_fit_bytes() == serial
        # forkserver workers are children of the fork server, not of this process
        assert TEST_PID not in set(map_tasks(_parent_pid, range(4)))
    finally:
        stop.set()
        thread.join(timeout=10)
        pool_module._shutdown()
    assert not thread.is_alive()


def test_a_forked_child_neither_reuses_nor_shuts_down_the_parent_pool(monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "2")
    pool_module = importlib.import_module("palmpat._pool")
    workers = set(map_tasks(_worker_pid, range(8)))
    read, write = os.pipe()
    with warnings.catch_warnings():  # 3.12+ warns on forking while the pool's threads run
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:  # map_tasks forgets the inherited pool; _shutdown is the exit hook
            own = sorted(set(map_tasks(_worker_pid, range(8))))
            pool_module._shutdown()
            os.write(write, " ".join(map(str, own)).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    with os.fdopen(read) as pipe:
        child_workers = {int(w) for w in pipe.read().split()}
    assert done[0] == pid, "the forked child hung"
    assert os.waitstatus_to_exitcode(done[1]) == 0
    assert len(child_workers) == 2 and child_workers.isdisjoint(workers | {pid})
    assert set(map_tasks(_worker_pid, range(8))) == workers


def test_crashed_worker_is_one_line_data_error(points_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "2")
    argv = ["envelope", "--points", points_csv, "--stat", "g", "--m", "19",
            "--grid-steps", "10", "--out-dir", str(tmp_path)]
    with monkeypatch.context() as patch:
        # the package's ``envelope`` attribute is the function, not the module
        patch.setattr(importlib.import_module("palmpat.envelope"), "_sim_curve",
                      _exit_in_worker)
        code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert main(argv) == 0  # the same process runs the next call on a new pool
    capsys.readouterr()


MERGE_AND_COUNT_RUN = """
import sys
from pathlib import Path
from palmpat.cli import main
out = Path(sys.argv[1])
(out / "detections.csv").write_text("tile_row,tile_col,x_min,y_min,x_max,y_max,confidence\\n"
                                    "0,0,10,10,30,30,0.9\\n0,1,0,12,20,28,0.8\\n"
                                    "2,2,5,5,15,15,0.7\\n")
(out / "labeled.csv").write_text("x,y\\n20,20\\n31,29\\n60,60\\n")
assert main(["merge", "--detections", str(out / "detections.csv"), "--patch-size", "40",
             "--stride", "10", "--iou", "0.3", "--out-dir", str(out)]) == 0
assert main(["count", "--detected", str(out / "merged_centers.csv"),
             "--labeled", str(out / "labeled.csv"), "--out-dir", str(out)]) == 0
"""

SCIPY_FREE_RUN = """
import sys
import palmpat.cli
from palmpat import (DistanceGrid, ReproductionParams, Window, envelope, fit, j_function,
                     simulate_csr, simulate_reproduction)
window = Window(0.0, 0.0, 100.0, 100.0)
pattern = simulate_csr(window, 60, seed=1)
grid = DistanceGrid.default(window, 20)
j_function(pattern, grid, 200, seed=2)  # G and F too
envelope(pattern, grid, "F", m=19, seed=3, n_ref=200)
observed = simulate_reproduction(window, 60, ReproductionParams(0.5, 8.0), seed=4)
fit(observed, [0.3, 0.6], [5.0, 10.0], 2, grid, 200, seed=5)
wide = Window(0.0, 0.0, 1000.0, 1000.0)  # G of tight clusters refines the kernel's grid
clustered = simulate_reproduction(wide, 500, ReproductionParams(0.9, 10.0), seed=1)
envelope(clustered, DistanceGrid.default(wide), "G", m=19, seed=7)
""" + MERGE_AND_COUNT_RUN + """
assert "scipy" not in sys.modules, "scipy was imported"
"""


def _run_python(tmp_path, *args):
    """``python *args`` in ``tmp_path`` on this checkout's package, with 2 pool workers."""
    src = Path(palmpat.cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PALMPAT_THREADS": "2"}
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_the_statistics_and_the_cli_import_no_scipy_while_the_library_loads(tmp_path):
    if importlib.import_module("palmpat._native").load() is None:
        pytest.skip("the compiled library cannot be built on this host")
    proc = _run_python(tmp_path, "-c", SCIPY_FREE_RUN, str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_cli_merge_and_count_run_where_scipy_cannot_be_imported(tmp_path):
    """merge and count need no scipy, whether or not the compiled library loads."""
    proc = _run_python(tmp_path, "-c", "import sys\nsys.modules['scipy'] = None\n"
                       + MERGE_AND_COUNT_RUN, str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "n_matched,2\n" in (tmp_path / "count_report.csv").read_text()
    assert len((tmp_path / "merged_boxes.csv").read_text().splitlines()) == 3


def test_the_palmpat_command_runs_end_to_end(tmp_path):
    """Every subcommand in its own process, each output feeding the next, then the
    two refusals: on the kernel where the compiled library loads, else on the tree."""
    write(tmp_path / "detections.csv", "tile_row,tile_col,x_min,y_min,x_max,y_max,confidence\n"
                                       "0,0,10,10,30,30,0.9\n0,1,0,12,20,28,0.8\n")
    write(tmp_path / "bad.csv", b"x,y\n1,2\n\xff\xfe,3\n")
    points, window = ["--points", "simulated_points.csv"], ["--window", "0", "0", "100", "100"]
    steps = [
        (["simulate", "--n", "200", *window, "--seed", "1"], ["simulated_points.csv"]),
        (["ripley", *points, "--stat", "g", *window], ["ripley_g.csv"]),
        (["ripley", *points, "--stat", "f", *window], ["ripley_f.csv"]),
        (["nn-stats", *points, "--k", "5"], ["nn_stats.csv", "nn_histogram.csv"]),
        (["merge", "--detections", "detections.csv", "--patch-size", "40", "--stride", "10"],
         ["merged_boxes.csv", "merged_centers.csv"]),
        (["count", "--detected", "merged_centers.csv", "--labeled", "simulated_points.csv"],
         ["count_report.csv"]),
        (["envelope", *points, "--stat", "g", "--m", "19"], ["envelope_g.csv"]),
        (["envelope", *points, "--stat", "j", "--m", "19"], ["envelope_j.csv"]),
        (["fit", *points, "--p", "0.2:0.6:0.4", "--sigma", "5", "--trials", "2"],
         ["fit_table.csv"]),
    ]
    fallback = importlib.import_module("palmpat._native").load() is None
    for argv, outputs in steps:
        proc = _run_python(tmp_path, "-m", "palmpat.cli", *argv)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert all((tmp_path / name).stat().st_size for name in outputs), argv
        if argv[0] == "ripley":  # G and F load the library, and say so where it cannot load
            assert ("compiled library unavailable" in proc.stderr) == fallback, proc.stderr
    proc = _run_python(tmp_path, "-m", "palmpat.cli", "ripley", *points, "--stat", "g", "--svg")
    assert (proc.returncode, proc.stdout) == (2, "")
    proc = _run_python(tmp_path, "-m", "palmpat.cli", "ripley", "--points", "bad.csv",
                       "--stat", "g")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def _no_pool(workers):
    raise AssertionError(f"a pool of {workers} workers was started")


@pytest.mark.parametrize("threads, message", [
    ("abc", "PALMPAT_THREADS must be an integer, got 'abc'"),
    ("-1", "PALMPAT_THREADS must be an integer >= 0, got -1"),
    ("257", "PALMPAT_THREADS must be at most 256, got 257"),
])
@pytest.mark.parametrize("argv", [
    ["envelope", "--stat", "g", "--m", "19"],
    ["fit", "--p", "0.5", "--sigma", "2", "--trials", "2"],
])
def test_bad_thread_count_is_data_error(argv, threads, message, points_csv, tmp_path, capsys,
                                        monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", threads)
    monkeypatch.setattr(importlib.import_module("palmpat._pool"), "_pool", _no_pool)
    code = main([*argv, "--points", points_csv, "--window", "0", "0", "50", "50",
                 "--grid-steps", "10", "--n-ref", "100", "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")


def _not_before_the_cap(*args):
    raise AssertionError("a seed was derived before the task cap was checked")


@pytest.mark.parametrize("argv, what", [
    (["fit", "--p", "0.5", "--sigma", "2", "--trials", "1000001"], "fit task count"),
    (["envelope", "--stat", "g", "--m", "1000001"], "m"),
])
def test_task_cap_is_one_line_data_error(argv, what, points_csv, tmp_path, capsys, monkeypatch):
    for module in ("palmpat.reproduction", "palmpat.envelope"):
        monkeypatch.setattr(importlib.import_module(module), "substream_seed",
                            _not_before_the_cap)
    code = main([*argv, "--points", points_csv, "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    message = f"error: {what} must be at most 1000000, got 1000001\n"
    assert (code, captured.out, captured.err) == (3, "", message)


@pytest.mark.parametrize("side", ["1e160", "1e-160"])
@pytest.mark.parametrize("argv", [
    ["ripley", "--stat", "g"],
    ["ripley", "--stat", "f"],
    ["envelope", "--stat", "j", "--m", "19"],
    ["fit", "--p", "0.5", "--sigma", "2", "--trials", "2"],
    ["nn-stats", "--k", "1"],
], ids=["ripley-g", "ripley-f", "envelope", "fit", "nn-stats"])
def test_window_outside_the_distance_scale_is_one_line_data_error(argv, side, tmp_path,
                                                                  capsys, nn_path):
    s = float(side)
    points = write(tmp_path / "pts.csv", f"x,y\n0,0\n{s},{s}\n{s / 2},{s / 4}\n")
    window = ["--window", "0", "0", side, side]
    code = main([*argv, "--points", points, *window, "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (f"error: window sides ({s}, {s}) lie outside [1e-150, 1e150]; "
                            "rescale the coordinates\n")
    assert main(["simulate", "--n", "20", *window, "--out-dir", str(tmp_path / "sim")]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------- subcommands


def test_ripley_curve_schema_and_determinism(points_csv, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["ripley", "--points", points_csv, "--stat", "g", "--grid-steps", "20",
            "--out-dir", str(out)]
    assert main(argv) == 0
    first = (out / "ripley_g.csv").read_bytes()
    assert main(argv) == 0
    assert (out / "ripley_g.csv").read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[0] == "d,value"
    assert len(lines) == 21
    capsys.readouterr()


def test_ripley_j_curve_handles_undefined(points_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["ripley", "--points", points_csv, "--stat", "j", "--grid-steps", "15",
                 "--grid-max", "80", "--n-ref", "200", "--seed", "3",
                 "--out-dir", str(out)]) == 0
    body = (out / "ripley_j.csv").read_text().splitlines()[1:]
    assert any(line.endswith("nan") for line in body)
    capsys.readouterr()


def test_envelope_schema_and_thread_invariance(points_csv, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    argv = ["envelope", "--points", points_csv, "--stat", "g", "--m", "19",
            "--grid-steps", "15", "--seed", "5", "--out-dir", str(out)]
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    assert main(argv) == 0
    single = (out / "envelope_g.csv").read_bytes()
    monkeypatch.setenv("PALMPAT_THREADS", "2")
    assert main(argv) == 0
    assert (out / "envelope_g.csv").read_bytes() == single
    assert single.decode().splitlines()[0] == "d,observed,mean,lo95,hi95,p"
    capsys.readouterr()


def test_simulate_csr_and_reproduction(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--n", "25", "--window", "0", "0", "40", "40",
                 "--seed", "2", "--out-dir", str(out)]) == 0
    rows = (out / "simulated_points.csv").read_text().splitlines()
    assert rows[0] == "x,y"
    assert len(rows) == 26
    coords = np.array([r.split(",") for r in rows[1:]], dtype=float)
    assert coords.min() >= 0.0 and coords.max() <= 40.0

    assert main(["simulate", "--n", "25", "--window", "0", "0", "40", "40",
                 "--p", "0.9", "--sigma", "1.5", "--seed", "2", "--out-dir", str(out)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("extra", [[], ["--p", "0.5", "--sigma", "1"]])
def test_simulate_rejects_overflowing_window(extra, tmp_path, capsys):
    code = main(["simulate", "--n", "10", "--window", " -1e308", "0", "1e308", "1",
                 *extra, "--out-dir", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: window width and height must be finite, got (-1e+308, 0.0, 1e+308, 1.0)\n"
    )
    assert not (tmp_path / "simulated_points.csv").exists()


# Values in exponent form that start with '-' are numbers, not options: each
# command gives the same bytes as with the ' -3e7' spelling argparse accepts.
NEGATIVE_EXPONENT_CASES = {
    "simulate_window": (["simulate", "--n", "3", "--window", "{v}", "0", "1", "1"],
                        "simulated_points.csv"),
    "ripley_window": (["ripley", "--points", "{points}", "--stat", "g",
                       "--window", "{v}", "{v}", "60", "60"], "ripley_g.csv"),
    "merge_origin": (["merge", "--detections", "{det}", "--origin", "0", "{v}"],
                     "merged_boxes.csv"),
}


@pytest.mark.parametrize("case", list(NEGATIVE_EXPONENT_CASES))
def test_negative_exponent_values_parse(case, points_csv, tmp_path, capsys):
    argv, name = NEGATIVE_EXPONENT_CASES[case]
    det = write(tmp_path / "det.csv",
                "tile_row,tile_col,x_min,y_min,x_max,y_max,confidence\n0,0,10,10,30,30,0.9\n")
    outputs = []
    for value, out in (("-3e7", tmp_path / "a"), (" -3e7", tmp_path / "b")):
        args = [a.format(v=value, points=points_csv, det=det) for a in argv]
        assert main([*args, "--out-dir", str(out)]) == 0
        outputs.append((out / name).read_bytes())
    assert outputs[0] == outputs[1]
    if case == "merge_origin":
        assert outputs[0].decode().splitlines()[1] == "10.0,-29999990.0,30.0,-29999970.0,0.9"
    capsys.readouterr()


# Negative infinities and NaN are numbers too, so they reach the library's
# finiteness checks; a word that only starts like one ("-info") is an option.
@pytest.mark.parametrize("argv, message", [
    (["simulate", "--n", "3", "--window", "-inf", "0", "1", "1"],
     "window x_min must be finite, got -inf"),
    (["simulate", "--n", "3", "--window", "-Infinity", "0", "1", "1"],
     "window x_min must be finite, got -inf"),
    (["simulate", "--n", "3", "--window", "-nan", "0", "1", "1"],
     "window x_min must be finite, got nan"),
    (["merge", "--detections", "{det}", "--origin", "0", "-inf"],
     "origin must be finite, got -inf"),
])
def test_negative_non_finite_values_are_data_errors(argv, message, tmp_path, capsys):
    det = write(tmp_path / "det.csv",
                "tile_row,tile_col,x_min,y_min,x_max,y_max,confidence\n0,0,10,10,30,30,0.9\n")
    code = main([a.format(det=det) for a in argv] + ["--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")


def test_option_like_word_is_not_a_number(tmp_path, capsys):
    code = main(["simulate", "--n", "3", "--window", "-info", "0", "1", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "expected 4 arguments" in capsys.readouterr().err


def test_simulate_requires_both_p_and_sigma(tmp_path, capsys):
    code = main(["simulate", "--n", "5", "--window", "0", "0", "1", "1",
                 "--p", "0.5", "--out-dir", str(tmp_path)])
    assert code == 3
    capsys.readouterr()


def test_fit_cli_matches_library(points_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fit", "--points", points_csv, "--p", "0.2:0.6:0.2",
                 "--sigma", "3:6:3", "--trials", "2", "--grid-steps", "15",
                 "--n-ref", "150", "--seed", "7", "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    best = re.fullmatch(r"p\*=(\S+) sigma\*=(\S+) d_min=(\S+)", stdout.splitlines()[-1])
    assert best

    pattern = parse_points_csv(points_csv)
    grid = DistanceGrid.default(pattern.window, 15)
    expected = fit(pattern, [0.2, 0.4, 0.6], [3.0, 6.0], n_trials=2, grid=grid,
                   n_ref=150, seed=7)
    lines = (out / "fit_table.csv").read_text().splitlines()
    assert lines[0] == "p,sigma,d_total,d_1,d_2"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    p_star, sigma_star, d_min = map(float, best.groups())
    written = FitResult(ReproductionParams(p_star, sigma_star), d_min, rows[:, 0], rows[:, 1],
                        rows[:, 3:], rows[:, 2])
    assert_same_fit(written, expected)


def test_merge_known_offsets(tmp_path, capsys):
    det = write(
        tmp_path / "det.csv",
        "tile_row,tile_col,x_min,y_min,x_max,y_max,confidence\n"
        "0,0,10,10,30,30,0.9\n"
        "0,1,0,12,20,28,0.8\n"   # tile (0,1) with stride 10 -> overlaps the first box
        "2,2,5,5,15,15,0.7\n",
    )
    out = tmp_path / "out"
    assert main(["merge", "--detections", det, "--patch-size", "40", "--stride", "10",
                 "--iou", "0.3", "--out-dir", str(out)]) == 0
    boxes = (out / "merged_boxes.csv").read_text().splitlines()
    assert boxes[0] == "x_min,y_min,x_max,y_max,confidence"
    # box 2 maps to (10,12,30,28): IoU with box 1 = 320/400 >= 0.3, suppressed
    assert len(boxes) == 3
    centers = (out / "merged_centers.csv").read_text().splitlines()
    assert centers[0] == "x,y"
    assert centers[1] == "20.0,20.0"
    assert centers[2] == "30.0,30.0"
    capsys.readouterr()


def test_merge_global_mode(tmp_path, capsys):
    det = write(tmp_path / "det.csv",
                "x_min,y_min,x_max,y_max,confidence\n0,0,10,10,0.5\n0,0,10,10,0.6\n")
    out = tmp_path / "out"
    assert main(["merge", "--detections", det, "--global", "--out-dir", str(out)]) == 0
    boxes = (out / "merged_boxes.csv").read_text().splitlines()
    assert len(boxes) == 2
    assert boxes[1].endswith("0.6")
    capsys.readouterr()


_TILED = "tile_row,tile_col,x_min,y_min,x_max,y_max,confidence\n"
_GLOBAL = "x_min,y_min,x_max,y_max,confidence\n"
_LAYOUT = ["--patch-size", "100", "--stride", "50"]
_AREA = "box must have positive area, got "
_INTEGER = "tile indices must be integers, got "

# (detections file, options, stderr after "error: "), recorded before boxes
# became arrays; since then the tile-index message has lost its "<path>: "
# prefix, and a tile offset that overflows, then a traceback, was added.
# When several rows are bad, every row is checked for non-integer tiles, zero
# area and confidence before any row is checked for negative tiles and the
# patch extent.
MERGE_ERRORS = {
    "non_integer_tile": (_TILED + "0,0,1,1,2,2,0.5\n0.5,0,1,1,2,2,0.5\n", _LAYOUT,
                         _INTEGER + "(0.5, 0.0)"),
    "negative_tile": (_TILED + "0,0,1,1,2,2,0.5\n0,-1,1,1,2,2,0.5\n", _LAYOUT,
                      "tile indices must be nonnegative, got (0, -1)"),
    "outside_patch": (_TILED + "1,2,10,10,120,40,0.5\n", _LAYOUT,
                      "box Box(x_min=10.0, y_min=10.0, x_max=120.0, y_max=40.0, confidence=0.5)"
                      " exceeds the 100x100 patch extent of tile (1, 2)"),
    "zero_area_tiled": (_TILED + "0,0,1,1,1,2,0.5\n", _LAYOUT, _AREA + "(1.0, 1.0, 1.0, 2.0)"),
    "zero_area_global": (_GLOBAL + "0,0,1,1,0.5\n0,0,0,1,0.5\n", ["--global"],
                         _AREA + "(0.0, 0.0, 0.0, 1.0)"),
    "confidence_tiled": (_TILED + "0,0,1,1,2,2,1.5\n", _LAYOUT,
                         "confidence must be in [0, 1], got 1.5"),
    "confidence_global": (_GLOBAL + "0,0,1,1,-0.25\n", ["--global"],
                          "confidence must be in [0, 1], got -0.25"),
    "non_integer_before_zero_area": (_TILED + "0,0.5,1,1,2,2,0.5\n0,0,1,1,1,2,0.5\n", _LAYOUT,
                                     _INTEGER + "(0.0, 0.5)"),
    "zero_area_before_non_integer": (_TILED + "0,0,1,1,2,1,0.5\n0,0.5,1,1,2,2,0.5\n", _LAYOUT,
                                     _AREA + "(1.0, 1.0, 2.0, 1.0)"),
    "zero_area_beats_earlier_negative": (
        _TILED + "0,0,1,1,2,2,0.5\n-1,0,1,1,2,2,0.5\n0,0,1,1,1,2,0.5\n", _LAYOUT,
        _AREA + "(1.0, 1.0, 1.0, 2.0)"),
    "extent_before_negative": (_TILED + "0,0,1,1,200,2,0.5\n-1,0,1,1,2,2,0.5\n", _LAYOUT,
                               "box Box(x_min=1.0, y_min=1.0, x_max=200.0, y_max=2.0,"
                               " confidence=0.5) exceeds the 100x100 patch extent of tile (0, 0)"),
    "zero_area_before_iou": (_GLOBAL + "0,0,0,1,0.5\n", ["--global", "--iou", "0"],
                             _AREA + "(0.0, 0.0, 0.0, 1.0)"),
    "origin_rounds_to_zero_area": (_TILED + "0,0,0,0,1,1,0.5\n", ["--origin", "1e17", "0"],
                                   _AREA + "(1e+17, 0.0, 1e+17, 1.0)"),
    "tile_offset_overflows": (_TILED + "0,1e306,0,0,1,1,0.5\n", [],
                              "boxes must be an (n, 5) array of finite values"),
}


@pytest.mark.parametrize("case", list(MERGE_ERRORS))
def test_merge_errors(case, tmp_path, capsys):
    text, options, message = MERGE_ERRORS[case]
    det = write(tmp_path / "det.csv", text)
    code = main(["merge", "--detections", det, *options, "--out-dir", str(tmp_path / "out")])
    assert (code, capsys.readouterr()) == (3, ("", f"error: {message}\n"))


def _lcg_detections(tiled: bool) -> str:
    """Fixed detections CSV made by integer arithmetic only, so it is the
    same on every platform: 60 crowns in a 150-unit square, each seen by
    every 100-unit tile at stride 50 that holds it whole (tiled), or with
    exact duplicates and edge-touching neighbours (global); confidences
    repeat."""
    state = 12345

    def draw(k):
        nonlocal state
        state = (1103515245 * state + 12345) % 2**31
        return (state >> 16) % k

    rows = []
    for _ in range(60):
        x, y = 10 + draw(120), 10 + draw(120)
        w, h = 8 + draw(15), 8 + draw(15)
        conf = f"0.{draw(10)}{draw(4)}"
        if tiled:
            for r in range(3):
                for c in range(3):
                    ox, oy = 50 * c, 50 * r
                    if ox <= x and x + w <= ox + 100 and oy <= y and y + h <= oy + 100:
                        jx, jy = draw(3) / 4, draw(3) / 4
                        rows.append(f"{r},{c},{x - ox + jx},{y - oy + jy},"
                                    f"{x - ox + w},{y - oy + h},{conf}")
        else:
            rows.append(f"{x},{y},{x + w},{y + h},{conf}")
            if draw(4) == 0:
                rows.append(f"{x},{y},{x + w},{y + h},{conf}")
            if draw(4) == 0:
                rows.append(f"{x + w},{y},{x + 2 * w},{y + h},{conf}")
    header = ("tile_row,tile_col," if tiled else "") + "x_min,y_min,x_max,y_max,confidence"
    return header + "\n" + "\n".join(rows) + "\n"


# SHA-256 of merge's output files, recorded with the quadratic greedy NMS
# that merge_nms replaced; the sparse pass must reproduce them byte for byte.
MERGE_GOLDEN = {
    "tiled": {
        "merged_boxes.csv": "70aeb1a983969b3342e25d589c97c3343a9f8aaeb0d069f3ea4a767deee7c1e4",
        "merged_centers.csv": "9e215edb1f82593af01db99d1d1639e74cd2c27ec9fc834087dbfc290b5561e4",
    },
    "global": {
        "merged_boxes.csv": "367b7b8c1d5a45b5ae5f613ea6666fb4f9703b31ca8d95e053a31b55c68432a2",
        "merged_centers.csv": "171df84f3bc2cb5f05edf2c01d1cd4f6301a01e866e351aedc7bcb425470881f",
    },
}


@pytest.mark.parametrize("mode", ["tiled", "global"])
def test_merge_golden_hashes(mode, tmp_path, capsys):
    check_merge_golden(mode, tmp_path, capsys)


def check_merge_golden(mode, tmp_path, capsys):
    det = write(tmp_path / "det.csv", _lcg_detections(mode == "tiled"))
    out = tmp_path / "out"
    layout = (["--global"] if mode == "global"
              else ["--patch-size", "100", "--stride", "50"])
    assert main(["merge", "--detections", det, *layout, "--iou", "0.3",
                 "--out-dir", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in MERGE_GOLDEN[mode]}
    assert got == MERGE_GOLDEN[mode]
    capsys.readouterr()


def _lcg_points() -> str:
    """Fixed ``x,y`` CSV made by integer arithmetic only: 60 points on the
    integer lattice of a 200 x 160 rectangle, some of them coincident."""
    state = 777

    def draw(k):
        nonlocal state
        state = (1103515245 * state + 12345) % 2**31
        return (state >> 16) % k

    return "x,y\n" + "".join(f"{draw(201)},{draw(161)}\n" for _ in range(60))


# Per case: the arguments after the subcommand, then SHA-256 of each output
# file and of stdout (output directory written as OUT). Recorded before the
# CLI's config layer and its own G/F/J branch were removed; the stdout of
# ripley_g_25, ripley_j_nan, envelope_f and envelope_j_nan was recorded
# without --svg before the SVG writer was removed.
CLI_GOLDEN = {
    "ripley_g_25": (
        ["ripley", "--stat", "g", "--grid-steps", "25"],
        {
            "ripley_g.csv": "8ae1505555be7ff45b968b47678a2e9db0548bae99ead4df0874de1df68a6694",
            "stdout": "fb0a7e6fde9bdabc608353d8edbb6f70f708c4c4a0da64645bd4cc03f42d4326",
        },
    ),
    "ripley_f": (
        ["ripley", "--stat", "f", "--grid-steps", "25", "--n-ref", "300", "--seed", "4"],
        {
            "ripley_f.csv": "21a8c943020c2210cc098e84ac50f36647e9e3eb5afb7acba6cde9432fc175bb",
            "stdout": "ed655f65bf659c87ff6b9e13714bf615e7e9847c2a599cd933ec20d1030f6b99",
        },
    ),
    "ripley_j_units": (
        ["ripley", "--stat", "j", "--grid-steps", "25", "--grid-max", "60",
         "--units-per-meter", "2", "--seed", "11"],
        {
            "ripley_j.csv": "d37c709e1cd99d4c881663251199b72f7c53743cd8d8cca575c3d6f17ee0ade4",
            "stdout": "7f939b55ab5f385be8be3872f972a99061712befc431e878adda07640079af3d",
        },
    ),
    # 7 of 25 values are NaN (F reaches 1), written as "nan".
    "ripley_j_nan": (
        ["ripley", "--stat", "j", "--grid-steps", "25", "--grid-max", "45", "--n-ref", "300",
         "--seed", "4"],
        {
            "ripley_j.csv": "0addc0e38e0b1193cf099ca2f997ca663638202fa13643091af788f148173bd4",
            "stdout": "7f939b55ab5f385be8be3872f972a99061712befc431e878adda07640079af3d",
        },
    ),
    "ripley_auto_window": (
        ["ripley", "--stat", "g", "--grid-max", "auto", "--window", "-10", "0", "210", "170"],
        {
            "ripley_g.csv": "cf98a4d58943564cb7c57d4924a0f9307598113df7d069733df15b2d26487e4b",
            "stdout": "fb0a7e6fde9bdabc608353d8edbb6f70f708c4c4a0da64645bd4cc03f42d4326",
        },
    ),
    "envelope_f": (
        ["envelope", "--stat", "f", "--m", "19", "--grid-steps", "20", "--n-ref", "200",
         "--seed", "9"],
        {
            "envelope_f.csv": "0a1d259c2f18531aea0dfc69a715f195a7422dfc5064e46e0603e26c541f51c0",
            "stdout": "3575ec3dad92998617337c49910be3a5926ec5cf58505b422263ae8dbf6fe733",
        },
    ),
    # observed and p are NaN at 4 of 20 rows, mean, lo95 and hi95 at 1: each written "nan".
    "envelope_j_nan": (
        ["envelope", "--stat", "j", "--m", "19", "--grid-steps", "20", "--grid-max", "50",
         "--n-ref", "200", "--seed", "9"],
        {
            "envelope_j.csv": "5f2234a1dc00b041203178b2c9807f60debcab5b9d1a357686b0b52d82a40911",
            "stdout": "b68fa2e6a7d6cb8b9f07edc3e2be91a976ad514515548d4c7c124eb760f364c3",
        },
    ),
    "simulate_csr": (
        ["simulate", "--n", "50", "--window", "0", "0", "100", "80", "--seed", "3"],
        {
            "simulated_points.csv": "00a97a4e885b5fea5376e623656873c6b7b8ea957d77b7e22f6117209585cf0c",
            "stdout": "083c653438a5c84a79c8780776342835c1017b5ce13aa1e0691a203f6a565ac5",
        },
    ),
    "simulate_bimodal": (
        ["simulate", "--n", "50", "--window", "0", "0", "100", "80", "--p", "0.6",
         "--sigma", "4", "--seed", "3"],
        {
            "simulated_points.csv": "28b7752699f1e41529df214d6baba103773d4a7d97fb0828dc0090fdef02ee61",
            "stdout": "083c653438a5c84a79c8780776342835c1017b5ce13aa1e0691a203f6a565ac5",
        },
    ),
    "fit": (
        ["fit", "--p", "0.2:0.6:0.2", "--sigma", "10:20:10", "--trials", "2",
         "--grid-steps", "15", "--n-ref", "150", "--seed", "7"],
        {
            "fit_table.csv": "36074fb5cf047f96b7e2edeb88f5b8ee339dd36874ea354da295d74262e076b4",
            "stdout": "ba591234d579b464f278d378efd7c04788d885ac1b8c5f51b39877ea0acff2ee",
        },
    ),
    "nn_stats": (
        ["nn-stats", "--k", "3", "--bins", "8"],
        {
            "nn_histogram.csv": "5aba72ec30fb3492cb9d7258a3ebc4ba44db556ffd99f58fa721260bfa74eecd",
            "nn_stats.csv": "6614e4a946d11f1056b48fcb97bbb64b12913c7f9b9ce34364f0a43fb0ae32a3",
            "stdout": "2dbbffb70c5133ad2d72dedd3208b0c00c68d377cee8098176173c294939d7c5",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_GOLDEN))
def test_cli_golden_hashes(case, tmp_path, capsys):
    check_cli_golden(case, tmp_path, capsys)


def check_cli_golden(case, tmp_path, capsys):
    argv, expected = CLI_GOLDEN[case]
    out = tmp_path / "out"
    if argv[0] != "simulate":
        argv = [*argv, "--points", write(tmp_path / "pts.csv", _lcg_points())]
    assert main([*argv, "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(out.iterdir())}
    got["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    assert got == expected


@pytest.mark.parametrize("option, message", [
    (["--grid-steps", "1"], "--grid-steps must be an integer >= 2, got 1"),
    (["--grid-max", "abc"], "--grid-max must be a number or 'auto', got 'abc'"),
    (["--grid-max", "-1"], "--grid-max must be positive and finite, got -1.0"),
    (["--grid-max", "inf"], "--grid-max must be positive and finite, got inf"),
    (["--grid-max", "nan"], "--grid-max must be positive and finite, got nan"),
])
@pytest.mark.filterwarnings("error")  # numpy must not warn before the message
def test_grid_options_are_data_errors(option, message, tmp_path, capsys):
    code = main(["ripley", "--stat", "g", "--points", write(tmp_path / "pts.csv", _lcg_points()),
                 "--window", "0", "0", "200", "160", *option, "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")


def test_count_cli_matches_library(tmp_path, capsys):
    detected = write(tmp_path / "d.csv", "x,y\n1,0\n50,50\n")
    labeled = write(tmp_path / "l.csv", "x,y\n0,0\n10,10\n")
    out = tmp_path / "out"
    assert main(["count", "--detected", detected, "--labeled", labeled,
                 "--radius", "5", "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "accuracy=0.5" in stdout
    report = match_counts([(1.0, 0.0), (50.0, 50.0)], [(0.0, 0.0), (10.0, 10.0)], 5.0)
    body = dict(line.split(",") for line in (out / "count_report.csv").read_text().splitlines()[1:])
    assert float(body["accuracy"]) == report.accuracy
    assert float(body["shift_mean"]) == report.shift_mean
    assert int(body["n_matched"]) == len(report.matched)


def _lcg_centres() -> tuple[str, str]:
    """Fixed labelled and detected ``x,y`` CSVs made by integer arithmetic
    only: 70 labels on a 41x41 lattice at offset 10^6 (so distances tie
    exactly), each missed, seen once or seen twice at one of a few integer
    displacements (some exactly at 5 units, some beyond), plus 10 false
    positives."""
    state = 2000

    def draw(k):
        nonlocal state
        state = (1103515245 * state + 12345) % 2**31
        return (state >> 16) % k

    steps = [(0, 0), (1, 0), (0, -1), (3, 4), (-4, 3), (5, 0), (0, -5),
             (2, 2), (-3, -4), (6, 0), (4, 4), (-1, 1)]
    base = 10**6
    labels = [(base + draw(41), base + draw(41)) for _ in range(70)]
    detected = []
    for x, y in labels:
        fate = draw(6)
        if fate == 0:
            continue
        dx, dy = steps[draw(len(steps))]
        detected.append((x + dx, y + dy))
        if fate == 1:
            detected.append((x + dx, y + dy))
    detected += [(base + draw(41), base + draw(41)) for _ in range(10)]

    def csv(pts):
        return "x,y\n" + "".join(f"{x},{y}\n" for x, y in pts)
    return csv(labels), csv(detected)


# SHA-256 of count_report.csv, recorded with the per-label matcher that
# match_counts replaced. Breaking distance ties by the higher labeled or
# the higher detected index changes it.
COUNT_GOLDEN = "d0a88e0b4cd761dd18daf9cf40c957d18262ff03e5895aa6bfe2e8dcbd326ff8"


def test_count_golden_hash(tmp_path, capsys):
    check_count_golden(tmp_path, capsys)


def check_count_golden(tmp_path, capsys):
    labeled, detected = _lcg_centres()
    out = tmp_path / "out"
    # 5 units at 2 units per meter: radius 2.5 m, met exactly by some pairs.
    assert main(["count", "--detected", write(tmp_path / "d.csv", detected),
                 "--labeled", write(tmp_path / "l.csv", labeled),
                 "--units-per-meter", "2", "--radius", "2.5", "--out-dir", str(out)]) == 0
    assert hashlib.sha256((out / "count_report.csv").read_bytes()).hexdigest() == COUNT_GOLDEN
    capsys.readouterr()


@pytest.mark.parametrize("units", ["0", "-1", "nan", "inf"])
def test_count_rejects_nonpositive_units(units, tmp_path, capsys):
    detected = write(tmp_path / "d.csv", "x,y\n1,0\n50,50\n")
    labeled = write(tmp_path / "l.csv", "x,y\n0,0\n10,10\n")
    code = main(["count", "--detected", detected, "--labeled", labeled,
                 "--units-per-meter", units, "--out-dir", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"units_per_meter must be positive and finite, got {float(units)}" in err
    assert not (tmp_path / "out" / "count_report.csv").exists()


def test_window_with_zero_units_is_data_error(points_csv, tmp_path, capsys):
    code = main(["ripley", "--points", points_csv, "--stat", "g", "--units-per-meter", "0",
                 "--window", "0", "0", "50", "50", "--out-dir", str(tmp_path)])
    assert code == 3
    assert "units_per_meter must be positive" in capsys.readouterr().err


def test_nn_stats_outputs(points_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["nn-stats", "--points", points_csv, "--k", "3", "--bins", "8",
                 "--out-dir", str(out)]) == 0
    stats = dict(line.split(",") for line in (out / "nn_stats.csv").read_text().splitlines()[1:])
    assert stats["k"] == "3"
    assert float(stats["mean"]) > 0
    hist = (out / "nn_histogram.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,count"
    assert sum(int(row.split(",")[2]) for row in hist[1:]) == 40
    capsys.readouterr()


def test_default_seed_is_stable_constant(points_csv, tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["ripley", "--points", points_csv, "--stat", "f",
                     "--grid-steps", "10", "--n-ref", "100", "--out-dir", str(out)]) == 0
    assert (out_a / "ripley_f.csv").read_bytes() == (out_b / "ripley_f.csv").read_bytes()
    capsys.readouterr()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["ripley", "--stat", "g"],
    ["ripley", "--stat", "f"],
    ["ripley", "--stat", "j"],
    ["envelope", "--stat", "g", "--m", "19"],
    ["envelope", "--stat", "f", "--m", "19"],
    ["envelope", "--stat", "j", "--m", "19"],
    ["nn-stats", "--k", "5", "--bins", "4"],
    ["fit", "--p", "0.2:0.8:0.6", "--sigma", "1:2:1", "--trials", "2"],
])
def test_coincident_points_run_cleanly(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PALMPAT_THREADS", "1")
    points = write(tmp_path / "pts.csv", "x,y\n" + "25,25\n" * 20)
    grid = [] if argv[0] == "nn-stats" else ["--grid-steps", "10", "--n-ref", "200"]
    code = main([*argv, "--points", points, "--window", "0", "0", "50", "50", *grid,
                 "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    if argv[0] == "nn-stats":
        assert "mean=0.0 median=0.0 std=0.0" in captured.out


def test_golden_outputs_do_not_follow_numpy_print_options(tmp_path, capsys):
    # Under this option str() of a numpy float prints 12 digits (0.3 for
    # 0.1 + 0.2); the CSV writer's repr(float(v)) keeps every digit.
    def fresh(name):
        (tmp_path / name).mkdir()
        return tmp_path / name

    with np.printoptions(legacy="1.13"):
        for case in ("ripley_f", "envelope_j_nan", "fit", "nn_stats"):
            check_cli_golden(case, fresh(case), capsys)
        for mode in ("tiled", "global"):
            check_merge_golden(mode, fresh(mode), capsys)
        check_count_golden(fresh("count"), capsys)


# ---------------------------------------------------------------- CLI surface

# Every parser's actions in order, each as (option strings, dest, default, nargs,
# required, choices, type name, help). Unlike the text of --help, this does not
# depend on the Python version.
CLI_SURFACE = {
    'palmpat': [
        (('-h', '--help'), 'help', '==SUPPRESS==', 0, False, None, None,
         'show this help message and exit'),
        ((), 'command', None, 'A...', True,
         ['ripley', 'envelope', 'simulate', 'fit', 'merge', 'count', 'nn-stats'], None, None),
    ],
    'ripley': [
        (('-h', '--help'), 'help', '==SUPPRESS==', 0, False, None, None,
         'show this help message and exit'),
        (('--seed',), 'seed', 0, None, False, None, 'int', 'master RNG seed (default 0)'),
        (('--out-dir',), 'out_dir', '.', None, False, None, None, 'output directory (default .)'),
        (('--points',), 'points', None, None, True, None, None, 'points CSV with header x,y'),
        (('--units-per-meter',), 'units_per_meter', 1.0, None, False, None, 'float',
         'input units per meter; coordinates are divided by this (default 1)'),
        (('--window',), 'window', None, 4, False, None, 'float',
         "observation window in input units (default: points' bounding box)"),
        (('--grid-max',), 'grid_max', 'auto', None, False, None, None,
         "largest grid distance, or 'auto' for half the shorter window side"),
        (('--grid-steps',), 'grid_steps', 100, None, False, None, 'int',
         'number of grid distances (default 100)'),
        (('--n-ref',), 'n_ref', None, None, False, None, 'int',
         'reference points for F (default max(1000, n))'),
        (('--stat',), 'stat', None, None, True, ['g', 'f', 'j'], None, 'statistic: G, F or J'),
    ],
    'envelope': [
        (('-h', '--help'), 'help', '==SUPPRESS==', 0, False, None, None,
         'show this help message and exit'),
        (('--seed',), 'seed', 0, None, False, None, 'int', 'master RNG seed (default 0)'),
        (('--out-dir',), 'out_dir', '.', None, False, None, None, 'output directory (default .)'),
        (('--points',), 'points', None, None, True, None, None, 'points CSV with header x,y'),
        (('--units-per-meter',), 'units_per_meter', 1.0, None, False, None, 'float',
         'input units per meter; coordinates are divided by this (default 1)'),
        (('--window',), 'window', None, 4, False, None, 'float',
         "observation window in input units (default: points' bounding box)"),
        (('--grid-max',), 'grid_max', 'auto', None, False, None, None,
         "largest grid distance, or 'auto' for half the shorter window side"),
        (('--grid-steps',), 'grid_steps', 100, None, False, None, 'int',
         'number of grid distances (default 100)'),
        (('--n-ref',), 'n_ref', None, None, False, None, 'int',
         'reference points for F (default max(1000, n))'),
        (('--stat',), 'stat', None, None, True, ['g', 'f', 'j'], None, 'statistic: G, F or J'),
        (('--m',), 'envelope_m', 199, None, False, None, 'int',
         'number of CSR simulations (default 199)'),
    ],
    'simulate': [
        (('-h', '--help'), 'help', '==SUPPRESS==', 0, False, None, None,
         'show this help message and exit'),
        (('--seed',), 'seed', 0, None, False, None, 'int', 'master RNG seed (default 0)'),
        (('--out-dir',), 'out_dir', '.', None, False, None, None, 'output directory (default .)'),
        (('--n',), 'n', None, None, True, None, 'int', 'number of points'),
        (('--window',), 'window', None, 4, True, None, 'float', 'window to fill with points'),
        (('--p',), 'p', None, None, False, None, 'float', 'clustering probability (omit for CSR)'),
        (('--sigma',), 'sigma', None, None, False, None, 'float',
         'Gaussian offspring spread (omit for CSR)'),
    ],
    'fit': [
        (('-h', '--help'), 'help', '==SUPPRESS==', 0, False, None, None,
         'show this help message and exit'),
        (('--seed',), 'seed', 0, None, False, None, 'int', 'master RNG seed (default 0)'),
        (('--out-dir',), 'out_dir', '.', None, False, None, None, 'output directory (default .)'),
        (('--points',), 'points', None, None, True, None, None, 'points CSV with header x,y'),
        (('--units-per-meter',), 'units_per_meter', 1.0, None, False, None, 'float',
         'input units per meter; coordinates are divided by this (default 1)'),
        (('--window',), 'window', None, 4, False, None, 'float',
         "observation window in input units (default: points' bounding box)"),
        (('--grid-max',), 'grid_max', 'auto', None, False, None, None,
         "largest grid distance, or 'auto' for half the shorter window side"),
        (('--grid-steps',), 'grid_steps', 100, None, False, None, 'int',
         'number of grid distances (default 100)'),
        (('--n-ref',), 'n_ref', None, None, False, None, 'int',
         'reference points for F (default max(1000, n))'),
        (('--p',), 'p', None, None, True, None, None, 'candidates, NUMBER or START:STOP:STEP'),
        (('--sigma',), 'sigma', None, None, True, None, None,
         'candidates, NUMBER or START:STOP:STEP'),
        (('--trials',), 'n_trials', 10, None, False, None, 'int',
         'simulations per candidate pair (default 10)'),
    ],
    'merge': [
        (('-h', '--help'), 'help', '==SUPPRESS==', 0, False, None, None,
         'show this help message and exit'),
        (('--seed',), 'seed', 0, None, False, None, 'int', 'master RNG seed (default 0)'),
        (('--out-dir',), 'out_dir', '.', None, False, None, None, 'output directory (default .)'),
        (('--detections',), 'detections', None, None, True, None, None, 'detections CSV'),
        (('--global',), 'global_coords', False, 0, False, None, None,
         'detections are already in global coordinates'),
        (('--patch-size',), 'patch_size', 800, None, False, None, 'int',
         "tile side, in the detections' units (default 800)"),
        (('--stride',), 'stride', 400, None, False, None, 'int',
         'offset between neighbouring tiles (default 400)'),
        (('--origin',), 'origin', (0.0, 0.0), 2, False, None, 'float',
         'global (x, y) where tile (0, 0) starts (default 0 0)'),
        (('--iou',), 'iou_threshold', 0.5, None, False, None, 'float',
         'NMS IoU threshold (default 0.5)'),
    ],
    'count': [
        (('-h', '--help'), 'help', '==SUPPRESS==', 0, False, None, None,
         'show this help message and exit'),
        (('--seed',), 'seed', 0, None, False, None, 'int', 'master RNG seed (default 0)'),
        (('--out-dir',), 'out_dir', '.', None, False, None, None, 'output directory (default .)'),
        (('--detected',), 'detected', None, None, True, None, None, 'detected centers CSV (x,y)'),
        (('--labeled',), 'labeled', None, None, True, None, None, 'labeled centers CSV (x,y)'),
        (('--radius',), 'match_radius', 5.0, None, False, None, 'float',
         'match radius in meters (default 5.0)'),
        (('--units-per-meter',), 'units_per_meter', 1.0, None, False, None, 'float',
         'input units per meter; coordinates are divided by this (default 1)'),
    ],
    'nn-stats': [
        (('-h', '--help'), 'help', '==SUPPRESS==', 0, False, None, None,
         'show this help message and exit'),
        (('--seed',), 'seed', 0, None, False, None, 'int', 'master RNG seed (default 0)'),
        (('--out-dir',), 'out_dir', '.', None, False, None, None, 'output directory (default .)'),
        (('--points',), 'points', None, None, True, None, None, 'points CSV with header x,y'),
        (('--units-per-meter',), 'units_per_meter', 1.0, None, False, None, 'float',
         'input units per meter; coordinates are divided by this (default 1)'),
        (('--window',), 'window', None, 4, False, None, 'float',
         "observation window in input units (default: points' bounding box)"),
        (('--k',), 'k', 5, None, False, None, 'int', 'neighbors per point (default 5)'),
        (('--bins',), 'bins', 30, None, False, None, 'int', 'histogram bins (default 30)'),
    ],
}


def _surface(parser):
    return [(tuple(a.option_strings), a.dest, a.default, a.nargs, a.required,
             None if a.choices is None else list(a.choices),
             getattr(a.type, "__name__", None), a.help) for a in parser._actions]


def test_cli_surface_is_unchanged():
    parser = palmpat.cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {"palmpat": _surface(parser), **{n: _surface(p) for n, p in subs.choices.items()}}
    assert got == CLI_SURFACE
