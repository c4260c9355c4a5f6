"""palmpat benchmark: four workloads timed end to end, and per layer in a
separate traced run.

    python3 perfbench/run.py --workload fit-site --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --smoke --seconds 0  # every workload at a tiny size

Each run makes its inputs from --seed and what the output checks compare
with, and checks that palmpat runs the same at 1 worker and at nproc workers.
Then a fresh process (session.py) warms up and repeats batches of operations
on the fixed inputs while another batch should end within --seconds (at
least one batch; a traced run times one untraced batch first, then at least
one traced one). Outputs are checked after each operation, outside the timed
region. The last line of standard output is one JSON object: correct,
attempted, failed and the metrics (end to end with --trace 0, per layer with
--trace 1). See perfbench/README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 9
SESSION_TIMEOUT_S = 150

# Metrics in the final JSON line; units and directions match BENCHMARK.json.
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Printed and recorded, but not in the JSON line: a median of operation times
# jumps between the host's fast and slow phases (see README, Stability),
# error_rate is 0 when the program is correct, and op_p90_s needs at least
# 100 operations in a run.
REPORTED_ONLY = {"op_p50_s": "s", "op_p90_s": "s", "error_rate": "ratio"}
P90_MIN_OPS = 100

LAYERS = [
    ("reproduction.simulate_reproduction", ("calls", "self_s", "gaussian_fallbacks")),
    ("reproduction.discrepancy", ("self_s",)),
    ("reproduction.fit", ("self_s",)),
    ("ripley.f_function", ("calls", "self_s", "ref_points")),
    ("ripley.g_function", ("calls", "self_s")),
    ("geometry.nearest_neighbor_distances", ("self_s",)),
    ("envelope.simulate_csr", ("calls", "self_s")),
    ("envelope.envelope", ("self_s",)),
    ("pool.map_tasks", ("calls", "tasks", "workers", "wall_s", "task_s", "dispatch_s")),
    ("detections.merge_nms", ("calls", "self_s", "kept_ratio")),
    ("geometry.iou", ("calls",)),
    ("detections.global_boxes", ("self_s",)),
    ("detections.match_counts", ("self_s", "match_ratio")),
    ("cli.read", ("self_s", "rows")),
    ("cli.write", ("self_s", "rows")),
]
TRACE_METRICS = ("trace.wall_s", "trace.overhead_s")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_values(stats) -> dict:
    """Per-layer metrics of one traced batch; None marks a function the
    batch never called (reported as absent)."""
    out = {}
    for span, fields in LAYERS:
        entry = stats.get(span)
        for field in fields:
            value = None
            if entry is not None:
                if field == "wall_s":
                    value = entry["total_s"]
                elif field == "kept_ratio":
                    value = entry["kept"] / entry["boxes"] if entry["boxes"] else None
                elif field == "match_ratio":
                    value = entry["matched"] / entry["labelled"] if entry["labelled"] else None
                else:
                    value = entry.get(field)
            out[f"{span}.{field}"] = value
    return out


# ---------------------------------------------------------------- machine


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_context(workers: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "workers": workers,
    }


# ---------------------------------------------------------------- one run


class Run:
    """One workload at one seed: inputs and their checks, the determinism
    check, then the measured process (session.py) and the set-up probes."""

    def __init__(self, name, seed, seconds, trace, smoke, workers):
        import workloads

        self.name, self.seed, self.seconds = name, seed, seconds
        self.trace, self.smoke, self.workers = trace, smoke, workers
        self.context = machine_context(workers)
        self.dir = WORK / f"{name}-{os.getpid()}"
        self.tally = workloads.Tally()
        cls = workloads.WORKLOADS[name]
        self.main = cls(self.dir / "main", smoke)
        self.warm = cls(self.dir / "warmup", smoke=True)
        self.det_fit = workloads.FitSite(self.dir / "det-fit", smoke=True)
        self.det_env = workloads.EnvelopeBatch(self.dir / "det-envelope", smoke=True)
        for w in (self.main, self.warm, self.det_fit, self.det_env):
            w.generate(seed)
        self.context["input_sha256"] = self.main.input_sha256()
        self.main.prepare()
        self.warm.prepare()

    def with_workers(self, n, fn):
        os.environ["PALMPAT_THREADS"] = str(n)
        try:
            return fn()
        finally:
            os.environ["PALMPAT_THREADS"] = str(self.workers)

    def check_determinism(self):
        """Reduced fit (CLI) and envelope (library) at 1 and nproc workers
        must give byte-identical outputs."""
        from workloads import run_cli

        def fit_bytes(n):
            out = self.det_fit.dir / f"out-{n}"
            code, _ = self.with_workers(n, lambda: run_cli(self.det_fit.argv(out)))
            return code, (out / "fit_table.csv").read_bytes() if code == 0 else b""

        def envelope_bytes(n):
            r = self.with_workers(n, lambda: self.det_env.op(0))
            return b"".join(a.tobytes() for a in (r.observed, r.sim_mean, r.lo95, r.hi95,
                                                   r.p_values))

        self.det_env.load()
        self.tally.attempt("determinism fit",
                           lambda: [] if fit_bytes(1) == fit_bytes(self.workers)
                           else ["fit_table.csv differs between 1 and nproc workers"])
        self.tally.attempt("determinism envelope",
                           lambda: [] if envelope_bytes(1) == envelope_bytes(self.workers)
                           else ["envelope differs between 1 and nproc workers"])

    def session_argv(self, *extra):
        argv = [sys.executable, str(HERE / "session.py"), self.name,
                str(self.main.dir), str(self.warm.dir), *extra]
        return argv + ["--smoke"] if self.smoke else argv

    def measure(self) -> dict:
        """Warm-up and timed batches in a fresh process of their own."""
        proc = subprocess.run(
            self.session_argv("--seconds", str(self.seconds), "--trace", str(self.trace)),
            stdout=subprocess.PIPE, text=True, timeout=SESSION_TIMEOUT_S, check=True)
        lines = proc.stdout.splitlines()
        if len(lines) < 2 or lines[0] != "ready":
            raise RuntimeError(f"session.py printed {proc.stdout[-500:]!r}")
        return json.loads(lines[-1])

    def setup_seconds(self):
        times = []
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            with subprocess.Popen(self.session_argv("--probe"), stdout=subprocess.PIPE,
                                  text=True) as proc:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=120)
            if line.strip() != "ready" or proc.returncode != 0:
                self.tally.attempted += 1
                self.tally.problems.append(f"setup probe exited with {proc.returncode}")
                continue
            times.append(elapsed)
        return times

    def execute(self) -> dict:
        self.check_determinism()
        session = self.measure()
        self.tally.attempted += session["attempted"]
        self.tally.problems += session["problems"]
        setup = [] if self.trace else self.setup_seconds()
        return self.metrics(session["batches"], session["peak_rss_mb"], setup)

    def metrics(self, batches, rss, setup) -> dict:
        latencies = [t for b in batches for t in b["latencies"]]
        record = {
            "workload": self.name, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "smoke": self.smoke, "context": self.context,
            "batches": len(batches), "operations": len(latencies),
            "attempted": self.tally.attempted, "failed": len(self.tally.problems),
            "problems": self.tally.problems,
        }
        values = {"error_rate": len(self.tally.problems) / self.tally.attempted}
        if not self.trace:
            values.update(
                wall_s=statistics.fmean(b["wall_s"] for b in batches),
                op_p50_s=statistics.median(latencies),
                op_p90_s=(statistics.quantiles(latencies, n=10)[8]
                          if len(latencies) >= P90_MIN_OPS else None),
                cpu_s=statistics.fmean(b["cpu_s"] for b in batches),
                peak_rss_mb=rss,
                setup_s=statistics.median(setup) if setup else None,
            )
            record["samples"] = {"setup_s": setup, "batch_wall_s": [b["wall_s"] for b in batches],
                                 "op_latency_s": latencies}
        else:
            traced = [b for b in batches if b["layers"] is not None]
            per_batch = [layer_values(b["layers"]) for b in traced]
            for metric in per_batch[0]:
                got = [v[metric] for v in per_batch if v[metric] is not None]
                values[metric] = statistics.median(got) if got else None
            values["trace.wall_s"] = statistics.median(b["wall_s"] for b in traced)
            values["trace.overhead_s"] = values["trace.wall_s"] - batches[0]["wall_s"]
            record["spans"] = traced[-1]["layers"]
        record["metrics"] = values
        return record

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


# ---------------------------------------------------------------- output


def json_metrics(record, prefix=""):
    """The metrics of the final JSON line: the BENCHMARK.json set, with a
    function the workload never called reading 0."""
    names = dict(END_TO_END) if not record["trace"] else {
        **{f"{span}.{f}": unit_of(f) for span, fields in LAYERS for f in fields},
        **{m: "s" for m in TRACE_METRICS}}
    return {prefix + name: {"value": record["metrics"].get(name) or 0, "unit": unit}
            for name, unit in names.items()}


def print_record(record):
    ctx = record["context"]
    print(f"# {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"smoke={int(record['smoke'])}  batches={record['batches']}  "
          f"operations={record['operations']}")
    print("# machine: " + "  ".join(f"{k}={v}" for k, v in ctx.items()))
    for problem in record["problems"]:
        print(f"# FAILED {problem}")
    m = record["metrics"]
    if record["trace"]:
        rows = [(name, unit_of(name.rsplit(".", 1)[1])) for name in m if name != "error_rate"]
    else:
        rows = list({**END_TO_END, **REPORTED_ONLY}.items())
    for name, unit in rows:
        value = m.get(name)
        text = "absent" if value is None else f"{value:.6g} {unit}"
        print(f"{record['workload']:<15} {name:<46} {text}")
    if record["trace"]:
        for line in derived_lines(record["spans"]):
            print(f"{record['workload']:<15} {line}")


def derived_lines(spans):
    """The layer splits the ROADMAP Baseline quotes, from one traced batch."""
    lines = []
    sim = spans.get("reproduction.simulate_reproduction")
    task = spans.get("pool.task")
    if sim and task:
        lines.append(f"simulator share of task time: {sim['self_s'] / task['total_s']:.1%} "
                     f"({1e3 * sim['self_s'] / sim['calls']:.2f} ms per simulation, "
                     f"{1e3 * task['total_s'] / task['calls']:.2f} ms per task)")
    nms, iou = spans.get("detections.merge_nms"), spans.get("geometry.iou")
    if nms and iou:
        lines.append(f"merge_nms: {iou['calls']} iou calls = "
                     f"{iou['calls'] / (nms['boxes'] * nms['kept']):.3f} x boxes x kept, "
                     f"{1e9 * nms['self_s'] / iou['calls']:.0f} ns per call")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="fit-site, envelope-batch, merge-tiles, count-site or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=["0", "1", "both"], default="both")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    parser.add_argument("--out", help="also write the full record (context, samples) here")
    args = parser.parse_args(argv)

    if not (SRC / "palmpat" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {SRC / 'palmpat'} or tests/oracles.py not found; run from a palmpat "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}")
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    workers = nproc()
    os.environ["PALMPAT_THREADS"] = str(workers)

    records = []
    for name in names:
        for trace in traces:
            run = Run(name, args.seed, args.seconds, trace, args.smoke, workers)
            try:
                record = run.execute()
            finally:
                run.cleanup()
            print_record(record)
            records.append(record)

    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    single = len(records) == 1
    metrics = {}
    for r in records:
        metrics.update(json_metrics(r, "" if single else f"{r['workload']}/"))
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
