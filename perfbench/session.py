"""The measured process of one benchmark run.

A fresh interpreter imports palmpat, loads one workload's inputs, runs the
workload's warm-up operation and prints ``ready``. With ``--probe`` it stops
there: run.py times it from process start to that line for ``setup_s``.
Otherwise it checks the warm-up output, repeats batches of operations while
another batch should end within ``--seconds`` and prints one JSON line: the
batches, the attempted and failed operations, and its peak memory.

Only palmpat's work and the per-operation output checks (which compare with
files that run.py prepared) run in this process and its children, so the
CPU and memory it reports are the program's, not the harness's.

    python3 perfbench/session.py WORKLOAD INPUT_DIR WARMUP_DIR [--smoke]
                                 (--probe | --seconds S --trace 0|1)
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def _proc_stat(pid):
    """(user + system CPU seconds, peak RSS in kB) of a live process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0, 0
    fields = stat.rsplit(")", 1)[1].split()
    cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    hwm = next((int(line.split()[1]) for line in status.splitlines()
                if line.startswith("VmHWM:")), 0)
    return cpu, hwm


def cpu_seconds() -> float:
    """CPU of this process, its reaped children and its live pool workers."""
    live = sum(_proc_stat(p.pid)[0] for p in multiprocessing.active_children())
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime + live


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest pool worker (every
    child of this process is one of palmpat's pool workers)."""
    largest = max([resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
                  + [_proc_stat(p.pid)[1] for p in multiprocessing.active_children()])
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + largest) / 1024.0


def batch(work, tally, label, tracer=None):
    """Run every operation once; checks run between operations, untimed."""
    if tracer is not None:
        from tracer import Collector
        tracer.swap(Collector())
    latencies, cpu = [], 0.0
    for i in range(work.n_ops):
        result = {}

        def op():
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                result["out"] = work.op(i)
            finally:
                latencies.append(time.perf_counter() - t0)
                result["cpu"] = cpu_seconds() - c0
            return work.check(i, result["out"])
        tally.attempt(f"{label} op {i}", op)
        cpu += result["cpu"]
    return {"wall_s": sum(latencies), "cpu_s": cpu, "latencies": latencies,
            "layers": tracer.flush().stats if tracer is not None else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("inputs")
    parser.add_argument("warmup")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    cls = workloads.WORKLOADS[args.workload]
    work = cls(args.inputs, args.smoke)
    work.load()
    warm = cls(args.warmup, smoke=True)
    warm.load()
    warm_out = warm.op(0)
    print("ready", flush=True)
    if args.probe:
        return

    tally = workloads.Tally()
    tally.attempt(f"{args.workload} warm-up", lambda: warm.check(0, warm_out))
    batches, tracer = [], None
    start = time.perf_counter()
    try:
        # Start another batch only if it should end within --seconds.
        while len(batches) < 1 + args.trace or (
                (time.perf_counter() - start) * (len(batches) + 1) / len(batches)
                <= args.seconds):
            if args.trace and batches and tracer is None:
                import tracer as tracing
                tracer = tracing.install()
            batches.append(batch(work, tally, args.workload, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps({"batches": batches, "attempted": tally.attempted,
                      "problems": tally.problems, "peak_rss_mb": peak_rss_mb()}))


if __name__ == "__main__":
    main()
