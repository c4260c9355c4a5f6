"""Per-layer spans recorded from outside palmpat.

``install`` replaces palmpat's public functions, in every palmpat module that
binds them, with wrappers that time each call. A span's self time is its
duration minus the time covered by the spans it opened. Spans are summed per
name in a ``Collector``; nothing is kept per call, so ``geometry.iou`` (millions
of calls) can be wrapped at all, and it is only counted.

Work that ``map_tasks`` sends to pool workers is traced too: the task function
is wrapped in ``TracedTask``, which runs it under a fresh collector in the
worker and returns that collector's sums with the result. Worker spans are
therefore added to the same names as the main process's, and a layer's
``self_s`` is its busy time summed over the main process and the workers.

The wrappers are process-wide by nature (they replace module attributes), so
the active tracer is one module-level object, set by ``install`` and cleared
by ``Tracer.uninstall``.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time

_active: "Tracer | None" = None


class Collector:
    """Per-name sums of span counts, times and counters."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.open: list[float] = []  # child time of each open span, innermost last

    def entry(self, name):
        return self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def add(self, name, **counts):
        entry = self.entry(name)
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value

    def merge(self, stats):
        for name, counts in stats.items():
            self.add(name, **counts)


class Tracer:
    def __init__(self):
        self.current = Collector()
        self.counters: dict[str, list[int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def flush(self) -> Collector:
        """Move the call counters into the current collector and return it."""
        for name, cell in self.counters.items():
            if cell[0]:
                self.current.entry(name)["calls"] += cell[0]
                cell[0] = 0
        return self.current

    def swap(self, collector: Collector) -> Collector:
        """Make ``collector`` current; returns the previous one, flushed."""
        previous = self.flush()
        self.current = collector
        return previous

    def call(self, name, fn, *args, **kwargs):
        """Run fn as one span called ``name``."""
        col = self.current
        col.open.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = col.open.pop()
            entry = col.entry(name)
            entry["calls"] += 1
            entry["total_s"] += dt
            entry["self_s"] += dt - child
            if col.open:
                col.open[-1] += dt

    def replace(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        global _active
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        _active = None


class TracedTask:
    """Picklable stand-in for a ``map_tasks`` task function: returns the
    result, the worker's pid and the spans recorded while it ran."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, task):
        tracer = _active or install()  # a worker that did not fork from a traced process
        outer = tracer.swap(Collector())
        try:
            result = tracer.call("pool.task", self.fn, task)
        finally:
            mine = tracer.swap(outer)
        return result, os.getpid(), mine.stats


def _palmpat_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "palmpat" or name.startswith("palmpat."))]


def _rebind(tracer, original, wrapper) -> None:
    """Point every palmpat module's name for ``original`` at ``wrapper``."""
    for module in _palmpat_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                tracer.replace(module, attr, wrapper)


def _span(tracer, name, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if count is not None:
            tracer.current.add(name, **count(args, kwargs, result))
        return result
    return wrapper


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _wrap_simulate_reproduction(tracer, name, fn):
    """Pass a SimulationDiagnostics into each call and sum its fallbacks."""
    from palmpat import reproduction

    diagnostics_type = getattr(reproduction, "SimulationDiagnostics", None)
    if diagnostics_type is None or "diagnostics" not in inspect.signature(fn).parameters:
        return _span(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if len(args) > 4 or kwargs.get("diagnostics") is not None:
            return tracer.call(name, fn, *args, **kwargs)
        diagnostics = diagnostics_type()
        result = tracer.call(name, fn, *args, diagnostics=diagnostics, **kwargs)
        tracer.current.add(name, gaussian_fallbacks=diagnostics.gaussian_fallbacks)
        return result
    return wrapper


def _wrap_map_tasks(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(task_fn, tasks, *args, **kwargs):
        tasks = list(tasks)
        t0 = time.perf_counter()
        outputs = tracer.call(name, fn, TracedTask(task_fn), tasks, *args, **kwargs)
        wall = time.perf_counter() - t0
        pids = set()
        task_s = 0.0
        for _, pid, stats in outputs:
            pids.add(pid)
            task_s += stats["pool.task"]["total_s"]
            tracer.current.merge(stats)
        workers = max(1, len(pids))
        col = tracer.current
        col.add(name, tasks=len(tasks), task_s=task_s, dispatch_s=wall - task_s / workers)
        entry = col.entry(name)
        entry["workers"] = max(entry.get("workers", 0), workers)
        return [result for result, _, _ in outputs]
    return wrapper


def _wrap_merge_nms(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(boxes, *args, **kwargs):
        boxes = list(boxes)
        kept = tracer.call(name, fn, boxes, *args, **kwargs)
        tracer.current.add(name, boxes=len(boxes), kept=len(kept))
        return kept
    return wrapper


def _wrap_write(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(path, header, rows, *args, **kwargs):
        n = [0]

        def counted():
            for row in rows:
                n[0] += 1
                yield row
        result = tracer.call(name, fn, path, header, counted(), *args, **kwargs)
        tracer.current.add(name, rows=n[0])
        return result
    return wrapper


def _counter(tracer, name, fn):
    """Count calls without a span, for functions too cheap to time. The count
    lives in a cell that ``Tracer.flush`` moves into the current collector."""
    cell = tracer.counters.setdefault(name, [0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)
    return wrapper


def _ref_points(args, kwargs, result):
    n_ref = _arg(args, kwargs, 2, "n_ref")
    if n_ref is None:  # palmpat's documented default
        n_ref = max(1000, len(_arg(args, kwargs, 0, "pattern")))
    return {"ref_points": n_ref}


def _matches(args, kwargs, report):
    return {"matched": len(report.matched), "labelled": report.n_labeled}


def _rows(args, kwargs, rows):
    return {"rows": len(rows)}


def _spanner(count=None):
    return lambda tracer, name, fn: _span(tracer, name, fn, count)


# (span name, module, attribute, wrapper factory). A target the program no
# longer has is skipped, and its metrics are reported as absent.
TARGETS = [
    ("reproduction.simulate_reproduction", "palmpat.reproduction", "simulate_reproduction",
     _wrap_simulate_reproduction),
    ("reproduction.discrepancy", "palmpat.reproduction", "discrepancy", _spanner()),
    ("reproduction.fit", "palmpat.reproduction", "fit", _spanner()),
    ("ripley.f_function", "palmpat.ripley", "f_function", _spanner(_ref_points)),
    ("ripley.g_function", "palmpat.ripley", "g_function", _spanner()),
    ("geometry.nearest_neighbor_distances", "palmpat.geometry", "nearest_neighbor_distances",
     _spanner()),
    ("geometry.iou", "palmpat.geometry", "iou", _counter),
    ("envelope.simulate_csr", "palmpat.envelope", "simulate_csr", _spanner()),
    ("envelope.envelope", "palmpat.envelope", "envelope", _spanner()),
    ("pool.map_tasks", "palmpat._pool", "map_tasks", _wrap_map_tasks),
    ("detections.merge_nms", "palmpat.detections", "merge_nms", _wrap_merge_nms),
    ("detections.global_boxes", "palmpat.detections", "DetectionSet.global_boxes", _spanner()),
    ("detections.match_counts", "palmpat.detections", "match_counts", _spanner(_matches)),
    ("cli.read", "palmpat.cli", "_read_rows", _spanner(_rows)),
    ("cli.write", "palmpat.cli", "write_csv", _wrap_write),
]


def install() -> Tracer:
    """Wrap every target in the loaded palmpat modules; returns the tracer."""
    global _active
    import palmpat.cli  # noqa: F401  (loads every module a target lives in)

    tracer = Tracer()
    for name, module_name, attr, factory in TARGETS:
        owner = sys.modules.get(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            continue
        wrapper = factory(tracer, name, original)
        if path:
            tracer.replace(owner, leaf, wrapper)
        else:
            _rebind(tracer, original, wrapper)
    _active = tracer
    return tracer
