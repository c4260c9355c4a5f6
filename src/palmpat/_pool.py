"""Worker-pool helpers for the embarrassingly parallel loops.

Tasks carry their own derived seeds, so mapping them over any number of
workers gives bit-identical results; the reduction happens in submission
order. ``PALMPAT_THREADS`` is the one setting for the worker count (0 or
unset = one worker per CPU); the library takes no worker argument.

A process keeps one executor for all its calls. It starts on first use, is
replaced when the worker count changes, is dropped after a worker crash
(``BrokenProcessPool``) so that the next call starts a fresh one, and is shut
down at exit. It belongs to the process that started it: a forked child, a
pool worker included, starts its own and never shuts the parent's down. Its
workers are forked while no other thread is alive (after the old executor has
been joined) and started by a fork server otherwise, since a child forked from
a process with threads can deadlock. Workers inherit no state prepared for one
call: each fills its own caches (``ripley._references``, ``_native._lib``) on
first use, from the task's own arguments and seeds.
"""
from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence, TypeVar

from .errors import InvalidInputError, check_count

_T = TypeVar("_T")
_R = TypeVar("_R")

ENV_WORKERS = "PALMPAT_THREADS"
MAX_TASKS = 10**6  # per call; each task's seed takes about 11 us before any worker starts

_executor: ProcessPoolExecutor | None = None
_owner = (0, 0)  # (pid, workers) of _executor
_lock = threading.Lock()  # held while a call picks the executor and submits its tasks
if hasattr(os, "register_at_fork"):  # workers are forked while it is held
    os.register_at_fork(after_in_child=_lock._at_fork_reinit)


def resolve_workers() -> int:
    """The worker count ``PALMPAT_THREADS`` asks for."""
    raw = os.environ.get(ENV_WORKERS, "").strip() or "0"
    try:
        workers = int(raw)
    except ValueError:
        raise InvalidInputError(f"{ENV_WORKERS} must be an integer, got {raw!r}")
    return check_count(workers, ENV_WORKERS, 0) or os.cpu_count() or 1


def map_tasks(fn: Callable[[_T], _R], tasks: Sequence[_T]) -> list[_R]:
    """Apply ``fn`` to every task, preserving task order in the result."""
    workers = resolve_workers()
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    chunksize = max(1, len(tasks) // (workers * 4))
    try:
        with _lock:  # so that another thread cannot shut the pool down mid-submission
            pool = _pool(workers)
            results = pool.map(fn, tasks, chunksize=chunksize)
        return list(results)
    except BrokenProcessPool:
        with _lock:
            if _executor is pool:
                _shutdown()
        raise


def _pool(workers: int) -> ProcessPoolExecutor:
    """This process's executor with ``workers`` workers, started if need be."""
    global _executor, _owner
    if _executor is None or _owner != (os.getpid(), workers):
        _shutdown()
        try:
            ctx = multiprocessing.get_context(
                "fork" if threading.active_count() == 1 else "forkserver")
        except ValueError:
            ctx = multiprocessing.get_context()
        _executor, _owner = ProcessPoolExecutor(workers, mp_context=ctx), (os.getpid(), workers)
    return _executor


@atexit.register
def _shutdown() -> None:
    """Shut down and forget this process's executor; one inherited from the
    parent is forgotten untouched."""
    global _executor
    pool, _executor = _executor, None
    if pool is not None and _owner[0] == os.getpid():
        pool.shutdown()
