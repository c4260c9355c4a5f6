"""Worker-pool helpers for the embarrassingly parallel loops.

Tasks carry their own derived seeds, so mapping them over any number of
workers gives bit-identical results; the reduction happens in submission
order. ``PALMPAT_THREADS`` is the one setting for the worker count (0 or
unset = one worker per CPU); the library takes no worker argument.
"""
from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import InvalidInputError, check_count

_T = TypeVar("_T")
_R = TypeVar("_R")

ENV_WORKERS = "PALMPAT_THREADS"
MAX_TASKS = 10**6  # per call; each task's seed takes about 11 us before any worker starts


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
    # fork keeps worker startup cheap; results do not depend on the method
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()
    chunksize = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks)), mp_context=ctx) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize))
