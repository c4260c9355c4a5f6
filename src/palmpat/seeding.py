"""Deterministic seed derivation.

Every randomized operation in this package takes an explicit integer seed
and derives any internal streams from it by counter-based splitting, so
results are reproducible and independent of execution order or worker
count. The split uses ``numpy.random.SeedSequence`` spawn keys: two calls
with the same master seed and counters always yield the same child seed,
and distinct counters yield statistically independent streams.
"""
from __future__ import annotations

import numpy as np

from .errors import check_count

# Used by the CLI when --seed is omitted. Never wall-clock entropy.
DEFAULT_SEED = 0


def substream_seed(master_seed: int, *counters: int) -> int:
    """Derive a child seed from ``master_seed`` and a counter tuple."""
    key = [check_count(c, "counter", 0, None) for c in counters]
    ss = np.random.SeedSequence(check_count(master_seed, "seed", 0, None), spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(check_count(seed, "seed", 0, None))
