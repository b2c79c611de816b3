"""Deterministic work sharding.

Heavy sweeps split into independent shards whose results merge in shard
order, so output never depends on worker count. FRACTAL_THREADS picks
the worker count; unset means one per CPU this process may use.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

S = TypeVar("S")
R = TypeVar("R")


class BadThreadCount(ValueError):
    pass


def thread_count() -> int:
    raw = os.environ.get("FRACTAL_THREADS")
    if raw is None:
        # the CPUs this process may run on: taskset or a cpuset can leave
        # fewer than the host has
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise BadThreadCount(f"FRACTAL_THREADS={raw!r} is not an integer") from None
    if value < 1:
        raise BadThreadCount(f"FRACTAL_THREADS={raw!r} must be positive")
    return value


def run_sharded(func: Callable[[S], R], shards: Sequence[S]) -> list[R]:
    """Apply func to every shard, results in shard order.

    func must be a module-level callable and shards picklable when more
    than one worker is in play; a single worker runs everything inline.
    """
    workers = min(thread_count(), len(shards))
    if workers <= 1:
        return [func(shard) for shard in shards]
    # imported here: multiprocessing and socket cost a process 17-28 ms
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, shards))
