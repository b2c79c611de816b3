"""Deterministic work sharding.

Heavy sweeps split into independent shards whose results merge in shard
order, so output never depends on worker count. FRACTAL_THREADS picks
the worker count; unset means one per CPU this process may use.

Workers are forked directly, with no concurrent.futures or multiprocessing
(whose imports cost a process 17-28 ms): they pull shard indices from one
task pipe, send each pickled result back on a pipe of their own, and leave
by os._exit, so no inherited stdio buffer or exit hook runs twice.  A fork
copies only the calling thread, and the CLI runs just one: it pins numpy's
BLAS pool to one thread unless the user exports a count.
"""

from __future__ import annotations

import os
import re
from typing import Callable, NoReturn, Sequence, TypeVar

S = TypeVar("S")
R = TypeVar("R")

_INDEX = 4  # bytes per shard index on the task pipe
_LENGTH = 8  # bytes of the length before each pickled result


class BadThreadCount(ValueError):
    pass


class WorkerDied(RuntimeError):
    """A pool worker exited before it sent every result it took on."""


def thread_count() -> int:
    raw = os.environ.get("FRACTAL_THREADS")
    if raw is None:
        # the CPUs this process may run on: taskset or a cpuset can leave
        # fewer than the host has
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    # ASCII digits only: int() would also read "1_0" and non-ASCII digits
    if not re.fullmatch(r"[+-]?[0-9]+", raw.strip()):
        raise BadThreadCount(f"FRACTAL_THREADS={raw!r} is not an integer")
    value = int(raw)
    if value < 1:
        raise BadThreadCount(f"FRACTAL_THREADS={raw!r} must be positive")
    return value


def run_sharded(func: Callable[[S], R], shards: Sequence[S]) -> list[R]:
    """Apply func to every shard, results in shard order.

    A single worker, or a platform without os.fork, runs everything
    inline.  Otherwise forked workers inherit func and the shards, and
    each result, or exception, must pickle.  The exception of the first
    failing shard in shard order is raised, as the inline loop would
    raise it; a worker that dies raises WorkerDied.  Every worker has
    been reaped when this returns or raises.
    """
    workers = min(thread_count(), len(shards))
    if workers <= 1 or not hasattr(os, "fork"):
        return [func(shard) for shard in shards]
    # imported here: pickle alone costs a command that loads no numpy 1.5 ms
    import pickle
    import select
    import signal

    tasks, feed = os.pipe()
    pids: dict[int, int] = {}  # result pipe -> pid of a worker not yet reaped
    try:
        for _ in range(workers):
            out, into = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(out)
                os.close(into)
                raise
            if pid == 0:
                _work(func, shards, tasks, into, (feed, out, *pids))
            os.close(into)
            pids[out] = pid
        os.close(tasks)
        tasks = -1
        # last shard first: the sweeps list their shards by growing size, and
        # the largest should not start last
        order = reversed(range(len(shards)))
        pending = b"".join(i.to_bytes(_INDEX, "little") for i in order)
        # at most PIPE_BUF bytes, in whole indices, so a write never splits one
        step = select.PIPE_BUF // _INDEX * _INDEX
        os.set_blocking(feed, False)
        received = {fd: bytearray() for fd in pids}
        while pids:
            wait = [feed] if feed >= 0 else []
            readable, writable, _ = select.select(list(pids), wait, [])
            if writable:
                try:
                    pending = pending[os.write(feed, pending[:step]) :]
                except BlockingIOError:
                    pass
                except BrokenPipeError:  # every worker has gone: see why below
                    pending = b""
                if not pending:  # the end of the tasks
                    os.close(feed)
                    feed = -1
            for fd in readable:
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    received[fd] += chunk
                    continue
                os.close(fd)
                pid = pids.pop(fd)
                status = os.waitpid(pid, 0)[1]
                if status != 0:
                    code = os.waitstatus_to_exitcode(status)
                    raise WorkerDied(f"pool worker {pid} exited with status {code}")
    finally:
        for fd in (tasks, feed, *pids):
            if fd >= 0:
                os.close(fd)
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    records = {}
    for data in map(memoryview, received.values()):
        while data:
            size = int.from_bytes(data[:_LENGTH], "little")
            i, ok, value = pickle.loads(data[_LENGTH : _LENGTH + size])
            records[i] = ok, value
            data = data[_LENGTH + size :]
    if len(records) != len(shards):
        raise WorkerDied(f"{len(shards) - len(records)} shards sent no result")
    results = []
    for i in range(len(shards)):
        ok, value = records[i]
        if not ok:
            raise value
        results.append(value)
    return results


def _work(func, shards, tasks: int, into: int, inherited) -> NoReturn:
    """A worker's whole life: close the inherited pipe ends, run each shard
    whose index arrives on tasks and send an (index, ok, result or
    exception) record on into, then exit 0 at the end of the tasks.  Any
    escape exits 1, never unwinding into the caller's frames."""
    import pickle

    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        while index := os.read(tasks, _INDEX):
            i = int.from_bytes(index, "little")
            try:
                blob = pickle.dumps((i, True, func(shards[i])))
            except Exception as exc:
                blob = pickle.dumps((i, False, exc))
            view = memoryview(len(blob).to_bytes(_LENGTH, "little") + blob)
            while view:
                view = view[os.write(into, view) :]
        code = 0
    finally:
        os._exit(code)
