"""Worker counts for sharded sweeps."""
import os

from fractalcensus.parallel import thread_count


def test_thread_count_counts_usable_cpus(monkeypatch):
    monkeypatch.delenv("FRACTAL_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    # a process pinned to one CPU of a 64-CPU host runs one worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("FRACTAL_THREADS", "2")
    assert thread_count() == 2
    monkeypatch.delenv("FRACTAL_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert thread_count() == 64
