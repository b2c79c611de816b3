"""Worker counts and the forked pool behind sharded sweeps."""
import os
import signal
import subprocess
import sys
import time

import pytest

from fractalcensus.parallel import BadThreadCount, WorkerDied, run_sharded, thread_count
from test_cli import _env


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


@pytest.mark.parametrize("raw", [" 2 ", "+2", "02", "2"])
def test_thread_count_reads_plain_decimals(raw, monkeypatch):
    monkeypatch.setenv("FRACTAL_THREADS", raw)
    assert thread_count() == 2


@pytest.mark.parametrize("raw", ["1_0", "٢", "２", "2.0", "", "0", "-2"])
def test_thread_count_refuses_other_forms(raw, monkeypatch):
    # int() reads "1_0" as 10 and Arabic-Indic or fullwidth digits as 2
    monkeypatch.setenv("FRACTAL_THREADS", raw)
    with pytest.raises(BadThreadCount):
        thread_count()


# -- the pool ---------------------------------------------------------------------


@pytest.fixture
def deadline():
    """Fail a test that runs past 30 s, instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError("run_sharded did not return within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _no_children_left():
    # every worker has been reaped, not only killed
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square_late_first(i):
    # later shards finish first, so results arrive out of shard order
    time.sleep(0.02 * (8 - i))
    return i * i, os.getpid()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_come_in_shard_order(workers, monkeypatch, deadline):
    monkeypatch.setenv("FRACTAL_THREADS", str(workers))
    got = run_sharded(_square_late_first, range(8))
    assert [value for value, _ in got] == [i * i for i in range(8)]
    pids = {pid for _, pid in got}
    if workers == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and 1 < len(pids) <= workers
    _no_children_left()


def test_runs_inline_without_fork(monkeypatch):
    monkeypatch.setenv("FRACTAL_THREADS", "3")
    monkeypatch.delattr(os, "fork")
    got = run_sharded(_square_late_first, range(4))
    assert got == [(i * i, os.getpid()) for i in range(4)]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("slow", [1, 3])
def test_first_failing_shard_is_raised(workers, slow, monkeypatch, deadline):
    # shards 1 and 3 fail; whichever fails first in time, shard 1's
    # exception is raised, as the inline loop raises it
    def fail(i):
        if i == slow:
            time.sleep(0.3)
        if i == 1:
            raise ValueError("shard one")
        if i == 3:
            raise KeyError("shard three")
        return i

    monkeypatch.setenv("FRACTAL_THREADS", str(workers))
    with pytest.raises(ValueError, match="^shard one$"):
        run_sharded(fail, range(6))
    _no_children_left()


@pytest.mark.parametrize("death", ["exit 3", "exit 0", "killed"])
def test_dead_worker_raises(death, monkeypatch, deadline):
    def die(i):
        if i == 2 and death == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        if i == 2:
            os._exit(int(death[-1]))  # "exit 0" sends no result for shard 2
        time.sleep(0.05)
        return i

    monkeypatch.setenv("FRACTAL_THREADS", "2")
    start = time.monotonic()
    with pytest.raises(WorkerDied):
        run_sharded(die, range(6))
    assert time.monotonic() - start < 10
    _no_children_left()


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/fd")
def test_failed_fork_leaves_no_worker_or_pipe(monkeypatch, deadline):
    # the second fork fails: the first worker is killed and reaped, and
    # every pipe end is closed
    fork = os.fork
    forks = []

    def fork_once():
        forks.append(None)
        if len(forks) > 1:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return fork()

    monkeypatch.setenv("FRACTAL_THREADS", "3")
    monkeypatch.setattr(os, "fork", fork_once)
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        run_sharded(abs, range(6))
    assert sorted(os.listdir("/proc/self/fd")) == before
    _no_children_left()


def test_buffered_stdout_is_written_once():
    # stdout to a pipe is block-buffered: a worker that flushed its copy of
    # the buffer would print "before" twice
    probe = (
        "import sys\n"
        "from fractalcensus.parallel import run_sharded\n"
        "sys.stdout.write('before\\n')\n"
        "print(run_sharded(abs, [-1, -2, -3]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_env("2")
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "before\n[1, 2, 3]\n", "")


def test_two_worker_cli_loads_no_pool_library():
    probe = (
        "import sys\n"
        "from fractalcensus.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "pools = ('concurrent.futures', 'multiprocessing')\n"
        "print(code, *[name for name in pools if name in sys.modules], file=sys.stderr)\n"
    )
    argv = ["sp", "exminors", "--n", "8", "--k", "2"]
    runs = [
        subprocess.run(
            [sys.executable, "-c", probe, *argv],
            capture_output=True,
            text=True,
            env=_env(threads),
        )
        for threads in ("1", "2")
    ]
    assert [run.stderr for run in runs] == ["0\n", "0\n"]
    assert runs[0].stdout == runs[1].stdout and runs[0].stdout.startswith("[{")
