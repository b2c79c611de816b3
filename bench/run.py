"""fractalcensus benchmark: timed CLI workloads and a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {pk_sweep,sk_catalog,matroid_files,all}
                         --seed N --seconds S --trace {0,1}

Every invocation is a fresh ``python -m fractalcensus.cli`` process with cold
caches, as a user's run is, so nothing is warmed up.  Invocations run one
at a time (a closed loop with one client); with FRACTAL_THREADS=2 the CLI
adds its own two pool workers, which matches the two cores measured on.

``--trace 0`` measures the end-to-end metrics: pairs of passes over the
workload at FRACTAL_THREADS=1 and 2, as many as fit in ``--seconds`` at the
seed commit, with no-op invocations (``setup_s``) between them.  ``--trace 1``
runs an untraced pass at 1 thread, the same pass through ``tracerun.py`` at
1 thread, a pass at 2 threads and another untraced one at 1 thread, and
reports per-layer metrics from the spans.  Every output is checked against a reference (see
``workloads.py``) and the two thread counts must print identical bytes.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  A result file with the samples and the machine goes to
``bench/results/``.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracerun import TARGETS
from workloads import SETUP_INVOCATION, WORKLOADS, Invocation, spike_builds

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_FIRST = 5
# Seconds one pair of passes (FRACTAL_THREADS=1 and 2) took at the seed
# commit on the 2-core machine of bench/baseline.json.  A run makes
# --seconds / this many pairs, at least one: the count depends on --seconds
# alone, so every commit is measured on the same number of samples and the
# tail percentile stays the same one.
PAIR_SECONDS = {"pk_sweep": 3.3, "sk_catalog": 4.5, "matroid_files": 26}
INVOCATION_TIMEOUT_S = 150
TAIL_BEYOND = 10

# per-layer metrics reported for each traced span, besides the three
# derived ones (shard imbalance, extra CPU at two threads, trace overhead)
LAYER_FIELDS = {
    "kernel.make_matroid": ("calls", "self_s", "rejected"),
    "kernel.matroid_from_json": ("self_s",),
    "kernel.matroid_to_json": ("self_s",),
    "kernel.is_excluded_minor": ("calls", "self_s", "confirmed_ratio"),
    "kernel.is_sparse_paving": ("calls", "self_s"),
    "kernel.circuit_hyperplanes": ("calls", "self_s"),
    "kernel.minor": ("calls", "self_s"),
    "kernel.is_isomorphic": ("calls", "self_s", "true_ratio"),
    "sparsepaving.exminor_shard": ("calls", "self_s", "classes"),
    "sparsepaving.census_pk": ("self_s",),
    "sparsepaving.pk_member": ("self_s",),
    "biasedlift.census_sk_exact": ("self_s",),
    "biasedlift.lift_matroid": ("calls", "self_s"),
    "biasedlift.glance_signature": ("calls", "self_s"),
    "gamma.gamma_pk_table": ("self_s",),
    "gamma.gamma_sk_table": ("self_s",),
    "gamma.gamma_csv": ("self_s",),
    "parallel.run_sharded": ("calls", "shards"),
    "cli.main": ("self_s",),
}
UNITS = {
    "calls": "count", "self_s": "s", "rejected": "count", "confirmed_ratio": "ratio",
    "true_ratio": "ratio", "classes": "count", "shards": "count",
}


@dataclass
class Sample:
    label: str
    threads: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    out: bytes = field(repr=False)
    failure: str | None


@dataclass
class Pass:
    threads: int
    traced: bool
    wall_s: float
    samples: list[Sample]

    @property
    def cpu_s(self) -> float:
        return sum(s.cpu_s for s in self.samples)

    @property
    def peak_rss_mb(self) -> float:
        return max(s.rss_mb for s in self.samples)


class Runner:
    """Starts CLI processes in a scratch directory and measures each one."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.traces: list[Path] = []
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, inv: Invocation, threads: int, traced: bool = False) -> Sample:
        if traced:
            trace = self.workdir / f"trace{len(self.traces)}.json"
            self.traces.append(trace)
            cmd = [sys.executable, str(BENCH / "tracerun.py"), str(trace), *inv.argv]
        else:
            cmd = [sys.executable, "-m", "fractalcensus.cli", *inv.argv]
        env = dict(self.env, FRACTAL_THREADS=str(threads))
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True)
            # os.wait4 gives this child's own rusage (its pool workers
            # included), unlike RUSAGE_CHILDREN's high-water mark over all
            timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        failure = inv.check(code, stdout, stderr)
        self.attempted += 1
        if failure:
            self.failures.append(f"{inv.label} (FRACTAL_THREADS={threads}{', traced' if traced else ''}): {failure}")
        return Sample(inv.label, threads, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code, stdout, failure)

    def run_pass(self, invocations: list[Invocation], threads: int, traced: bool = False) -> Pass:
        start = perf_counter()
        samples = [self.invoke(inv, threads, traced) for inv in invocations]
        return Pass(threads, traced, perf_counter() - start, samples)

    def compare(self, reference: Pass, other: Pass) -> None:
        """Each invocation must print the same bytes as in ``reference``."""
        for a, b in zip(reference.samples, other.samples):
            if a.out != b.out and b.failure is None:
                b.failure = "stdout differs between FRACTAL_THREADS=1 and the other pass"
                self.failures.append(f"{b.label} (FRACTAL_THREADS={b.threads}): {b.failure}")


# -- statistics ----------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, str]:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    With fewer than 2 * 10 + 1 samples no percentile above the median
    qualifies, and the maximum is reported and labelled as such.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return xs[-1], f"max of {n} samples (fewer than {2 * TAIL_BEYOND + 1}, so no percentile above p50 has {TAIL_BEYOND} beyond it)"
    q = 100 * (n - TAIL_BEYOND) // n
    return xs[n - TAIL_BEYOND - 1], f"p{q} of {n} samples, {TAIL_BEYOND} beyond it"


def end_to_end(setup: list[Sample], pairs: list[tuple[Pass, Pass]]) -> tuple[dict, dict]:
    one = [p for p, _ in pairs]
    two = [p for _, p in pairs]
    latencies = [s.wall_s for p in one for s in p.samples]
    tail_value, tail_note = tail(latencies)
    # the median over a pass's commands of each command's median latency:
    # a pass of two commands of unlike size (pk_sweep) would otherwise put
    # the plain median between the slowest short and the fastest long run
    by_command: dict[str, list[float]] = {}
    for p in one:
        for s in p.samples:
            by_command.setdefault(s.label, []).append(s.wall_s)
    command_medians = [statistics.median(v) for v in by_command.values()]
    metrics = {
        "setup_s": (statistics.median(s.wall_s for s in setup), "s"),
        "wall_s": (statistics.median(p.wall_s for p in one), "s"),
        "wall_s_t2": (statistics.median(p.wall_s for p in two), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in one), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in one), "MB"),
        "cmd_s_p50": (statistics.median(command_medians), "s"),
        "cmd_s_tail": (tail_value, "s"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} `--help` invocations",
        "wall_s": f"median of {len(one)} passes at FRACTAL_THREADS=1",
        "wall_s_t2": f"median of {len(two)} passes at FRACTAL_THREADS=2",
        "cpu_s": f"median of {len(one)} passes at FRACTAL_THREADS=1, user + system of each child",
        "peak_rss_mb": f"median over {len(one)} passes of the largest child peak RSS",
        "cmd_s_p50": f"median over {len(by_command)} commands of each one's median over {len(one)} passes at FRACTAL_THREADS=1",
        "cmd_s_tail": tail_note,
    }
    return metrics, notes


def per_layer(runner: Runner, untraced: tuple[Pass, Pass], traced: Pass, threaded: Pass) -> tuple[dict, dict]:
    untraced_wall = statistics.fmean(p.wall_s for p in untraced)
    untraced_cpu = statistics.fmean(p.cpu_s for p in untraced)
    calls = {name: 0 for name in TARGETS}
    self_s = {name: 0.0 for name in TARGETS}
    truths = {name: 0 for name in TARGETS}
    counts = {name: 0 for name in TARGETS}
    raised = {name: 0 for name in TARGETS}
    imbalance, longest = 0.0, -1.0
    bindings: dict = {}
    for path in runner.traces:
        doc = json.loads(path.read_text(encoding="utf-8"))
        bindings = doc["bindings"]
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        children: dict[int, list[float]] = {}
        for name, start, end, parent, note in spans:
            if parent >= 0:
                covered[parent] += end - start
                if name == "sparsepaving.exminor_shard":
                    children.setdefault(parent, []).append(end - start)
        for index, (name, start, end, parent, note) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - covered[index]
            if note is True:
                truths[name] += 1
            elif isinstance(note, int) and not isinstance(note, bool):
                counts[name] += note
            elif isinstance(note, str) and note.startswith("raised:"):
                raised[name] += 1
            if name == "parallel.run_sharded" and end - start > longest and children.get(index):
                shard_times = children[index]
                longest = end - start
                imbalance = max(shard_times) / statistics.fmean(shard_times)

    true_share = {n: truths[n] / calls[n] if calls[n] else 0.0 for n in TARGETS}
    values = {
        "calls": calls,
        "self_s": self_s,
        "rejected": raised,
        "confirmed_ratio": true_share,
        "true_ratio": true_share,
        "classes": counts,
        "shards": counts,
    }
    m = {
        f"{name}.{field}": (values[field][name], UNITS[field])
        for name, fields in LAYER_FIELDS.items()
        for field in fields
    }
    m["parallel.shard_imbalance"] = (imbalance, "ratio")
    m["parallel.extra_cpu_s"] = (threaded.cpu_s - untraced_cpu, "s")
    m["trace.overhead_s"] = (traced.wall_s - untraced_wall, "s")
    notes = {
        "kernel.is_excluded_minor.confirmed_ratio": f"{truths['kernel.is_excluded_minor']} of {calls['kernel.is_excluded_minor']} calls",
        "kernel.is_isomorphic.true_ratio": f"{truths['kernel.is_isomorphic']} of {calls['kernel.is_isomorphic']} calls",
        "parallel.shard_imbalance": "longest exminor_shard over the mean, in the longest run_sharded call",
        "parallel.extra_cpu_s": f"cpu_s at FRACTAL_THREADS=2 ({threaded.cpu_s:.3f}) minus at 1 ({untraced_cpu:.3f}, mean of 2 passes)",
        "trace.overhead_s": f"traced pass {traced.wall_s:.3f} s minus untraced {untraced_wall:.3f} s (mean of 2 passes)",
    }
    return m, {"notes": notes, "bindings": bindings, "span_calls": calls}


def span_checks(workload: str, span_calls: dict) -> list[dict]:
    """Compare span call counts with the predictions in predictions.json."""
    spans = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))["spans"]
    out = []
    for name, pred in spans.items():
        calls = span_calls[name]
        if workload in pred.get("fires_on", ()):
            out.append({"span": name, "expect": "fires", "calls": calls, "ok": calls > 0})
        if workload in pred.get("zero_on", ()):
            out.append({"span": name, "expect": "zero calls", "calls": calls, "ok": calls == 0})
    return out


# -- environment -------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return got.stdout.strip() if got.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "FRACTAL_THREADS": "set per pass, see passes[].threads; 1 for set-up and traced passes",
        "FRACTAL_THREADS_inherited": os.environ.get("FRACTAL_THREADS"),
        "git_commit": git_commit(),
        "seed": seed,
    }


# -- one workload -----------------------------------------------------------------------


def prepare(runner: Runner, workload: str, rng: random.Random) -> list[Invocation]:
    if workload == "matroid_files":
        for build in spike_builds(rng, runner.workdir):
            sample = runner.invoke(build.invocation, 1)
            build.path.write_bytes(sample.out)
    return WORKLOADS[workload](rng, runner.workdir)


def measure(runner: Runner, invocations: list[Invocation], rng: random.Random, pairs: int):
    """Set-up samples, then ``pairs`` pairs of passes in seeded order.

    One set-up sample precedes every pass, so the set-up median spans the
    whole run rather than one moment of it.
    """
    setup = [runner.invoke(SETUP_INVOCATION, 1) for _ in range(SETUP_FIRST)]
    done = []
    for _ in range(pairs):
        order = rng.sample(invocations, len(invocations))
        pair = {}
        for threads in rng.sample((1, 2), 2):
            setup.append(runner.invoke(SETUP_INVOCATION, 1))
            pair[threads] = runner.run_pass(order, threads)
        runner.compare(pair[1], pair[2])
        done.append((pair[1], pair[2]))
    return setup, done


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    (BENCH / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BENCH / "work"))
    try:
        runner = Runner(workdir)
        invocations = prepare(runner, workload, rng)
        extra: dict = {}
        if trace:
            # untraced passes on both sides of the traced one, so drift in
            # machine speed cancels out of the overhead and extra CPU
            before = runner.run_pass(invocations, 1)
            traced = runner.run_pass(invocations, 1, traced=True)
            threaded = runner.run_pass(invocations, 2)
            after = runner.run_pass(invocations, 1)
            for other in (traced, threaded, after):
                runner.compare(before, other)
            metrics, extra = per_layer(runner, (before, after), traced, threaded)
            extra["span_checks"] = span_checks(workload, extra["span_calls"])
            passes = [before, traced, threaded, after]
            notes = extra.pop("notes")
        else:
            setup, pairs = measure(runner, invocations, rng, max(1, int(seconds / PAIR_SECONDS[workload])))
            metrics, notes = end_to_end(setup, pairs)
            passes = [p for pair in pairs for p in pair]
            extra["setup_samples"] = [s.wall_s for s in setup]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload,
        "trace": int(trace),
        "environment": environment(seed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "passes": [
            {
                "threads": p.threads,
                "traced": p.traced,
                "wall_s": p.wall_s,
                "invocations": [
                    {"label": s.label, "wall_s": s.wall_s, "cpu_s": s.cpu_s, "rss_mb": s.rss_mb, "exit": s.code}
                    for s in p.samples
                ],
            }
            for p in passes
        ],
        **extra,
    }


def report(result: dict) -> None:
    w = result["workload"]
    print(f"== {w} (seed {result['environment']['seed']}, trace {result['trace']})")
    for name, m in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"{w} {name:42s} {m['value']:>14.6f} {m['unit']:6s} {note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{w} {'fail_ratio':42s} {failed / attempted:>14.6f} ratio  {failed} of {attempted} invocations")
    for line in result["failures"]:
        print(f"{w} FAILED {line}")
    for check in result.get("span_checks", ()):
        status = "ok" if check["ok"] else "PREDICTION FAILED"
        print(f"{w} span {check['span']:32s} expect {check['expect']:10s} calls {check['calls']:>8d}  {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fractalcensus" / "cli.py").is_file():
        sys.stderr.write(f"no fractalcensus sources under {ROOT / 'src'}; run from the root of a checkout\n")
        return 2
    # the build: byte-compile once, so no timed start-up pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "fractalcensus")], check=True)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        report(result)
        out_dir = BENCH / "results"
        out_dir.mkdir(exist_ok=True)
        name = f"BENCH_{workload}_seed{args.seed}_trace{args.trace}.json"
        (out_dir / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
