"""Run one fractalcensus CLI invocation in-process with timing spans.

Usage: python3 bench/tracerun.py TRACE_FILE CLI_ARG...

Wraps the public functions listed in ``TARGETS`` before calling
``fractalcensus.cli.main(CLI_ARG...)``, so the invocation behaves and prints
exactly as ``python -m fractalcensus.cli CLI_ARG...`` does.  A wrapper is
bound in every ``fractalcensus`` module namespace that holds the original
function (``from .kernel import is_excluded_minor`` makes a second binding
in ``sparsepaving``), so calls made through any import are seen.  Spans
stay in memory and are written to TRACE_FILE as JSON when the call ends.
Run it with FRACTAL_THREADS=1: spans recorded in pool workers are lost.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# span name -> (module, attribute path of the traced callable)
TARGETS = {
    "kernel.make_matroid": ("fractalcensus.kernel", "make_matroid"),
    "kernel.matroid_from_json": ("fractalcensus.kernel", "matroid_from_json"),
    "kernel.matroid_to_json": ("fractalcensus.kernel", "matroid_to_json"),
    "kernel.is_excluded_minor": ("fractalcensus.kernel", "is_excluded_minor"),
    "kernel.is_sparse_paving": ("fractalcensus.kernel", "Matroid.is_sparse_paving"),
    "kernel.circuit_hyperplanes": ("fractalcensus.kernel", "Matroid.circuit_hyperplanes"),
    "kernel.minor": ("fractalcensus.kernel", "Matroid.minor"),
    "kernel.is_isomorphic": ("fractalcensus.kernel", "Matroid.is_isomorphic"),
    "sparsepaving.exminor_shard": ("fractalcensus.sparsepaving", "exminor_shard"),
    "sparsepaving.census_pk": ("fractalcensus.sparsepaving", "census_pk"),
    "sparsepaving.pk_member": ("fractalcensus.sparsepaving", "pk_member"),
    "biasedlift.census_sk_exact": ("fractalcensus.biasedlift", "census_sk_exact"),
    "biasedlift.lift_matroid": ("fractalcensus.biasedlift", "lift_matroid"),
    "biasedlift.glance_signature": ("fractalcensus.biasedlift", "glance_signature"),
    "gamma.gamma_pk_table": ("fractalcensus.gamma", "gamma_pk_table"),
    "gamma.gamma_sk_table": ("fractalcensus.gamma", "gamma_sk_table"),
    "gamma.gamma_csv": ("fractalcensus.gamma", "gamma_csv"),
    "parallel.run_sharded": ("fractalcensus.parallel", "run_sharded"),
    "cli.main": ("fractalcensus.cli", "main"),
}

# What a span records besides its times: boolean results as they are, the
# classes a shard verified, and the shards handed to the pool.
_NOTES = {
    "sparsepaving.exminor_shard": lambda args, result: len(result),
    "parallel.run_sharded": lambda args, result: len(args[1]),
}


def _note_result(name, args, result):
    note = _NOTES.get(name)
    if note is not None:
        return note(args, result)
    return result if isinstance(result, bool) else None


class Tracer:
    """Spans of one invocation: [name, start, end, parent index, note].

    A call that raises records ``"raised:<exception class>"`` as its note.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name, func):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            note = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                note = _note_result(name, args, result)
                return result
            except BaseException as exc:
                note = f"raised:{type(exc).__name__}"
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, note]

        return traced

    def install(self) -> dict[str, list[str]]:
        """Wrap every target; return span name -> namespaces rebound."""
        import importlib

        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "fractalcensus" or key.startswith("fractalcensus.")
        ]
        bindings = {}
        for name, (module_name, path) in TARGETS.items():
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            if outer:  # a method: one binding, on its class
                setattr(owner, attr, wrapper)
                bindings[name] = [f"{module_name}.{path}"]
                continue
            bindings[name] = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        bindings[name].append(f"{mod.__name__}.{key}")
        return bindings

    def dump(self, path: str, bindings: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"bindings": bindings, "spans": self.spans}, fh)


def main(trace_file: str, cli_args: list[str]) -> int:
    import fractalcensus.cli

    tracer = Tracer()
    bindings = tracer.install()
    try:
        return fractalcensus.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors and --help
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(trace_file, bindings)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
