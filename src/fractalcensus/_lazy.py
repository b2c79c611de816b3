"""numpy, bound lazily: its code runs on the first attribute read, not here.

This is the standard library's ``importlib.util.LazyLoader`` recipe (the
approach of Scientific Python's SPEC 1). Every package module takes ``np``
from here, so importing the CLI costs no numpy import, and ``--help`` and
usage errors never pay one. No module-level code may read an attribute of
``np``: that would run the import at package import time.

``load_numpy`` runs the import with the garbage collector paused, then
freezes every object alive at that point (interpreter, standard library,
numpy and package modules), the pattern of ``gc.freeze``'s documentation.
Those objects live until exit anyway, so no collection during numpy's load,
no later collection, and not the interpreter's final one at exit walks
them, and forked pool workers write no collector headers on the parent's
pages. The collector only ever frees unreachable objects, so this moves
time, never a result.
"""
from __future__ import annotations

import gc
import importlib.util
import sys
from types import ModuleType


def _lazy_module(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")


def load_numpy() -> None:
    """Run numpy's import now, if no attribute read has run it yet.

    Only the call that runs the import freezes the heap, so a process
    freezes at most once, and the collector is left as the caller had it.
    """
    # the lazy module turns into a plain module once its code has run
    if type(np) is ModuleType:
        return
    enabled = gc.isenabled()
    gc.disable()
    try:
        np.ndarray  # noqa: B018 - the first attribute read executes the module
        gc.freeze()
    finally:
        if enabled:
            gc.enable()
