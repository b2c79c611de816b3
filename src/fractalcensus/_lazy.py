"""numpy, bound lazily: its code runs on the first attribute read, not here.

This is the standard library's ``importlib.util.LazyLoader`` recipe (the
approach of Scientific Python's SPEC 1). Every package module takes ``np``
from here, so importing the CLI costs no numpy import, and ``--help`` and
usage errors never pay one. No module-level code may read an attribute of
``np``: that would run the import at package import time.
"""
from __future__ import annotations

import importlib.util
import sys


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
    """Run numpy's import now, if no attribute read has run it yet."""
    np.ndarray  # noqa: B018 - the first attribute read executes the module
