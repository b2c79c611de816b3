"""Desk-scale matroid censuses: sparse paving families, biased-graph lifts,
excluded-minor generators and boundary-ratio tables."""

__all__ = [
    "Matroid",
    "SetFamily",
    "RankedFlat",
    "make_matroid",
    "uniform",
    "direct_sum",
    "is_excluded_minor",
]


def __getattr__(name: str):
    # The kernel, and numpy with it, loads on first use, so that
    # `python -m fractalcensus.cli` can configure numpy before it loads.
    if name in __all__:
        from . import kernel

        return getattr(kernel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
