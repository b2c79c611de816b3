"""Desk-scale matroid censuses: sparse paving families, biased-graph lifts,
excluded-minor generators and boundary-ratio tables."""

__all__ = [
    "Matroid",
    "RankedFlat",
    "make_matroid",
    "uniform",
    "direct_sum",
    "is_excluded_minor",
]


def __getattr__(name: str):
    # The kernel loads on first use. Its modules bind numpy lazily, and the
    # CLI configures numpy's BLAS threads and then loads it after parsing its
    # arguments, so `--help` and usage errors never load numpy.
    if name in __all__:
        from . import kernel

        return getattr(kernel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
