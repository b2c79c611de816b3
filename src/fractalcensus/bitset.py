"""Small helpers for subsets-as-bitmasks.

Ground sets are {0, ..., n-1} and subsets are Python ints with bit i set
when element i is present.  Everything downstream (matroids, set families,
signatures) speaks this encoding.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from ._lazy import np


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_from(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


@lru_cache(maxsize=None)
def _subset_sizes(n: int) -> "np.ndarray":
    """|X| for every subset X of {0..n-1}, as a read-only int8 table."""
    size = np.zeros(1 << n, dtype=np.int8)
    for e in range(n):
        size.reshape(-1, 2, 1 << e)[:, 1, :] += 1
    size.flags.writeable = False
    return size


@lru_cache(maxsize=None)
def subset_index(n: int, size: int) -> "np.ndarray":
    """All size-subsets of {0..n-1} as masks, ascending, as a read-only array.

    Empty when size is outside [0, n].  Subset queries gather over it
    instead of masking all 2^n subsets by size on every call.
    """
    idx = np.flatnonzero(_subset_sizes(n) == size)
    idx.flags.writeable = False
    return idx


def subset_masks(n: int, size: int) -> list[int]:
    """All size-subsets of {0..n-1} as masks, sorted ascending by value."""
    return subset_index(n, size).tolist()
