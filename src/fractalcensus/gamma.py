"""Boundary-ratio tables and growth-exponent estimates.

For each ground-set size the boundary ratio compares the excluded minors
found by the constructive search (a lower bound, since the search is
restricted to the generated families) against the census of members.  The
ratio gamma = x / (m + x) is carried as an exact rational and printed both
ways.  Slope fits read the growth exponent of a count series from a
log-log least-squares line.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from ._caps import GAMMA_SK_T
from ._lazy import np
from .biasedlift import (
    TooLarge,
    check_strata_size,
    sk_excluded_minor_classes,
    strata_rows,
    strata_total,
)
from .kernel import MatroidError, OutOfRange
from .sparsepaving import TooSmall, census_pk, exminor_shards, sweep_excluded_minors


class DegenerateSeries(MatroidError):
    """Too few points, or counts a log cannot digest."""


class GammaRow(NamedTuple):
    n: int
    m_count: int
    m_mode: str
    x_count: int
    x_mode: str
    gamma: Fraction


class SlopeEstimate(NamedTuple):
    exponent: float
    window: tuple[int, int]
    residual: float


def _ratio(x: int, m: int) -> Fraction:
    if m + x == 0:
        return Fraction(0)
    return Fraction(x, m + x)


def gamma_pk_table(k: int, sizes: range) -> list[GammaRow]:
    """Boundary ratios for the sparse paving class at each size.

    Member counts are exact census values; excluded-minor counts come from
    the band sweep, one sweep_excluded_minors call for every size, and are
    lower bounds.
    """
    if not isinstance(sizes, range) or sizes.step < 0:
        raise OutOfRange("sizes must be an ascending range")
    # the last size meets the sweep's caps first; a negative one reaches census_pk
    exminor_shards(max([0, *sizes[-1:]]), k)
    # every census first, so a size census_pk refuses is refused before the
    # sweep, and then one sweep over all sizes
    members = [sum(row.count for row in census_pk(n, k)) for n in sizes]
    found = sweep_excluded_minors(sizes, k)
    return [
        GammaRow(n, m, "exact", len(x), "lower", _ratio(len(x), m))
        for n, m, x in zip(sizes, members, found)
    ]


def gamma_sk_table(k: int, half_sizes: range) -> list[GammaRow]:
    """Boundary ratios for the spike-minor class over a half-size window.

    Rows run over every ground-set size from twice the smallest half-size
    to twice the largest.  Member counts are strata totals, hence upper
    bounds.  Odd sizes get zero excluded minors: beyond a threshold all
    excluded minors are even-sized, and the constructive search only
    produces even ones.
    """
    if k < 2:
        raise OutOfRange(f"spike-minor ratios need bound >= 2, got {k}")
    if not isinstance(half_sizes, range) or half_sizes.step < 0:
        raise OutOfRange("half-sizes must be an ascending range")
    if not half_sizes:
        return []
    # the largest size is the last row: refuse it before the first
    lo, hi = half_sizes[0], half_sizes[-1]
    check_strata_size(2 * hi, k)
    cap = GAMMA_SK_T.get(k)
    if cap is not None and hi > cap:
        raise TooLarge(f"spike-minor ratios capped at t = {cap} at k = {k}")
    rows = []
    for n in range(2 * lo, 2 * hi + 1):
        m = strata_total(strata_rows(n, k))
        x = 0
        if n % 2 == 0:
            try:
                x = len(sk_excluded_minor_classes(n // 2, k))
            except TooSmall:
                x = 0
        rows.append(GammaRow(n, m, "upper", x, "lower", _ratio(x, m)))
    return rows


def _decimal_12(g: Fraction) -> str:
    """g >= 0 to 12 decimal places, exactly, with ties to even."""
    q = round(g * 10**12)
    return f"{q // 10**12}.{q % 10**12:012d}"


def gamma_csv(rows: list[GammaRow]) -> str:
    lines = ["n,m_count,m_mode,x_count,x_mode,gamma_num,gamma_den,gamma"]
    for r in rows:
        lines.append(
            f"{r.n},{r.m_count},{r.m_mode},{r.x_count},{r.x_mode},"
            f"{r.gamma.numerator},{r.gamma.denominator},{_decimal_12(r.gamma)}"
        )
    return "\n".join(lines) + "\n"


def slope_fit(
    series: Iterable[tuple[int, int]], window: tuple[int, int] | None = None
) -> SlopeEstimate:
    """Least-squares exponent of count ~ size^e on the log-log scale."""
    pts = sorted((int(n), c) for n, c in series)
    if window is not None:
        lo, hi = window
        pts = [(n, c) for n, c in pts if lo <= n <= hi]
    if len(pts) < 5:
        raise DegenerateSeries(f"need at least 5 points, got {len(pts)}")
    if any(n <= 0 or c <= 0 for n, c in pts):
        raise DegenerateSeries("sizes and counts must be positive")
    xs = np.array([math.log(n) for n, _ in pts])
    ys = np.array([math.log(c) for _, c in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    residual = float(np.sqrt(np.mean((ys - fit) ** 2)))
    return SlopeEstimate(float(slope), (pts[0][0], pts[-1][0]), residual)
