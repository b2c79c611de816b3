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
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable

import numpy as np

from .biasedlift import (
    check_strata_size,
    sk_excluded_minor_classes,
    strata_rows,
    strata_total,
)
from .kernel import MatroidError, OutOfRange
from .sparsepaving import TooSmall, census_pk, exminor_shards, sp_excluded_minors


class DegenerateSeries(MatroidError):
    """Too few points, or counts a log cannot digest."""


@dataclass(frozen=True)
class GammaRow:
    n: int
    m_count: int
    m_mode: str
    x_count: int
    x_mode: str
    gamma: Fraction


@dataclass(frozen=True)
class SlopeEstimate:
    exponent: float
    window: tuple[int, int]
    residual: float


def _ratio(x: int, m: int) -> Fraction:
    if m + x == 0:
        return Fraction(0)
    return Fraction(x, m + x)


def gamma_pk_table(k: int, sizes: Iterable[int]) -> list[GammaRow]:
    """Boundary ratios for the sparse paving class at each size.

    Member counts are exact census values; excluded-minor counts come from
    the band sweep sp_excluded_minors and are lower bounds.
    """
    # refuse the sweep's caps before the first row; the census reports a negative size
    sizes = list(sizes)
    exminor_shards(max([0, *sizes]), k)
    rows = []
    for n in sizes:
        m = sum(row.count for row in census_pk(n, k))
        x = len(sp_excluded_minors(n, k))
        rows.append(GammaRow(n, m, "exact", x, "lower", _ratio(x, m)))
    return rows


def gamma_sk_table(k: int, half_sizes: Iterable[int]) -> list[GammaRow]:
    """Boundary ratios for the spike-minor class over a half-size window.

    Rows run over every ground-set size from twice the smallest half-size
    to twice the largest.  Member counts are strata totals, hence upper
    bounds.  Odd sizes get zero excluded minors: beyond a threshold all
    excluded minors are even-sized, and the constructive search only
    produces even ones.
    """
    if k < 2:
        raise OutOfRange(f"spike-minor ratios need bound >= 2, got {k}")
    ts = sorted(set(int(t) for t in half_sizes))
    if not ts:
        return []
    # the largest size is the last row: refuse it before the first
    check_strata_size(2 * ts[-1], k)
    rows = []
    for n in range(2 * ts[0], 2 * ts[-1] + 1):
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
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(g.numerator) / Decimal(g.denominator)
        return format(d.quantize(Decimal("1.000000000000")), "f")


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
