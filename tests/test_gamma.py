"""Boundary-ratio tables, CSV shape, and slope fits."""
from fractions import Fraction

import pytest

from fractalcensus.gamma import (
    DegenerateSeries,
    GammaRow,
    SlopeEstimate,
    gamma_csv,
    gamma_pk_table,
    gamma_sk_table,
    slope_fit,
)
from fractalcensus import gamma
from fractalcensus.biasedlift import TooLarge
from fractalcensus.kernel import OutOfRange
from fractalcensus.sparsepaving import BoundTooLarge


def test_pk_anchor_row():
    rows = gamma_pk_table(1, [6])
    assert rows == [GammaRow(6, 12, "exact", 1, "lower", Fraction(1, 13))]


def test_pk_table_modes_and_bounds():
    rows = gamma_pk_table(3, range(8, 12))
    assert [r.n for r in rows] == [8, 9, 10, 11]
    for r in rows:
        assert r.m_mode == "exact" and r.x_mode == "lower"
        assert 0 <= r.gamma < 1
        assert r.gamma == Fraction(r.x_count, r.m_count + r.x_count)


def test_sk_table_rows_and_odd_sizes():
    rows = gamma_sk_table(2, range(6, 11))
    assert [r.n for r in rows] == list(range(12, 21))
    by_n = {r.n: r for r in rows}
    assert by_n[12].x_count == 1
    for n in range(13, 21):
        assert by_n[n].x_count == 0
        assert by_n[n].gamma == 0
    for r in rows:
        assert r.m_mode == "upper" and r.x_mode == "lower"
    with pytest.raises(OutOfRange):
        gamma_sk_table(1, [6])
    with pytest.raises(TooLarge):
        gamma_sk_table(7, [6])
    assert gamma_sk_table(2, []) == []


def test_gamma_csv_format():
    text = gamma_csv(gamma_pk_table(1, [6, 7]))
    lines = text.splitlines()
    assert lines[0] == "n,m_count,m_mode,x_count,x_mode,gamma_num,gamma_den,gamma"
    assert lines[1] == "6,12,exact,1,lower,1,13,0.076923076923"
    assert lines[2].endswith(",0,1,0.000000000000")
    assert text.endswith("\n")


def test_gamma_decimal_matches_rational():
    rows = gamma_pk_table(2, range(6, 14))
    text = gamma_csv(rows)
    for row, line in zip(rows, text.splitlines()[1:]):
        num, den, dec = line.split(",")[-3:]
        assert Fraction(int(num), int(den)) == row.gamma
        # the printed decimal agrees with the rational to all 12 digits
        assert abs(Fraction(dec) - row.gamma) <= Fraction(1, 2 * 10 ** 12)


def test_slope_exact_powers():
    est = slope_fit([(n, n ** 3) for n in range(5, 40)])
    assert abs(est.exponent - 3) < 1e-9
    est = slope_fit([(n, 7) for n in range(5, 15)])
    assert abs(est.exponent) < 1e-9
    assert est.window == (5, 14)
    assert est.residual < 1e-9


def test_slope_window_filter():
    series = [(n, n ** 2) for n in range(5, 30)]
    est = slope_fit(series, window=(10, 20))
    assert est.window == (10, 20)
    assert abs(est.exponent - 2) < 1e-9


def test_slope_degenerate():
    with pytest.raises(DegenerateSeries):
        slope_fit([(1, 1), (2, 2), (3, 3), (4, 4)])
    with pytest.raises(DegenerateSeries):
        slope_fit([(n, 0) for n in range(1, 9)])
    with pytest.raises(DegenerateSeries):
        slope_fit([(n, n) for n in range(5, 30)], window=(100, 200))


def test_slope_estimate_is_frozen():
    est = SlopeEstimate(2.0, (1, 9), 0.0)
    with pytest.raises(AttributeError):
        est.exponent = 3.0


def test_pk_table_checks_sweep_bound_before_census(monkeypatch):
    def census(n, k):
        raise AssertionError("census ran before the bound check")

    monkeypatch.setattr(gamma, "census_pk", census)
    with pytest.raises(BoundTooLarge):
        gamma_pk_table(5, [8])
