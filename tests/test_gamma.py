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
    rows = gamma_pk_table(1, range(6, 7))
    assert rows == [GammaRow(6, 12, "exact", 1, "lower", Fraction(1, 13))]


def test_pk_table_below_four_elements_has_no_excluded_minors():
    # no rank r with 2 <= r <= n - 2 leaves no sweep shard, so x is 0
    rows = gamma_pk_table(1, range(0, 4))
    assert [r.n for r in rows] == [0, 1, 2, 3]
    assert [r.x_count for r in rows] == [0, 0, 0, 0]


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
        gamma_sk_table(1, range(6, 7))
    with pytest.raises(TooLarge):
        gamma_sk_table(7, range(6, 7))
    assert gamma_sk_table(2, range(6, 6)) == []


@pytest.mark.parametrize(
    "table, sizes",
    [
        (gamma_pk_table, [8, 20]),
        (gamma_pk_table, range(9, 7, -1)),
        (gamma_pk_table, iter(range(8, 10))),
        (gamma_sk_table, [10, 6]),
        (gamma_sk_table, range(10, 5, -1)),
    ],
)
def test_tables_refuse_anything_but_an_ascending_range(table, sizes, monkeypatch):
    # the caps read only the last size, so no other sequence is taken
    def census(n, k):
        raise AssertionError("census ran before the range check")

    monkeypatch.setattr(gamma, "census_pk", census)
    with pytest.raises(OutOfRange):
        table(2, sizes)


def test_gamma_csv_format():
    text = gamma_csv(gamma_pk_table(1, range(6, 8)))
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
        gamma_pk_table(5, range(8, 9))


def test_pk_table_checks_last_size_before_census(monkeypatch):
    # n = 17 is past the sweep's cap: rows 14-16 are never built
    def census(n, k):
        raise AssertionError("census ran before the size check")

    monkeypatch.setattr(gamma, "census_pk", census)
    with pytest.raises(BoundTooLarge):
        gamma_pk_table(2, range(14, 18))


def _exact_12(g: Fraction) -> str:
    """g to 12 places by integer division, a remainder of half going to even."""
    q, rem = divmod(g.numerator * 10**12, g.denominator)
    if 2 * rem > g.denominator or (2 * rem == g.denominator and q % 2):
        q += 1
    return f"{q // 10**12}.{q % 10**12:012d}"


def test_decimal_12_rounds_exactly_with_ties_to_even():
    assert gamma._decimal_12(Fraction(0)) == "0.000000000000"
    assert gamma._decimal_12(Fraction(1)) == "1.000000000000"
    assert gamma._decimal_12(Fraction(1, 2 * 10**12)) == "0.000000000000"
    assert gamma._decimal_12(Fraction(3, 2 * 10**12)) == "0.000000000002"
    assert gamma._decimal_12(Fraction(2 * 10**12 - 1, 2 * 10**12)) == "1.000000000000"
    cases = []
    for x in (1, 3, 5, 7, 999, 10**12 - 1, 10**12 + 1, 1234567890123, 2 * 10**12 - 1):
        # the tie, a quarter unit either side, and one part in 2 * 10^56 either
        # side over a 57-digit denominator
        cases += [Fraction(x, 2 * 10**12), Fraction(2 * x - 1, 4 * 10**12)]
        cases += [Fraction(2 * x + 1, 4 * 10**12)]
        for nudge in (-1, 1):
            near = Fraction(x * 10**44 + nudge, 2 * 10**56)
            assert len(str(near.denominator)) == 57
            cases.append(near)
            # past the 60 digits a decimal division would keep
            cases.append(Fraction(x * 10**60 + nudge, 2 * 10**72))
    for g in cases:
        assert gamma._decimal_12(g) == _exact_12(g), g
