"""End-to-end acceptance battery.

Ten criteria, one test each.  Every test records a single PASS/FAIL line
on the shared sheet (replayed after the run by conftest) and carries a
wall-clock budget; blowing the budget fails the criterion even when the
mathematics agrees.  Crashes record a FAIL line before propagating.
"""

import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations
from math import ceil, comb

from _acceptance import record

from fractalcensus.biasedlift import (
    CYCLE,
    _family_from_cells,
    _ham_mask,
    bottom_construct,
    bottom_solution_count,
    bottom_solutions,
    camera_fixtures,
    categorize,
    duality_check,
    ggraph,
    glance_isomorphic,
    glance_signature,
    spike_cyclic_flats,
    spike_from_spec,
    spike_spec,
    verify_sk_excluded_minor,
)
from fractalcensus.bitset import subset_masks
from fractalcensus.gamma import slope_fit
from fractalcensus.kernel import is_excluded_minor, make_matroid, relabel, uniform
from fractalcensus.sparsepaving import (
    canonical_signature,
    census_pk,
    ch_isomorphic,
    ch_to_matroid,
    chfamily,
    collar_construct,
    collar_index_sets,
    collar_solution_count,
    collar_solutions,
    count_signatures,
    pk_member,
    realize_signature,
)


def _run(num: int, desc: str, budget: float, body):
    start = time.monotonic()
    try:
        detail = body()
    except Exception as exc:
        record(num, desc, False, f"crashed: {exc!r}"[:150])
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < budget
    tail = f"{detail}; {elapsed:.1f}s of {budget:.0f}s"
    assert record(num, desc, ok, tail), tail


def all_families(n, r, m):
    """Every m-member family on n elements at rank r, in lexicographic order."""
    cands = list(subset_masks(n, r))
    out = []

    def rec(start, chosen):
        if len(chosen) == m:
            out.append(tuple(chosen))
            return
        for i in range(start, len(cands)):
            c = cands[i]
            if all((prev & ~c).bit_count() > 1 for prev in chosen):
                chosen.append(c)
                rec(i + 1, chosen)
                chosen.pop()

    rec(0, [])
    return out


# -- criterion 1 ---------------------------------------------------------------


def _criterion_1():
    """Map every family onto its signature witness, certify with the kernel.

    Positive direction: each family is kernel-isomorphic to the witness of
    its canonical signature, and ch_isomorphic agrees.  Negative direction:
    witnesses of distinct classes at the same ground size are pairwise
    non-isomorphic on both routes.  Transitivity covers all family pairs.
    """
    checked = 0
    witnesses = {}  # n -> list of (family, matroid), one per class
    for n in range(1, 9):
        entries = []
        for r in range(0, n + 1):
            fam = chfamily(n, r, ())
            entries.append((fam, ch_to_matroid(fam)))
            checked += 1
        for r in range(1, n):
            for m in range(1, 4):
                wit = {}
                for chs in all_families(n, r, m):
                    fam = chfamily(n, r, chs)
                    key = canonical_signature(fam)
                    got = wit.get(key)
                    if got is None:
                        wfam = realize_signature(key)
                        assert wfam is not None
                        assert canonical_signature(wfam) == key
                        got = wit[key] = (wfam, ch_to_matroid(wfam))
                    assert ch_isomorphic(fam, got[0])
                    assert ch_to_matroid(fam).is_isomorphic(got[1])
                    checked += 1
                entries.extend(wit.values())
        witnesses[n] = entries
    pairs = 0
    for n, entries in witnesses.items():
        for (f1, m1), (f2, m2) in combinations(entries, 2):
            assert not ch_isomorphic(f1, f2)
            assert not m1.is_isomorphic(m2)
            pairs += 1
    return f"{checked} families onto witnesses, {pairs} cross-class pairs"


def test_criterion_01():
    _run(
        1,
        "family isomorphism agrees with kernel checks on all families "
        "(n <= 8, up to 3 members)",
        180,
        _criterion_1,
    )


# -- criterion 2 ---------------------------------------------------------------


def _criterion_2():
    checked = 0
    for k in range(0, 4):
        cells = 1 << k
        for n in range(0, 21):
            assert count_signatures(k, n) == comb(n + cells - 1, cells - 1)
            checked += 1
    return f"{checked} closed-form comparisons"


def test_criterion_02():
    _run(
        2,
        "signature counts match the stars-and-bars closed form "
        "(m <= 3, n <= 20)",
        1,
        _criterion_2,
    )


# -- criterion 3 ---------------------------------------------------------------


def _criterion_3():
    assert len(collar_index_sets(3)) == 10
    total = classes = 0
    for n in range(8, 17):
        sols = list(collar_solutions(n, 3))
        assert len(sols) == collar_solution_count(n, 3)
        keys = set()
        for phi in sols:
            fam = collar_construct(phi, n, 3)
            assert fam.n == n and fam.k == 4
            mat = ch_to_matroid(fam)
            assert is_excluded_minor(mat, lambda x: pk_member(x, 3))
            keys.add(canonical_signature(fam))
            total += 1
        assert len(keys) >= ceil(len(sols) / 24)
        classes += len(keys)
    return f"{total} constructions all excluded minors, {classes} classes"


def test_criterion_03():
    _run(
        3,
        "every composition solution constructs a kernel-verified excluded "
        "minor (k = 3, n in 8..16)",
        120,
        _criterion_3,
    )


# -- criterion 4 ---------------------------------------------------------------


def _criterion_4():
    """Recount the census from scratch with kernel-only deduplication."""
    total = 0
    for n in range(2, 9):
        want = {row.m: row.count for row in census_pk(n, 3)}
        got = {m: 0 for m in range(4)}
        buckets = {}

        def fresh(mat, stratum):
            reps = buckets.setdefault((stratum, mat._invariant()), [])
            if any(mat.is_isomorphic(rep) for rep in reps):
                return False
            reps.append(mat)
            return True

        for r in range(0, n + 1):
            if fresh(uniform(r, n), 0):
                got[0] += 1
        for r in range(1, n):
            for m in range(1, 4):
                for chs in all_families(n, r, m):
                    total += 1
                    if fresh(ch_to_matroid(chfamily(n, r, chs)), m):
                        got[m] += 1
        assert got == want, f"n={n}: {got} != {want}"
    return f"{total} labeled families recounted"


def test_criterion_04():
    _run(
        4,
        "signature census equals the labeled enumeration deduplicated by "
        "kernel isomorphism (n <= 8, k <= 3)",
        300,
        _criterion_4,
    )


# -- criterion 5 ---------------------------------------------------------------


def _low_pick_specs(t):
    """Pick families with at most two picks, one per symmetry class."""
    yield spike_spec(t, [])
    yield spike_spec(t, [0])
    for w in range(2, t + 1):
        yield spike_spec(t, [0, (1 << w) - 1])


def _criterion_5():
    specs = 0
    for t in range(3, 7):
        g = ggraph(CYCLE, t, 0, 0)
        for spec in _low_pick_specs(t):
            mat = spike_from_spec(spec)
            assert make_matroid(mat.n, mat.bases) == mat
            assert spike_cyclic_flats(spec) == mat.cyclic_flats()
            assert duality_check(spec)
            if t >= 5:
                want = {_ham_mask(g, p) for p in spec.picks}
                assert set(mat.circuit_hyperplanes()) == want
            specs += 1
    return f"{specs} spike specs through the axiom gate"


def test_criterion_05():
    _run(
        5,
        "spikes pass the axiom gate with matching cyclic flats, duals and "
        "hyperplanes (t in 3..6, up to 2 picks)",
        180,
        _criterion_5,
    )


# -- criterion 6 ---------------------------------------------------------------


def _criterion_6():
    fixtures = camera_fixtures()
    assert len(fixtures) == 5
    checked = 0
    for mat in fixtures:
        for k in range(0, 6):
            assert categorize(mat, k) is None
            checked += 1
    return f"{checked} fixture/bound pairs certified outside"


def test_criterion_06():
    _run(
        6,
        "all five fixture sums stay uncategorized for every bound k in 0..5",
        60,
        _criterion_6,
    )


# -- criterion 7 ---------------------------------------------------------------


def _pick_families(t, m):
    return [
        p
        for p in combinations(range(1 << t), m)
        if all((a ^ b).bit_count() >= 2 for a, b in combinations(p, 2))
    ]


def _witness_map(t, picks):
    """Brute-minimized cell vector and a ground permutation onto its witness.

    Minimizes over every choice of reference pick and every ordering of the
    rest, independently of the library's table-driven canonicalization.  The
    returned permutation sends pair j to the witness slot of its cell, with
    sides swapped where the reference pick chose the second edge.
    """
    m = len(picks)
    ncells = 1 << (m - 1)
    best = None
    for last in range(m):
        f = picks[last]
        others = [i for i in range(m) if i != last]
        for sigma in permutations(others):
            q = [picks[i] ^ f for i in sigma]
            cells = [0] * ncells
            cellmask = [0] * t
            for j in range(t):
                pat = 0
                for pos in range(m - 1):
                    if not q[pos] >> j & 1:
                        pat |= 1 << pos
                cellmask[j] = pat
                cells[pat] += 1
            cand = (tuple(cells), f, tuple(cellmask))
            if best is None or cand < best:
                best = cand
    sig, f, cellmask = best
    order = sorted(range(t), key=lambda j: (cellmask[j], j))
    perm = [0] * (2 * t)
    for newpos, j in enumerate(order):
        flip = f >> j & 1
        perm[2 * j] = 2 * newpos + flip
        perm[2 * j + 1] = 2 * newpos + (flip ^ 1)
    return sig, perm


def _criterion_7():
    fams = keys_total = cross = 0
    for t in (5, 6):
        wit_all = []
        for m in (2, 3):
            wit = {}
            for picks in _pick_families(t, m):
                spec = spike_spec(t, picks)
                key = glance_signature(spec)
                assert key.p == 0 and key.s == 0
                sig, perm = _witness_map(t, picks)
                assert sig == key.sig
                got = wit.get(sig)
                if got is None:
                    wspec = spike_spec(t, _family_from_cells(sig, m))
                    assert glance_signature(wspec).sig == sig
                    got = wit[sig] = (wspec, spike_from_spec(wspec))
                assert glance_isomorphic(spec, got[0])
                assert relabel(spike_from_spec(spec), perm) == got[1]
                fams += 1
            keys_total += len(wit)
            wit_all.extend(mat for _, mat in wit.values())
        for m1, m2 in combinations(wit_all, 2):
            assert not m1.is_isomorphic(m2)
            cross += 1
    return f"{fams} pick families onto {keys_total} witnesses, {cross} cross pairs"


def test_criterion_07():
    _run(
        7,
        "glance keys agree with kernel isomorphism on every pick family "
        "(t in 5..6, 2..3 picks)",
        300,
        _criterion_7,
    )


# -- criterion 8 ---------------------------------------------------------------


def _criterion_8():
    assert bottom_solution_count(6, 2) == 1
    sols6 = list(bottom_solutions(6, 2))
    assert len(sols6) == 1
    spec6 = bottom_construct(sols6[0], 6, 2)
    assert spec6.picks == (0, 15, 51)
    mat6 = spike_from_spec(spec6)
    assert mat6.n == 12
    assert verify_sk_excluded_minor(spec6, 2, mode="full")
    assert verify_sk_excluded_minor(spec6, 2, mode="structural")
    assert is_excluded_minor(mat6, lambda x: categorize(x, 2) is not None)
    for t in (7, 8):
        assert bottom_solution_count(t, 2) == 0
        assert list(bottom_solutions(t, 2)) == []
    assert bottom_solution_count(12, 5) == comb(24, 24) == 1
    sols12 = list(bottom_solutions(12, 5))
    assert len(sols12) == 1
    spec12 = bottom_construct(sols12[0], 12, 5)
    assert 2 * spec12.t == 24
    assert verify_sk_excluded_minor(spec12, 5, mode="structural")
    return "t=6 full + kernel route, t=7..8 vacuous, t=12 structural, even sizes"


def test_criterion_08():
    _run(
        8,
        "bottom solutions construct verified excluded minors "
        "(k = 2 at t in 6..8, k = 5 at t = 12)",
        600,
        _criterion_8,
    )


# -- criterion 9 ---------------------------------------------------------------


def _criterion_9():
    est1 = slope_fit([(n, collar_solution_count(n, 3)) for n in range(60, 301)])
    assert abs(est1.exponent - 9.0) < 1.0
    est2 = slope_fit([(t, bottom_solution_count(t, 5)) for t in range(50, 201)])
    assert abs(est2.exponent - 24.0) < 1.0
    return f"exponents {est1.exponent:.2f} vs 9 and {est2.exponent:.2f} vs 24"


def test_criterion_09():
    _run(
        9,
        "solution-count growth exponents land within 1.0 of 9 and 24",
        10,
        _criterion_9,
    )


# -- criterion 10 --------------------------------------------------------------


def _run_cli(args, threads):
    env = dict(os.environ, FRACTAL_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-m", "fractalcensus.cli", *args],
        capture_output=True,
        env=env,
        timeout=540,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _parse_rows(blob):
    lines = blob.decode().strip().split("\n")
    assert lines[0] == "n,m_count,m_mode,x_count,x_mode,gamma_num,gamma_den,gamma"
    rows = []
    for line in lines[1:]:
        n, m, m_mode, x, x_mode, num, den, dec = line.split(",")
        rows.append(
            {
                "n": int(n),
                "m": int(m),
                "m_mode": m_mode,
                "x": int(x),
                "x_mode": x_mode,
                "num": int(num),
                "den": int(den),
                "dec": dec,
            }
        )
    return rows


def _criterion_10():
    pk1 = _run_cli(["gamma", "pk", "--k", "3", "--n", "8..14"], 1)
    pk4 = _run_cli(["gamma", "pk", "--k", "3", "--n", "8..14"], 4)
    assert pk1 == pk4, "pk table varies with thread count"
    sk1 = _run_cli(["gamma", "sk", "--k", "2", "--t", "6..10"], 1)
    sk4 = _run_cli(["gamma", "sk", "--k", "2", "--t", "6..10"], 4)
    assert sk1 == sk4, "sk table varies with thread count"
    rows_pk = _parse_rows(pk1)
    assert [row["n"] for row in rows_pk] == list(range(8, 15))
    assert [row["x"] for row in rows_pk] == [39, 74, 233, 398, 970, 1566, 3264]
    assert [row["m"] for row in rows_pk] == [42, 62, 90, 126, 176, 238, 317]
    rows_sk = _parse_rows(sk1)
    assert [row["n"] for row in rows_sk] == list(range(12, 21))
    for row in rows_sk:
        assert row["x"] == (1 if row["n"] == 12 else 0)
    for row in rows_pk:
        assert row["m_mode"] == "exact" and row["x_mode"] == "lower"
    for row in rows_sk:
        assert row["m_mode"] == "upper" and row["x_mode"] == "lower"
    for row in rows_pk + rows_sk:
        exact = Fraction(row["x"], row["m"] + row["x"])
        assert Fraction(row["num"], row["den"]) == exact
        shown = Fraction(Decimal(row["dec"]))
        assert abs(shown - exact) <= Fraction(1, 2 * 10**12)
    return f"{len(rows_pk)} pk + {len(rows_sk)} sk rows byte-stable and consistent"


def test_criterion_10():
    _run(
        10,
        "ratio tables are deterministic across thread counts with exact "
        "rational entries",
        600,
        _criterion_10,
    )
