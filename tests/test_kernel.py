"""Kernel tests.

Expected values are frozen from independent brute-force oracles defined
in this file (subset scans, full permutation search), not from the
functions under test.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractalcensus.bitset import bits, mask_from, subset_masks
from fractalcensus.kernel import (
    EmptyBases,
    ExchangeViolation,
    MalformedDocument,
    Matroid,
    NonEquicardinal,
    OutOfRange,
    OverlappingSets,
    RankOutOfRange,
    RankZero,
    SetFamily,
    SizeOverflow,
    direct_sum,
    is_excluded_minor,
    make_matroid,
    matroid_from_json,
    matroid_to_json,
    relabel,
    uniform,
)
from fractalcensus.sparsepaving import ch_to_matroid, sp_excluded_minors


# ---------------------------------------------------------------- oracles


def _brute_rank(bases, x: int) -> int:
    return max((x & b).bit_count() for b in bases)


def _brute_independent(bases, x: int) -> bool:
    return _brute_rank(bases, x) == x.bit_count()


def _brute_circuits(n: int, bases) -> list[int]:
    out = []
    for size in range(1, n + 1):
        for x in subset_masks(n, size):
            if _brute_independent(bases, x):
                continue
            if all(_brute_independent(bases, x ^ (1 << e)) for e in bits(x)):
                out.append(x)
    return sorted(out)


def _brute_closure(n: int, bases, x: int) -> int:
    r = _brute_rank(bases, x)
    out = x
    for e in range(n):
        if not out >> e & 1 and _brute_rank(bases, x | 1 << e) == r:
            out |= 1 << e
    return out


def _brute_hyperplanes(n: int, bases, r: int) -> list[int]:
    out = []
    for x in range(1 << n):
        if _brute_rank(bases, x) == r - 1 and _brute_closure(n, bases, x) == x:
            out.append(x)
    return sorted(out)


def _brute_cyclic_flats(n: int, bases) -> list[tuple[int, int]]:
    # flats whose restriction has no coloop, as (flat, rank) sorted pairs
    out = []
    for x in range(1 << n):
        if _brute_closure(n, bases, x) != x:
            continue
        r = _brute_rank(bases, x)
        if all(_brute_rank(bases, x ^ (1 << e)) == r for e in bits(x)):
            out.append((r, x))
    return sorted(out)


def _brute_exchange_witness(bases) -> tuple[int, int, int] | None:
    # pairwise scan over sorted bases: the first (b1, b2, x) with no exchange
    bases = sorted(set(bases))
    bset = set(bases)
    for b1 in bases:
        for b2 in bases:
            for x in bits(b1 & ~b2):
                if not any((b1 ^ (1 << x)) | (1 << y) in bset for y in bits(b2 & ~b1)):
                    return b1, b2, x
    return None


def _gate_witness(n: int, bases) -> tuple[int, int, int] | None:
    try:
        make_matroid(n, bases)
    except ExchangeViolation as err:
        return err.b1, err.b2, err.x
    return None


def _loop_degrees(m: Matroid) -> tuple[tuple[int, ...], list[list[int]]]:
    # per-basis loops: basis degree of each element, pair degree of each pair
    deg = [0] * m.n
    pair = [[0] * m.n for _ in range(m.n)]
    for b in m.bases:
        es = sorted(bits(b))
        for i, e in enumerate(es):
            deg[e] += 1
            for f in es[i + 1 :]:
                pair[e][f] += 1
                pair[f][e] += 1
    return tuple(deg), pair


def _perm_scan(m1: Matroid, m2: Matroid) -> bool:
    if (m1.n, m1.r, len(m1.bases)) != (m2.n, m2.r, len(m2.bases)):
        return False
    target = set(m2.bases)
    for perm in itertools.permutations(range(m1.n)):
        if all(mask_from(perm[e] for e in bits(b)) in target for b in m1.bases):
            return True
    return False


def _loop_relabel(m: Matroid, perm) -> Matroid:
    # image of every basis bit by bit: the oracle for relabel's array form
    out = []
    for b in m.bases:
        img = 0
        for e in bits(b):
            img |= 1 << perm[e]
        out.append(img)
    return Matroid(m.n, m.r, tuple(sorted(out)))


def _basis_list_minor(m: Matroid, delete: int, contract: int) -> Matroid:
    # minor from the basis list: greedy basis of the contracted part, bases
    # through it, rank-drop regrowth, then order-preserving compaction
    full = m.full_mask
    ic = 0
    rk = 0
    for e in bits(contract):
        trial = ic | (1 << e)
        t = m.rank_of(trial)
        if t > rk:
            ic, rk = trial, t
    nb = sorted({b ^ ic for b in m.bases if b & contract == ic})
    keep = [b for b in nb if not b & delete]
    remaining = full & ~delete & ~contract
    if not keep:
        # deletion removed every basis of the contraction: rank drops
        r2 = max((b & remaining).bit_count() for b in nb)
        grown = set()
        for b in nb:
            avail = list(bits(b & remaining))
            if len(avail) < r2:
                continue
            for combo in itertools.combinations(avail, r2):
                grown.add(mask_from(combo))
        keep = sorted(grown)
    else:
        r2 = m.r - rk
    removed = sorted(bits(full ^ remaining), reverse=True)
    squeezed = []
    for b in keep:
        for e in removed:
            low = (1 << e) - 1
            b = (b & low) | (b >> 1) & ~low
        squeezed.append(b)
    squeezed.sort()
    return Matroid(remaining.bit_count(), r2, tuple(squeezed))


def _assert_minor_matches_basis_list(m: Matroid, delete: int, contract: int) -> Matroid:
    got = m.minor(delete, contract)
    want = _basis_list_minor(m, delete, contract)
    assert (got.n, got.r, got.bases) == (want.n, want.r, want.bases)
    assert all(type(b) is int for b in got.bases)
    return got


def _assert_seeded_table_is_fresh(m: Matroid) -> None:
    # the sliced table seeded into a minor is the one its bases give
    mine = m._rank_table()
    fresh = Matroid(m.n, m.r, m.bases)._rank_table()
    assert mine.dtype == fresh.dtype == np.int8
    assert mine.shape == fresh.shape == (1 << m.n,)
    assert (mine == fresh).all()


def _small_matroids():
    # every matroid on at most 5 labelled elements
    for n in range(6):
        for r in range(n + 1):
            cand = subset_masks(n, r)
            for pick in range(1, 1 << len(cand)):
                fam = [b for i, b in enumerate(cand) if pick >> i & 1]
                if _brute_exchange_witness(fam) is None:
                    yield make_matroid(n, fam)


def _oracle_circuit_hyperplanes(m: Matroid) -> tuple[int, ...]:
    if m.r == 0:
        return ()
    return tuple(sorted(set(m.circuits()) & set(m.hyperplanes())))


def _oracle_sparse_paving(m: Matroid) -> bool:
    # every circuit of rank below r is a hyperplane
    low = [c for c in m.circuits() if m.rank_of(c) < m.r]
    return not low or set(low) <= set(m.hyperplanes())


def _assert_sp_predicates_match_oracle(m: Matroid) -> None:
    assert m.is_sparse_paving() == _oracle_sparse_paving(m)
    assert m.circuit_hyperplanes() == _oracle_circuit_hyperplanes(m)


# ---------------------------------------------------------------- fixtures


def _sp_matroid(n: int, r: int, chs) -> Matroid:
    # sparse paving matroid: bases = r-subsets minus the given family
    dropped = {mask_from(c) for c in chs}
    return make_matroid(n, [b for b in subset_masks(n, r) if b not in dropped])


def _spike4_empty() -> Matroid:
    # rank-4 spike, no balanced picks: dependent 4-sets are the six pair unions
    quads = {
        mask_from(p1) | mask_from(p2)
        for p1, p2 in itertools.combinations([(0, 1), (2, 3), (4, 5), (6, 7)], 2)
    }
    return make_matroid(8, [b for b in subset_masks(8, 4) if b not in quads])


# --------------------------------------------------------- construction


def test_make_matroid_uniform_accepted():
    m = make_matroid(4, subset_masks(4, 2))
    assert (m.n, m.r, len(m.bases)) == (4, 2, 6)
    assert m == uniform(2, 4)


def test_make_matroid_exchange_violation_witness():
    with pytest.raises(ExchangeViolation) as info:
        make_matroid(4, [0b0011, 0b1100])
    err = info.value
    assert err.b1 in (0b0011, 0b1100) and err.b2 in (0b0011, 0b1100)
    assert err.b1 != err.b2
    assert err.x in bits(err.b1 & ~err.b2)


def test_make_matroid_four_bases_of_six_accepted():
    bases = [b for b in subset_masks(4, 2) if b not in (0b0011, 0b1100)]
    assert _brute_exchange_witness(bases) is None
    m = make_matroid(4, bases)
    assert len(m.bases) == 4


def test_exchange_gate_matches_scan_exhaustively():
    # every nonempty family of r-subsets on at most 5 elements
    rejected = 0
    for n in range(6):
        for r in range(n + 1):
            cand = subset_masks(n, r)
            for pick in range(1, 1 << len(cand)):
                fam = [b for i, b in enumerate(cand) if pick >> i & 1]
                want = _brute_exchange_witness(fam)
                assert _gate_witness(n, fam) == want
                rejected += want is not None
    assert rejected == 1731


def _assert_degrees_match_loops(m: Matroid) -> None:
    deg, pair = _loop_degrees(m)
    assert m.basis_degrees() == deg
    assert all(type(d) is int for d in m.basis_degrees())
    assert m._pair_degrees() == pair


def test_degrees_match_loops_exhaustively():
    count = 0
    for m in _small_matroids():
        _assert_degrees_match_loops(m)
        count += 1
    assert count == 2229 - 1731


def test_degrees_past_one_byte():
    # 924 bases, basis degree 462: the counts must not wrap
    _assert_degrees_match_loops(uniform(6, 12))


def test_profiles_are_cached():
    m = uniform(2, 5)
    assert m._profiles() is m._profiles()
    assert m._profiles() == [(4, (1, 1, 1, 1))] * 5


def test_make_matroid_keeps_rank_table():
    tab = make_matroid(5, subset_masks(5, 2))._cache["tab"]
    assert isinstance(tab, np.ndarray) and tab.dtype == np.int8
    assert tab.tolist() == [min(x.bit_count(), 2) for x in range(1 << 5)]


def test_make_matroid_rejects_empty_and_mixed():
    with pytest.raises(EmptyBases):
        make_matroid(3, [])
    with pytest.raises(NonEquicardinal):
        make_matroid(3, [0b001, 0b011])
    with pytest.raises(SizeOverflow):
        make_matroid(25, [1])
    with pytest.raises(OutOfRange):
        make_matroid(2, [0b100])


def test_set_family_contains_matches_member_scan():
    fam = uniform(2, 5).circuits()
    for mask in range(-1, 1 << 6):
        assert (mask in fam) == (mask in set(fam.members))
    assert SetFamily(3, ()).__contains__(0) is False


def test_uniform_edges():
    assert uniform(0, 3).bases == (0,)
    assert len(uniform(2, 4).bases) == 6
    assert uniform(3, 3).bases == (0b111,)
    with pytest.raises(RankOutOfRange):
        uniform(4, 3)


def test_direct_sum():
    m = direct_sum(uniform(1, 1), uniform(0, 1))
    assert (m.n, m.r, m.bases) == (2, 1, (0b01,))
    m = direct_sum(uniform(1, 2), uniform(1, 2))
    assert len(m.bases) == 4
    m = direct_sum(uniform(0, 1), uniform(2, 4))
    assert (m.n, m.r, len(m.bases)) == (5, 2, 6)
    assert _brute_exchange_witness(m.bases) is None


# --------------------------------------------------------------- queries


def test_rank_of():
    u = uniform(2, 4)
    assert u.rank_of(0b0001) == 1
    assert u.rank_of(0) == 0
    with pytest.raises(OutOfRange):
        u.rank_of(1 << 4)
    s = _spike4_empty()
    assert s.rank_of(mask_from((0, 1, 2, 3))) == 3


def test_circuits_frozen():
    assert list(uniform(2, 4).circuits()) == subset_masks(4, 3)
    pair2 = direct_sum(uniform(1, 2), uniform(1, 2))
    assert list(pair2.circuits()) == [0b0011, 0b1100]
    assert list(uniform(3, 3).circuits()) == []


def test_circuits_match_subset_scan():
    for m in (uniform(1, 4), _sp_matroid(5, 2, [(0, 1)]), _spike4_empty()):
        assert list(m.circuits()) == _brute_circuits(m.n, m.bases)


def test_hyperplanes_frozen():
    assert list(uniform(2, 4).hyperplanes()) == [1, 2, 4, 8]
    pair2 = direct_sum(uniform(1, 2), uniform(1, 2))
    hp = list(pair2.hyperplanes())
    assert 0b0011 in hp and 0b1100 in hp
    assert hp == _brute_hyperplanes(4, pair2.bases, 2)
    assert list(uniform(1, 2).hyperplanes()) == [0]
    with pytest.raises(RankZero):
        uniform(0, 2).hyperplanes()


def test_cyclic_flats_frozen():
    u = uniform(2, 4)
    assert [(f.rank, f.flat) for f in u.cyclic_flats()] == [(0, 0), (2, 0b1111)]
    pair2 = direct_sum(uniform(1, 2), uniform(1, 2))
    assert [(f.rank, f.flat) for f in pair2.cyclic_flats()] == [
        (0, 0),
        (1, 0b0011),
        (1, 0b1100),
        (2, 0b1111),
    ]
    s = _spike4_empty()
    flats = s.cyclic_flats()
    assert len(flats) == 8
    assert [(f.rank, f.flat) for f in flats] == _brute_cyclic_flats(8, s.bases)


def test_cyclic_flats_match_definition_scan():
    for m in (uniform(1, 3), _sp_matroid(6, 3, [(0, 1, 2), (3, 4, 5)])):
        assert [(f.rank, f.flat) for f in m.cyclic_flats()] == _brute_cyclic_flats(
            m.n, m.bases
        )


# ---------------------------------------------------------------- minors


def test_minor_frozen():
    u = uniform(2, 4)
    assert u.minor(0b1000, 0) == uniform(2, 3)
    assert u.minor(0, 0b1000) == uniform(1, 3)
    with pytest.raises(OverlappingSets):
        u.minor(0b0001, 0b0001)


def test_minor_spike_contract():
    quads = {
        mask_from(p1) | mask_from(p2)
        for p1, p2 in itertools.combinations([(0, 1), (2, 3), (4, 5), (6, 7)], 2)
    }
    pick = mask_from((0, 2, 4, 6))
    spike1 = make_matroid(8, [b for b in subset_masks(8, 4) if b not in quads | {pick}])
    m = spike1.minor(0, 0b0001)  # contract a1; b1 compacts to element 0
    assert (m.n, m.r) == (7, 3)
    small = [c for c in m.circuits() if c.bit_count() <= 2]
    assert all(not c & 1 for c in small)


def test_minor_matches_basis_list_exhaustively():
    # every small matroid, every disjoint (D, C)
    count = 0
    for m in _small_matroids():
        n = m.n
        for parts in itertools.product(range(3), repeat=n):
            delete = mask_from(e for e in range(n) if parts[e] == 1)
            contract = mask_from(e for e in range(n) if parts[e] == 2)
            got = _assert_minor_matches_basis_list(m, delete, contract)
            if n <= 4:
                _assert_seeded_table_is_fresh(got)
            count += 1
    assert count == 104650


def test_minor_of_everything():
    u = uniform(2, 4)
    full = u.full_mask
    m = u.minor(0b0011, 0b1100)
    assert (m.n, m.r, m.bases) == (0, 0, (0,))
    assert u.minor(full, 0).bases == (0,)


def test_dual_frozen():
    assert uniform(2, 4).dual() == uniform(2, 4)
    assert uniform(1, 3).dual() == uniform(2, 3)
    s = _spike4_empty()
    assert s.dual().dual() == s
    assert s.r + s.dual().r == s.n


def test_components_frozen():
    pair2 = direct_sum(uniform(1, 2), uniform(1, 2))
    assert pair2.components() == (0b0011, 0b1100)
    assert uniform(2, 4).components() == (0b1111,)
    m = direct_sum(direct_sum(uniform(0, 1), uniform(1, 1)), uniform(1, 3))
    assert m.components() == (0b00001, 0b00010, 0b11100)


# ----------------------------------------------------------- isomorphism


def test_is_isomorphic_frozen():
    u = uniform(2, 4)
    assert u.is_isomorphic(u.dual())
    assert not uniform(2, 3).is_isomorphic(uniform(1, 3))
    m1 = _sp_matroid(6, 3, [(0, 1, 2), (3, 4, 5)])
    m2 = _sp_matroid(6, 3, [(0, 1, 3), (2, 4, 5)])
    assert _perm_scan(m1, m2)
    assert m1.is_isomorphic(m2)
    m3 = _sp_matroid(6, 3, [(0, 1, 2)])
    assert not m1.is_isomorphic(m3)


def test_isomorphism_scan_agrees_with_oracle():
    m1 = _sp_matroid(5, 2, [(0, 1), (2, 3)])
    m2 = _sp_matroid(5, 2, [(1, 2), (3, 4)])
    assert m1.is_isomorphic(m2) == _perm_scan(m1, m2)


def test_relabel_matches_bit_loop_exhaustively():
    count = 0
    for m in _small_matroids():
        count += 1
        for perm in itertools.permutations(range(m.n)):
            got = relabel(m, list(perm))
            assert (got.n, got.r, got.bases) == (m.n, m.r, _loop_relabel(m, perm).bases)
            assert all(type(b) is int for b in got.bases)
    assert count == 498
    with pytest.raises(OutOfRange):
        relabel(uniform(1, 3), [0, 0, 1])


# ------------------------------------------------------------ predicates


def test_is_sparse_paving():
    assert uniform(2, 4).is_sparse_paving()
    assert direct_sum(uniform(1, 2), uniform(1, 2)).is_sparse_paving()
    assert not direct_sum(uniform(1, 2), uniform(2, 3)).is_sparse_paving()
    assert uniform(0, 2).is_sparse_paving()
    assert uniform(3, 3).is_sparse_paving()


def test_sp_predicates_match_oracle_exhaustively():
    # both oracle families checked against the subset scans too
    count = sparse = 0
    for m in _small_matroids():
        assert list(m.circuits()) == _brute_circuits(m.n, m.bases)
        if m.r:
            assert list(m.hyperplanes()) == _brute_hyperplanes(m.n, m.bases, m.r)
        _assert_sp_predicates_match_oracle(m)
        count += 1
        sparse += m.is_sparse_paving()
    assert count == 498
    assert 0 < sparse < count


def test_sp_predicates_match_oracle_on_excluded_minors():
    # the witnesses exceed the bound and their single-element minors meet
    # it, so circuit-hyperplane counts on both sides of k are checked
    seen = set()
    for n in range(4, 10):
        for k in range(1, 4):
            for f in sp_excluded_minors(n, k):
                m = ch_to_matroid(f)
                minors = [m.delete(e) for e in range(n)] + [m.contract(e) for e in range(n)]
                for q in [m] + minors:
                    _assert_sp_predicates_match_oracle(q)
                    seen.add((q.is_sparse_paving(), len(q.circuit_hyperplanes()) <= k))
    assert seen == {(True, True), (True, False)}


def test_is_excluded_minor():
    def member_p1(m: Matroid) -> bool:
        return m.is_sparse_paving() and len(m.circuit_hyperplanes()) <= 1

    def member_p0(m: Matroid) -> bool:
        return m.is_sparse_paving() and not m.circuit_hyperplanes()

    two_ch = _sp_matroid(6, 3, [(0, 1, 2), (3, 4, 5)])
    assert is_excluded_minor(two_ch, member_p1)
    assert not is_excluded_minor(uniform(2, 4), member_p0)
    assert not is_excluded_minor(two_ch, lambda m: True)


# ----------------------------------------------------------------- json


def test_json_round_trip():
    for m in (uniform(2, 4), _sp_matroid(6, 3, [(0, 1, 2), (3, 4, 5)])):
        text = matroid_to_json(m)
        assert text.endswith("\n")
        assert matroid_from_json(text) == m
    doc = json.loads(matroid_to_json(uniform(2, 3)))
    assert doc["bases"] == sorted(doc["bases"])


def test_json_rank_mismatch_rejected():
    doc = {"n": 3, "rank": 2, "bases": [[0], [1]]}
    with pytest.raises(RankOutOfRange):
        matroid_from_json(json.dumps(doc))


def test_json_malformed_rejected():
    for text in ("not json", '{"n": 4, "rank": 2}', '{"n": "x", "rank": 2, "bases": []}'):
        with pytest.raises(MalformedDocument):
            matroid_from_json(text)


# ------------------------------------------------------------ properties


def _random_sp(n: int, r: int, order: list[int], k: int) -> Matroid:
    # greedy circuit-hyperplane family: pairwise set difference above one
    cand = subset_masks(n, r)
    chs: list[int] = []
    for i in order:
        c = cand[i % len(cand)]
        if all((c & ~d).bit_count() > 1 for d in chs):
            chs.append(c)
        if len(chs) == k:
            break
    return make_matroid(n, [b for b in cand if b not in set(chs)])


def _uniform_params(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    r = draw(st.integers(min_value=0, max_value=n))
    return uniform(r, n)


@st.composite
def matroids(draw) -> Matroid:
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return _uniform_params(draw)
    n = draw(st.integers(min_value=3, max_value=7))
    r = draw(st.integers(min_value=1, max_value=min(3, n - 1)))
    order = draw(
        st.lists(st.integers(min_value=0, max_value=200), min_size=4, max_size=8)
    )
    k = draw(st.integers(min_value=0, max_value=3))
    m = _random_sp(n, r, order, k)
    if kind == 2 and m.n >= 2:
        e = draw(st.integers(min_value=0, max_value=m.n - 1))
        m = m.delete(e) if draw(st.booleans()) else m.contract(e)
    return m


@given(matroids())
def test_duality_involution(m: Matroid):
    d = m.dual()
    assert d.dual() == m
    assert m.r + d.r == m.n


@given(matroids())
def test_cyclic_flat_reconstruction(m: Matroid):
    flats = m.cyclic_flats()
    for x in range(1 << m.n):
        dep = _brute_rank(m.bases, x) < x.bit_count() if x else False
        rebuilt = any((x & f.flat).bit_count() > f.rank for f in flats)
        assert dep == rebuilt


@given(matroids())
def test_degrees_match_loops(m: Matroid):
    _assert_degrees_match_loops(m)


@settings(max_examples=40)
@given(matroids(), st.permutations(list(range(7))))
def test_iso_matches_unpruned_scan(m: Matroid, perm: list[int]):
    other = relabel(m, perm[: m.n]) if sorted(perm[: m.n]) == list(range(m.n)) else m
    assert m.is_isomorphic(other)
    assert _perm_scan(m, other)


@given(matroids(), st.data())
def test_relabel_matches_bit_loop(m: Matroid, data):
    perm = data.draw(st.permutations(list(range(m.n))))
    assert relabel(m, perm) == _loop_relabel(m, perm)


@settings(max_examples=25)
@given(matroids(), matroids())
def test_iso_pairs_match_unpruned_scan(m1: Matroid, m2: Matroid):
    if max(m1.n, m2.n) > 6:
        return
    assert m1.is_isomorphic(m2) == _perm_scan(m1, m2)


@settings(max_examples=60)
@given(matroids(), st.data())
def test_minor_composition(m: Matroid, data):
    parts = data.draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=m.n, max_size=m.n)
    )
    d1 = mask_from(e for e in range(m.n) if parts[e] == 0)
    c1 = mask_from(e for e in range(m.n) if parts[e] == 1)
    d2 = mask_from(e for e in range(m.n) if parts[e] == 2)
    first = m.minor(d1, c1)
    keep = [e for e in range(m.n) if not (d1 | c1) >> e & 1]
    new_of_old = {e: i for i, e in enumerate(keep)}
    d2_new = mask_from(new_of_old[e] for e in bits(d2))
    assert first.minor(d2_new, 0) == m.minor(d1 | d2, c1)
    c2_new = d2_new
    assert first.minor(0, c2_new) == m.minor(d1, c1 | d2)


@settings(max_examples=100)
@given(matroids(), st.data())
def test_minor_matches_basis_list(m: Matroid, data):
    # uniform draws include rank 0 (all loops) and rank n (all coloops)
    parts = data.draw(
        st.lists(st.integers(min_value=0, max_value=2), min_size=m.n, max_size=m.n)
    )
    delete = mask_from(e for e in range(m.n) if parts[e] == 1)
    contract = mask_from(e for e in range(m.n) if parts[e] == 2)
    _assert_seeded_table_is_fresh(_assert_minor_matches_basis_list(m, delete, contract))


@settings(max_examples=200)
@given(matroids(), st.integers(0, 2), st.integers(0, 2))
def test_sp_predicates_match_oracle(m: Matroid, loops: int, coloops: int):
    m = direct_sum(direct_sum(m, uniform(0, loops)), uniform(coloops, coloops))
    _assert_sp_predicates_match_oracle(m)


@given(matroids())
def test_cocircuits_are_hyperplane_complements(m: Matroid):
    if m.r == 0:
        return
    full = m.full_mask
    cocircuits = sorted(full & ~h for h in m.hyperplanes())
    assert list(m.dual().circuits()) == cocircuits


@st.composite
def equicardinal_families(draw) -> tuple[int, list[int]]:
    # random families of r-subsets with 2 <= r <= n - 2 (every family of
    # 1-sets or of (n-1)-sets is a matroid), most of them failing exchange
    n = draw(st.integers(min_value=4, max_value=8))
    r = draw(st.integers(min_value=2, max_value=n - 2))
    cand = subset_masks(n, r)
    keep = draw(st.lists(st.booleans(), min_size=len(cand), max_size=len(cand)))
    fam = [b for b, k in zip(cand, keep) if k]
    return n, fam or cand[:1]


@settings(max_examples=300)
@given(equicardinal_families())
def test_exchange_gate_matches_scan(case):
    n, fam = case
    assert _gate_witness(n, fam) == _brute_exchange_witness(fam)


@pytest.mark.parametrize("n", range(9))
def test_exchange_gate_rank_edges(n):
    for r in (0, n):
        assert make_matroid(n, subset_masks(n, r)) == uniform(r, n)


@pytest.mark.parametrize("n", range(13))
def test_subset_masks_match_combinations(n):
    for size in range(n + 1):
        want = sorted(mask_from(c) for c in itertools.combinations(range(n), size))
        got = subset_masks(n, size)
        assert got == want
        assert all(type(x) is int for x in got)
