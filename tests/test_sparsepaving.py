"""Circuit-hyperplane family layer, checked against kernel ground truth.

The census oracle here enumerates labeled families outright and dedupes
with the kernel's permutation-isomorphism test, so the signature-based
counts are confirmed by machinery that never looks at Venn cells.
"""

import json
import random
from itertools import permutations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _documents import misfits_read
from fractalcensus.biasedlift import _trun_perm_maps
from fractalcensus.bitset import bits, mask_from, subset_masks
from fractalcensus.kernel import (
    MalformedDocument,
    Matroid,
    OutOfRange,
    RankOutOfRange,
    is_excluded_minor,
    make_matroid,
)
from fractalcensus.sparsepaving import (
    BoundTooLarge,
    CensusRow,
    CHFamily,
    CompositionSolution,
    DifferenceOne,
    GroundSizeMismatch,
    IsColoop,
    IsLoop,
    NotASolution,
    TooSmall,
    VennSignature,
    WrongCardinality,
    _allocate,
    _cells,
    _composition_counts,
    _compositions,
    _family_levels,
    _lexmin_classes,
    _perm_cell_maps,
    census_csv,
    census_pk,
    ch_contract,
    ch_delete,
    ch_isomorphic,
    ch_to_matroid,
    chfamily,
    chfamily_from_json,
    chfamily_to_json,
    collar_construct,
    collar_index_sets,
    collar_solution_count,
    collar_solutions,
    canonical_signature,
    count_signatures,
    pk_member,
    realize_signature,
    signature_realizable,
    sp_excluded_minors,
    validate_chfamily,
    venn_signature,
)


def fam(n, r, *member_sets):
    return chfamily(n, r, (mask_from(s) for s in member_sets))


# -- labeled enumeration oracle ----------------------------------------------


def all_families(n: int, r: int, m: int) -> list[tuple[int, ...]]:
    """Every unordered valid m-member family on labeled ground set."""
    subs = list(subset_masks(n, r))
    out = []

    def rec(chosen: list[int], start: int):
        if len(chosen) == m:
            out.append(tuple(chosen))
            return
        for idx in range(start, len(subs)):
            c = subs[idx]
            if all((prev & ~c).bit_count() > 1 for prev in chosen):
                chosen.append(c)
                rec(chosen, idx + 1)
                chosen.pop()

    rec([], 0)
    return out


def family_profile(n: int, chs: tuple[int, ...]) -> tuple:
    degrees = sorted(sum(c >> e & 1 for c in chs) for e in range(n))
    meets = sorted(
        (chs[i] & chs[j]).bit_count()
        for i in range(len(chs))
        for j in range(i + 1, len(chs))
    )
    return tuple(degrees), tuple(meets)


def brute_census_stratum(n: int, r: int, m: int) -> list[Matroid]:
    """Representatives of kernel-isomorphism classes, one per class."""
    buckets: dict[tuple, list[Matroid]] = {}
    for chs in all_families(n, r, m):
        mat = ch_to_matroid(CHFamily(n, r, chs))
        key = family_profile(n, chs)
        reps = buckets.setdefault(key, [])
        if not any(mat.is_isomorphic(rep) for rep in reps):
            reps.append(mat)
    return [rep for reps in buckets.values() for rep in reps]


# -- labelled cell-vector oracle ---------------------------------------------
#
# The census and candidate enumeration before one-member extension: every
# labelled cell vector, then the lexmin over all index orderings.


def _perm_cell_maps_loop(k: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for perm in permutations(range(k)):
        tab = []
        for mask in range(1 << k):
            src = 0
            for i in range(k):
                if mask >> i & 1:
                    src |= 1 << perm[i]
            tab.append(src)
        out.append(tuple(tab))
    return tuple(out)


def _signature_vectors(
    n: int, m: int, r: int, sizes: frozenset[int] | None
) -> list[tuple[int, ...]]:
    """Cell vectors with per-index sums r and total n.

    Masks are processed descending so each index's final contribution is
    pinned at the smallest admissible mask containing it. When sizes is
    given, cells indexed by other subset cardinalities stay zero.
    """
    order = [
        mask
        for mask in range((1 << m) - 1, 0, -1)
        if sizes is None or mask.bit_count() in sizes
    ]
    empty_ok = sizes is None or 0 in sizes
    size_lo = 1 if sizes is None else min(sizes, default=0)
    size_hi = m if sizes is None else max(sizes, default=0)
    last_pos: dict[int, int] = {}
    for pos, mask in enumerate(order):
        for i in bits(mask):
            last_pos[i] = pos
    if len(last_pos) < m and r > 0:
        return []
    cells = [0] * (1 << m)
    sums = [0] * m
    bits_of = [tuple(bits(mask)) for mask in order]
    pin_at = [
        tuple(i for i in bits_of[pos] if last_pos[i] == pos)
        for pos in range(len(order))
    ]
    depth = len(order)
    target_weight = m * r
    out: list[tuple[int, ...]] = []

    def rec(pos: int, total: int, weight: int) -> None:
        rem = n - total
        future = target_weight - weight
        # every future element lands in a cell of size within the band,
        # and exactly rem of them when the empty cell is off limits
        if future > size_hi * rem:
            return
        if not empty_ok and future < size_lo * rem:
            return
        if pos == depth:
            if future == 0 and (rem == 0 or empty_ok):
                cells[0] = rem
                out.append(tuple(cells))
                cells[0] = 0
            return
        for i in range(m):
            if r - sums[i] > rem:
                return
        bo = bits_of[pos]
        hi = rem
        for i in bo:
            need = r - sums[i]
            if need < hi:
                hi = need
        lo = 0
        pins = pin_at[pos]
        if pins:
            v0 = r - sums[pins[0]]
            for i in pins[1:]:
                if r - sums[i] != v0:
                    return
            if v0 > hi:
                return
            lo = hi = v0
        mask = order[pos]
        size = len(bo)
        for v in range(lo, hi + 1):
            cells[mask] = v
            for i in bo:
                sums[i] += v
            rec(pos + 1, total + v, weight + size * v)
            for i in bo:
                sums[i] -= v
        cells[mask] = 0

    rec(0, 0, 0)
    return out


def _pair_selectors(m: int) -> np.ndarray:
    # column per ordered index pair, row per cell mask
    cols = [
        [1 if mask >> i & 1 and not mask >> j & 1 else 0 for mask in range(1 << m)]
        for i in range(m)
        for j in range(m)
        if i != j
    ]
    return np.array(cols, dtype=np.int32).reshape(-1, 1 << m).T


def _pairs_apart(arr: np.ndarray, m: int) -> np.ndarray:
    """Per row of cell vectors: every ordered index pair has one-sided sum >= 2."""
    return (arr.astype(np.int32) @ _pair_selectors(m) >= 2).all(axis=1)


def _canonical_classes(vectors: list[tuple[int, ...]], m: int) -> list[tuple[int, ...]]:
    """Distinct canonical forms of pairwise-valid vectors, sorted."""
    arr = np.array(vectors, dtype=np.uint8).reshape(-1, 1 << m)
    return _lexmin_classes(arr[_pairs_apart(arr, m)], _perm_cell_maps(m))


def _oracle_excluded_minors(n: int, k: int) -> list[CHFamily]:
    # the sweep before one-member extension: (m, r) shards in order
    found = []
    for m in range(k + 1, 2 * k + 1):
        sizes = frozenset(range(max(1, m - k), k + 1))
        for r in range(2, n - 1):
            for cells in _canonical_classes(_signature_vectors(n, m, r, sizes), m):
                witness = realize_signature(VennSignature(m, cells))
                if is_excluded_minor(ch_to_matroid(witness), lambda q: pk_member(q, k)):
                    found.append(witness)
    return found


# -- validation ----------------------------------------------------------------


def test_validate_accepts_disjoint_triples():
    f = fam(6, 3, {0, 1, 2}, {3, 4, 5})
    assert validate_chfamily(f) is f
    assert f.k == 2


def test_validate_difference_one_reports_pair():
    with pytest.raises(DifferenceOne) as err:
        fam(6, 3, {0, 1, 2}, {3, 4, 5}, {0, 3, 4})
    assert (err.value.i, err.value.j) == (1, 2)


def test_validate_wrong_cardinality():
    from fractalcensus.sparsepaving import WrongCardinality

    with pytest.raises(WrongCardinality):
        chfamily(6, 3, [0b000111, 0b110000])


def test_validate_rank_bounds():
    with pytest.raises(RankOutOfRange):
        chfamily(4, 4, [0b1111])
    with pytest.raises(RankOutOfRange):
        chfamily(4, 5, [])
    assert chfamily(4, 4, []).r == 4  # rank n fine without members


def test_validate_member_outside_ground():
    with pytest.raises(OutOfRange):
        chfamily(4, 2, [0b110000])


# -- matroid bridge ------------------------------------------------------------


def test_ch_to_matroid_single_triple():
    mat = ch_to_matroid(fam(6, 3, {0, 1, 2}))
    assert (mat.n, mat.r, len(mat.bases)) == (6, 3, 19)
    assert 0b000111 not in mat.bases


def test_ch_to_matroid_matches_exchange_gate_small():
    # trusted constructor cross-check: same bases as the gated path
    for n in range(2, 7):
        for r in range(1, n):
            for m in range(0, 3):
                for chs in all_families(n, r, m):
                    direct = ch_to_matroid(CHFamily(n, r, chs))
                    gated = make_matroid(n, direct.bases)
                    assert direct.bases == gated.bases


def test_ch_to_matroid_round_trip_ch_set():
    f = fam(8, 4, {0, 1, 2, 3}, {4, 5, 6, 7}, {0, 1, 4, 5})
    mat = ch_to_matroid(f)
    assert pk_member(mat, 3)
    assert tuple(sorted(mat.circuit_hyperplanes())) == tuple(sorted(f.chs))


# -- single-element minors -----------------------------------------------------


def test_ch_contract_spec_example():
    f = fam(6, 3, {0, 1, 2}, {3, 4, 5})
    got = ch_contract(f, 5)
    assert (got.n, got.r, got.chs) == (5, 2, (0b11000,))


def test_ch_delete_drops_members_through_element():
    f = fam(6, 3, {0, 1, 2}, {3, 4, 5})
    got = ch_delete(f, 0)
    assert (got.n, got.r, got.chs) == (5, 3, (0b11100,))


def test_ch_delete_coloop_on_free_matroid():
    with pytest.raises(IsColoop):
        ch_delete(chfamily(3, 3, []), 1)


def test_ch_contract_loop_cases():
    with pytest.raises(IsLoop):
        ch_contract(chfamily(3, 0, []), 0)
    with pytest.raises(IsLoop):
        ch_contract(fam(3, 1, {2}), 2)


def test_ch_minor_element_bounds():
    f = fam(6, 3, {0, 1, 2})
    with pytest.raises(OutOfRange):
        ch_delete(f, 6)
    with pytest.raises(OutOfRange):
        ch_contract(f, -1)


@st.composite
def small_families(draw):
    n = draw(st.integers(4, 7))
    r = draw(st.integers(1, n - 1))
    subs = list(subset_masks(n, r))
    chosen: list[int] = []
    for c in draw(st.permutations(subs)):
        if len(chosen) == 3:
            break
        if all((prev & ~c).bit_count() > 1 for prev in chosen):
            if draw(st.booleans()):
                chosen.append(c)
    return CHFamily(n, r, tuple(chosen))


@settings(max_examples=120, deadline=None)
@given(small_families(), st.data())
def test_ch_minors_commute_with_kernel(f, data):
    e = data.draw(st.integers(0, f.n - 1))
    mat = ch_to_matroid(f)
    in_all = all(b >> e & 1 for b in mat.bases)
    in_none = not any(b >> e & 1 for b in mat.bases)
    if in_all:
        with pytest.raises(IsColoop):
            ch_delete(f, e)
    else:
        got = ch_to_matroid(ch_delete(f, e))
        want = mat.minor(delete=1 << e, contract=0)
        assert got.bases == want.bases
    if in_none:
        with pytest.raises(IsLoop):
            ch_contract(f, e)
    else:
        got = ch_to_matroid(ch_contract(f, e))
        want = mat.minor(delete=0, contract=1 << e)
        assert got.bases == want.bases


# -- signatures ----------------------------------------------------------------


def test_venn_signature_cells():
    f = fam(6, 3, {0, 1, 2}, {2, 3, 4})
    assert venn_signature(f) == VennSignature(2, (1, 2, 2, 1))


def test_venn_signature_empty_family():
    assert venn_signature(chfamily(4, 2, [])) == VennSignature(0, (4,))


def reorder(f: CHFamily, perm) -> CHFamily:
    return CHFamily(f.n, f.r, tuple(f.chs[i] for i in perm))


def test_canonical_signature_is_reorder_minimum():
    f = fam(10, 4, {0, 1, 6, 7}, {2, 3, 6, 7}, {4, 5, 8, 9})
    all_orders = [
        venn_signature(reorder(f, perm)).cells for perm in permutations(range(f.k))
    ]
    assert canonical_signature(f).cells == min(all_orders)


@settings(max_examples=100, deadline=None)
@given(small_families(), st.data())
def test_canonical_signature_reorder_invariant(f, data):
    perm = data.draw(st.permutations(range(f.k)))
    assert canonical_signature(reorder(f, perm)) == canonical_signature(f)


def test_ch_isomorphic_ground_mismatch():
    with pytest.raises(GroundSizeMismatch):
        ch_isomorphic(chfamily(4, 2, []), chfamily(5, 2, []))


def test_ch_isomorphic_uniform_ranks():
    assert ch_isomorphic(chfamily(5, 2, []), chfamily(5, 2, []))
    assert not ch_isomorphic(chfamily(5, 2, []), chfamily(5, 3, []))


def test_ch_isomorphic_member_count_mismatch():
    assert not ch_isomorphic(fam(6, 3, {0, 1, 2}), fam(6, 3, {0, 1, 2}, {3, 4, 5}))


def test_ch_isomorphic_agrees_with_kernel_exhaustive():
    # all 2-member rank-3 families on 6 elements against each other
    families = [CHFamily(6, 3, chs) for chs in all_families(6, 3, 2)]
    mats = [ch_to_matroid(f) for f in families]
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            assert ch_isomorphic(families[i], families[j]) == mats[i].is_isomorphic(
                mats[j]
            )


# -- realizability -------------------------------------------------------------


def test_signature_realizable_unique_two_member_size_four():
    assert signature_realizable(VennSignature(2, (0, 2, 2, 0))) == (4, 2)


def test_signature_realizable_rejections():
    # each allocation fails validation with its own error, mapped to None
    for cells, err in [
        ((0, 2, 3, 0), WrongCardinality),
        ((1, 1, 1, 1), DifferenceOne),
        ((0, 0, 0, 4), RankOutOfRange),
    ]:
        members = _allocate(2, enumerate(cells))
        with pytest.raises(err):
            chfamily(sum(cells), members[0].bit_count(), members)
        assert signature_realizable(VennSignature(2, cells)) is None
    assert signature_realizable(VennSignature(1, (4, 0))) is None


def test_realize_signature_needs_members_and_non_negative_cells():
    assert realize_signature(VennSignature(0, (4,))) is None
    assert signature_realizable(VennSignature(0, (4,))) is None
    # the sums agree (2 each) and the pair is apart, but a cell is negative
    assert realize_signature(VennSignature(2, (0, 2, 2, -1))) is None


def test_realize_signature_round_trip():
    psi = VennSignature(3, (0, 1, 1, 1, 1, 1, 1, 0))
    f = realize_signature(psi)
    assert f is not None and venn_signature(f) == psi
    assert validate_chfamily(f)
    assert realize_signature(VennSignature(2, (1, 1, 1, 1))) is None


def _realizable_rule(cells, k) -> tuple[int, int] | None:
    """Per-index cell sums agree on a rank r in [1, n - 1], and every ordered
    index pair has one-sided cell sum at least two."""
    if k == 0 or min(cells) < 0:
        return None
    n = sum(cells)
    sums = {sum(v for mask, v in enumerate(cells) if mask >> i & 1) for i in range(k)}
    if len(sums) != 1 or not 1 <= min(sums) <= n - 1 or not _pairs_ok(cells, k):
        return None
    return n, min(sums)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.data())
def test_realizable_iff_some_family_has_signature(k, data):
    cells = tuple(
        data.draw(st.integers(-1, 3), label=f"cell{mask}") for mask in range(1 << k)
    )
    psi = VennSignature(k, cells)
    got = signature_realizable(psi)
    assert got == _realizable_rule(cells, k)
    f = realize_signature(psi)
    if got is None:
        assert f is None
    else:
        assert f is not None and (f.n, f.r) == got
        assert venn_signature(f).cells == cells


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.data())
def test_cells_undo_allocate(k, data):
    cells = [data.draw(st.integers(0, 70), label=f"cell{mask}") for mask in range(1 << k)]
    assert _cells(_allocate(k, enumerate(cells)), sum(cells)) == cells


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 80), st.lists(st.integers(0, 2**80 - 1), max_size=4))
def test_cells_match_per_element_loop(width, masks):
    loop = [0] * (1 << len(masks))
    for e in range(width):
        loop[sum(1 << i for i, c in enumerate(masks) if c >> e & 1)] += 1
    assert _cells(masks, width) == loop


def test_cells_past_sixty_four_elements():
    # census grounds reach 256 elements, past any fixed-width integer
    f = fam(256, 130, range(0, 130), range(126, 256))
    assert venn_signature(f) == VennSignature(2, (0, 126, 126, 4))
    assert _cells([], 256) == [256]


# -- census --------------------------------------------------------------------


def test_count_signatures_stars_and_bars():
    for k in range(0, 4):
        for n in range(0, 13):
            assert count_signatures(k, n) == comb(n + (1 << k) - 1, (1 << k) - 1)


def test_census_pk_frozen_examples():
    rows = census_pk(6, 1)
    assert rows == [CensusRow(6, 1, 0, 7), CensusRow(6, 1, 1, 5)]
    rows = census_pk(4, 2)
    assert rows[2] == CensusRow(4, 2, 2, 1)


def test_census_pk_bound():
    from fractalcensus.sparsepaving import BoundTooLarge

    with pytest.raises(BoundTooLarge):
        census_pk(8, 7)
    # cell vectors are uint8; a cell holds up to n - 1 elements
    with pytest.raises(BoundTooLarge):
        census_pk(257, 2)


def test_census_pk_at_size_cap():
    # two r-sets meeting in i <= r - 2 elements, one class per (r, i)
    n = 256
    pairs = sum(max(0, r - 1 - max(0, 2 * r - n)) for r in range(1, n))
    assert census_pk(n, 2) == [
        CensusRow(n, 2, 0, n + 1),
        CensusRow(n, 2, 1, n - 1),
        CensusRow(n, 2, 2, pairs),
    ]


def test_census_pk_matches_labeled_enumeration():
    # kernel-deduped labeled census, no Venn machinery involved
    for n in range(2, 8):
        rows = census_pk(n, 2)
        assert rows[0].count == n + 1
        for m in (1, 2):
            brute = 0
            for r in range(1, n):
                brute += len(brute_census_stratum(n, r, m))
            assert rows[m].count == brute, (n, m)


def test_census_csv_layout():
    text = census_csv(census_pk(6, 1))
    assert text == "n,k,m,count\n6,1,0,7\n6,1,1,5\n"


# -- composition equation ------------------------------------------------------


def test_collar_index_sets_order():
    assert collar_index_sets(3) == (3, 5, 6, 7, 9, 10, 11, 12, 13, 14)
    assert len(collar_index_sets(3)) == 10


def test_collar_solution_counts_frozen():
    assert collar_solution_count(8, 3) == 1
    assert collar_solution_count(9, 3) == 0
    assert collar_solution_count(10, 3) == 4
    assert collar_solution_count(11, 3) == 6


def test_collar_solutions_match_count():
    for n in range(8, 17):
        sols = list(collar_solutions(n, 3))
        assert len(sols) == collar_solution_count(n, 3)
        assert len(set(sols)) == len(sols)
        for sol in sols:
            weighted = sum(
                (5 - mask.bit_count()) * v
                for mask, v in zip(sol.index_sets, sol.values)
            )
            assert weighted == n - 8


def test_collar_too_small():
    with pytest.raises(TooSmall):
        list(collar_solutions(7, 3))
    with pytest.raises(TooSmall):
        collar_solution_count(7, 3)


def test_collar_construct_zero_assignment():
    sol = next(iter(collar_solutions(8, 3)))
    f = collar_construct(sol, 8, 3)
    assert f.r == 2
    assert f.chs == (0b11, 0b1100, 0b110000, 0b11000000)


def test_collar_construct_not_a_solution():
    sol = next(iter(collar_solutions(8, 3)))
    with pytest.raises(NotASolution):
        collar_construct(sol, 10, 3)
    bad = CompositionSolution((3, 5), (1, 0))
    with pytest.raises(NotASolution):
        collar_construct(bad, 10, 3)


def test_collar_construct_gives_excluded_minors():
    for n in (8, 10):
        for sol in collar_solutions(n, 3):
            f = collar_construct(sol, n, 3)
            assert f.k == 4 and f.n == n
            mat = ch_to_matroid(f)
            assert is_excluded_minor(mat, lambda q: pk_member(q, 3))


# -- excluded-minor sweep ------------------------------------------------------


def test_sp_excluded_minors_smallest_case():
    got = sp_excluded_minors(6, 1)
    assert len(got) == 1
    assert got[0].chs == (0b000111, 0b111000)
    assert (got[0].n, got[0].r) == (6, 3)


def test_sp_excluded_minors_outputs_verified_and_distinct():
    got = sp_excluded_minors(8, 1)
    mats = [ch_to_matroid(f) for f in got]
    for mat in mats:
        assert is_excluded_minor(mat, lambda q: pk_member(q, 1))
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert not mats[i].is_isomorphic(mats[j])


def test_sp_excluded_minors_deterministic():
    assert sp_excluded_minors(8, 2) == sp_excluded_minors(8, 2)


def test_sp_excluded_minors_bounds():
    from fractalcensus.sparsepaving import BoundTooLarge

    with pytest.raises(BoundTooLarge):
        sp_excluded_minors(6, 0)
    with pytest.raises(BoundTooLarge):
        sp_excluded_minors(17, 1)
    with pytest.raises(BoundTooLarge):
        sp_excluded_minors(8, 5)
    with pytest.raises(BoundTooLarge, match="caps at n = 9 at k = 4"):
        sp_excluded_minors(10, 4)
    with pytest.raises(BoundTooLarge, match="caps at n = 16$"):
        sp_excluded_minors(17, 3)


def test_sp_excluded_minors_complete_against_brute_small():
    # every labeled family on <= 7 elements that the kernel certifies as
    # an excluded minor for the at-most-1 class shows up in the sweep
    want = []
    for n in range(4, 8):
        for r in range(2, n - 1):
            for m in (2,):
                for chs in all_families(n, r, m):
                    mat = ch_to_matroid(CHFamily(n, r, chs))
                    if is_excluded_minor(mat, lambda q: pk_member(q, 1)):
                        want.append((n, CHFamily(n, r, chs)))
    for n in range(4, 8):
        found = sp_excluded_minors(n, 1)
        mine = [f for size, f in want if size == n]
        # same number of isomorphism classes
        reps: list[CHFamily] = []
        for f in mine:
            if not any(
                ch_to_matroid(f).is_isomorphic(ch_to_matroid(g)) for g in reps
            ):
                reps.append(f)
        assert len(found) == len(reps), n


# -- serialization -------------------------------------------------------------


def test_chfamily_json_round_trip():
    f = fam(6, 3, {0, 1, 2}, {3, 4, 5})
    text = chfamily_to_json(f)
    assert text == '{"n": 6, "rank": 3, "chs": [[0, 1, 2], [3, 4, 5]]}\n'
    assert chfamily_from_json(text) == f


def test_chfamily_from_json_rejects_malformed():
    for text in ["not json", '{"n": 6, "rank": 3}', '{"n": 6, "rank": 3, "chs": 5}',
                 '{"n": 6, "rank": 3, "chs": [["a"]]}']:
        with pytest.raises(MalformedDocument):
            chfamily_from_json(text)
    # a huge element is rejected by range, before any shift
    with pytest.raises(OutOfRange, match="400000000"):
        chfamily_from_json('{"n": 6, "rank": 1, "chs": [[400000000]]}')
    with pytest.raises(OutOfRange):
        chfamily_from_json('{"n": 6, "rank": 1, "chs": [[-1]]}')


def test_family_reader_takes_only_json_integers():
    doc = json.loads(chfamily_to_json(fam(6, 3, {0, 1, 2}, {3, 4, 5})))
    positions = {
        ("n",): (int,),
        ("rank",): (int,),
        ("chs",): (list,),
        ("chs", 1): (list,),
        ("chs", 1, 2): (int,),
    }
    assert misfits_read(chfamily_from_json, doc, positions) == []
    for chs in ("[[0, 0, 1]]", '["01"]'):
        for rank in (2, 3):
            with pytest.raises(MalformedDocument):
                chfamily_from_json(f'{{"n": 6, "rank": {rank}, "chs": {chs}}}')


def test_family_reader_refuses_repeats_after_the_range_check():
    # a repeated element is malformed, as in a matroid document, but every
    # element's range is checked first
    with pytest.raises(MalformedDocument, match="repeats"):
        chfamily_from_json('{"n": 6, "rank": 3, "chs": [[0, 1, 2], [3, 3, 4]]}')
    with pytest.raises(OutOfRange):
        chfamily_from_json('{"n": 6, "rank": 3, "chs": [[0, 0, 1], [9, 1, 2]]}')
    with pytest.raises(DifferenceOne):
        chfamily_from_json('{"n": 6, "rank": 3, "chs": [[0, 1, 2], [0, 1, 3]]}')


def test_census_pk_rejects_negative_inputs():
    with pytest.raises(OutOfRange):
        census_pk(-3, 2)
    with pytest.raises(OutOfRange):
        census_pk(6, -1)


# -- shared cell-vector helpers against their reference forms ------------------


def _scalar_lexmin(v, tabs):
    return min(tuple(v[s] for s in tab) for tab in tabs)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_batched_lexmin_matches_scalar_on_signature_vectors(m):
    tabs = _perm_cell_maps(m)
    for n in range(0, 8):
        for r in range(0, n + 1):
            vectors = _signature_vectors(n, m, r, None)
            arr = np.array(vectors, dtype=np.uint8).reshape(-1, 1 << m)
            for v in vectors:
                one = np.array([v], dtype=np.uint8)
                assert _lexmin_classes(one, tabs) == [_scalar_lexmin(v, tabs)]
                assert _lexmin_classes([v], tabs) == [_scalar_lexmin(v, tabs)]
            want = sorted({_scalar_lexmin(v, tabs) for v in vectors})
            assert _lexmin_classes(arr, tabs) == want


def _lexmin_cases(tabs, peaks, count, seed):
    # cells drawn from small values and the peaks, so byte boundaries and
    # bytes >= 128 land in every position of the key
    rng = random.Random(seed)
    pool = [0, 1, 2, *peaks]
    return [[rng.choice(pool) for _ in range(tabs.shape[1])] for _ in range(count)]


def _lexmin_tables():
    return [_perm_cell_maps(m) for m in range(1, 5)] + [
        _trun_perm_maps(m) for m in range(2, 5)
    ]


@pytest.mark.parametrize(
    "peaks", [(127, 128, 255), (255, 256, 257, 511), (65535, 65536, 65537, 70000)]
)
def test_lexmin_orders_wide_cells_as_ints(peaks):
    for seed, tabs in enumerate(_lexmin_tables()):
        vectors = _lexmin_cases(tabs, peaks, 60, seed)
        for v in vectors:
            assert _lexmin_classes([v], tabs) == [_scalar_lexmin(v, tabs)]
        want = sorted({_scalar_lexmin(v, tabs) for v in vectors})
        assert _lexmin_classes(np.array(vectors), tabs) == want


@pytest.mark.parametrize("block", [1, 200, 640, 1000])
def test_lexmin_blocks_cross_rows_and_tables(monkeypatch, block):
    # blocks far below a row's gather split the tables too, and the uneven
    # sizes leave a short last block of rows and of tables
    monkeypatch.setattr("fractalcensus.sparsepaving._LEXMIN_BLOCK", block)
    for seed, tabs in enumerate(_lexmin_tables()):
        for peaks in [(3,), (300,)]:
            vectors = _lexmin_cases(tabs, peaks, 37, seed)
            want = sorted({_scalar_lexmin(v, tabs) for v in vectors})
            assert _lexmin_classes(np.array(vectors), tabs) == want
            # repeats collapse to one class each
            assert _lexmin_classes(np.array(vectors * 2), tabs) == want
        empty = np.zeros((0, tabs.shape[1]), dtype=np.uint8)
        assert _lexmin_classes(empty, tabs) == []


def _pairs_ok(cells, m):
    for i in range(m):
        for j in range(m):
            if i != j and sum(
                v for mask, v in enumerate(cells) if mask >> i & 1 and not mask >> j & 1
            ) < 2:
                return False
    return True


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pairs_apart_matches_pairwise_loop(m):
    vectors = [v for r in range(0, 7) for v in _signature_vectors(6, m, r, None)]
    got = _pairs_apart(np.array(vectors, dtype=np.uint8), m)
    assert [bool(x) for x in got] == [_pairs_ok(v, m) for v in vectors]
    assert any(got)
    assert all(got) == (m < 2)  # a single index has no pair to separate


@pytest.mark.parametrize(
    "weights", [(), (1,), (3,), (1, 1), (3, 1, 2), (2, 2, 3), (1, 2, 3, 4), (5, 4, 3, 3, 2)]
)
def test_compositions_match_product_brute_force(weights):
    for target in range(0, 11):
        brute = [
            values
            for values in product(*(range(target // w + 1) for w in weights))
            if sum(w * v for w, v in zip(weights, values)) == target
        ]
        assert list(_compositions(weights, target)) == brute
        assert _composition_counts(weights, target)[target] == len(brute)


@pytest.mark.parametrize("nvars", [1, 2, 3, 5, 8])
def test_unit_composition_count_closed_form(nvars):
    # one row holds every total up to its top
    row = _composition_counts((1,) * nvars, 15)
    for target in range(0, 16):
        assert row[target] == comb(target + nvars - 1, nvars - 1)
        assert _composition_counts((1,) * nvars, target) == row[: target + 1]


def test_negative_totals_and_bounds_rejected():
    with pytest.raises(OutOfRange):
        count_signatures(2, -1)
    with pytest.raises(OutOfRange):
        collar_index_sets(-2)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.lists(st.tuples(st.integers(0, 31), st.integers(0, 4))))
def test_allocate_matches_per_element_loop(width, blocks):
    blocks = [(pattern & ((1 << width) - 1), count) for pattern, count in blocks]
    members = [0] * width
    e = 0
    for pattern, count in blocks:
        for _ in range(count):
            for i in bits(pattern):
                members[i] |= 1 << e
            e += 1
    assert _allocate(width, blocks) == members


@pytest.mark.parametrize("n, k", [(8, 1), (9, 2), (10, 2)])
def test_exminor_witnesses_are_canonical_realizations(n, k):
    found = sp_excluded_minors(n, k)
    assert found
    for f in found:
        assert realize_signature(canonical_signature(f)) == f


# -- one-member extension against the labelled oracle --------------------------


@pytest.mark.parametrize("m", range(7))
def test_perm_cell_maps_match_loop(m):
    tabs = _perm_cell_maps(m)
    assert tabs.dtype == np.uint8 and not tabs.flags.writeable
    assert tuple(map(tuple, tabs.tolist())) == _perm_cell_maps_loop(m)


def _perm_cell_maps_matmul(k: int) -> np.ndarray:
    """The earlier build: itertools' permutations, then one integer matmul."""
    perms = np.array(list(permutations(range(k))), dtype=np.int16)
    cell_bits = (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(np.int16)
    return ((1 << perms) @ cell_bits.T).astype(np.uint8)


@pytest.mark.parametrize("k", [7, 8])
def test_perm_cell_maps_match_the_matmul_build(k):
    # past the loop oracle's reach: same rows in the same lexicographic order
    tabs = _perm_cell_maps(k)
    assert tabs.dtype == np.uint8 and not tabs.flags.writeable
    assert np.array_equal(tabs, _perm_cell_maps_matmul(k))


def test_perm_cell_maps_cap_at_eight_indices():
    # uint8 cells stop at 255, the last cell of 8 indices
    tabs = _perm_cell_maps(8)
    assert tabs.shape == (40320, 256)
    assert tabs[0].tolist() == list(range(256))
    with pytest.raises(BoundTooLarge):
        _perm_cell_maps(9)


@pytest.mark.parametrize("n", range(11))
def test_family_levels_match_labelled_oracle(n):
    for k in range(4):
        for r in (0, n):  # no family has members of these sizes
            assert _family_levels(n, r, k, 2 * k) == [[]] * (2 * k)
        for r in range(1, n):
            levels = _family_levels(n, r, k, 2 * k)
            assert len(levels) == 2 * k
            for m, level in enumerate(levels, 1):
                sizes = frozenset(range(max(0, m - k), k + 1))
                assert level == _canonical_classes(_signature_vectors(n, m, r, sizes), m)


@pytest.mark.parametrize("n, k", [(7, 1), (8, 2), (8, 3), (9, 2), (10, 1)])
def test_sp_excluded_minors_match_labelled_oracle_order(n, k):
    assert sp_excluded_minors(n, k) == _oracle_excluded_minors(n, k)


def test_sp_excluded_minors_at_bound_four():
    # level 7 has 64 cells, one more axis than numpy allows an array
    found = sp_excluded_minors(8, 4)
    assert len(found) == 118
    assert [f.k for f in found] == sorted(f.k for f in found)
    # witnesses are allocated from canonical cell vectors, one per class
    assert len({venn_signature(f) for f in found}) == 118
