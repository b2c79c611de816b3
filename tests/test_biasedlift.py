"""Biased-graph lifts, spikes, categories and the excluded-minor generator."""
import json
import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fractalcensus
from fractalcensus.biasedlift import (
    CYCLE,
    SINGLE,
    TWO,
    GGraph,
    GlanceKey,
    HypothesisViolated,
    InvalidGraph,
    InvalidLinearClass,
    LinearClass,
    OddSize,
    PremiseViolated,
    SpikeSpec,
    StratumRow,
    TooLarge,
    _catalog_a,
    _catalog_b,
    _catalog_c,
    _catalog_d,
    _catalog_f,
    _cycle_shapes,
    _cycle_structure,
    _family_from_cells,
    _ham_mask,
    _invariant_key,
    _orbit_counts,
    _pair_mask,
    _trun_levels,
    _trun_perm_maps,
    bottom_construct,
    bottom_index_sets,
    bottom_solution_count,
    bottom_solutions,
    camera_fixtures,
    categorize,
    census_sk_exact,
    census_sk_strata,
    cycle_matroid,
    cycles_of,
    dual_picks,
    dual_spec,
    duality_check,
    ggraph,
    ggraph_from_json,
    ggraph_to_json,
    glance_isomorphic,
    glance_signature,
    ham_class,
    lift_circuits,
    lift_from_contraction,
    lift_matroid,
    linear_class,
    pick_string,
    sk_excluded_minor_classes,
    sk_verify_mode,
    spike,
    spike_cyclic_flats,
    spike_from_spec,
    spike_spec,
    spikespec_from_json,
    spikespec_to_json,
    strata_csv,
    strata_rows,
    strata_total,
    validate_ggraph,
    validate_linear_class,
    verify_sk_excluded_minor,
)
from fractalcensus.kernel import (
    MalformedDocument,
    OutOfRange,
    direct_sum,
    is_excluded_minor,
    make_matroid,
    uniform,
)
from fractalcensus.sparsepaving import (
    NotASolution,
    TooSmall,
    _lexmin_classes,
    _perm_cell_maps,
)


@lru_cache(maxsize=None)
def _trun_orbits(t, m):
    return tuple(_trun_levels(t, m)[m - 1])


def all_specs(t, max_picks=2):
    """Pick families up to the symmetry of the doubled cycle.

    Singletons are all equivalent; pairs are determined by their distance,
    realized as {0, low w bits} for w in 2..t.
    """
    yield spike_spec(t, [])
    if max_picks >= 1:
        yield spike_spec(t, [0])
    if max_picks >= 2:
        for w in range(2, t + 1):
            yield spike_spec(t, [0, (1 << w) - 1])


# -- graphs and lifts ----------------------------------------------------------


def test_ggraph_validation():
    with pytest.raises(InvalidGraph):
        ggraph("triangle", 0, 0, 1)
    with pytest.raises(InvalidGraph):
        ggraph(SINGLE, 1, 0, 0)
    with pytest.raises(InvalidGraph):
        ggraph(TWO, 2, 1, 0)
    with pytest.raises(InvalidGraph):
        ggraph(TWO, 0, 0, 3)
    with pytest.raises(InvalidGraph):
        ggraph(CYCLE, 1, 1, 0)
    assert ggraph(CYCLE, 1, 2, 0).vertex_count == 3
    assert ggraph(TWO, 2, 0, 1).n == 5


def test_cycles_of_counts():
    # doubled triangle: 3 pair cycles + 8 Hamiltonians
    g = ggraph(CYCLE, 3, 0, 0)
    assert len(cycles_of(g)) == 11
    # two vertices, 4 joining edges + a loop: C(4,2) two-cycles + the loop
    g = ggraph(TWO, 0, 4, 1)
    assert len(cycles_of(g)) == 7
    assert len(cycles_of(ggraph(SINGLE, 0, 0, 5))) == 5


def test_linear_class_theta_condition():
    g = ggraph(CYCLE, 3, 0, 0)
    # picks at distance one share a theta
    with pytest.raises(InvalidLinearClass, match="exactly two balanced"):
        validate_linear_class(g, ham_class(g, [0, 1]))
    with pytest.raises(InvalidLinearClass, match="0x3 is not a cycle"):
        validate_linear_class(ggraph(CYCLE, 0, 3, 0), LinearClass((0b011,)))
    validate_linear_class(g, ham_class(g, [0, 3]))
    # a balanced pair forces flip-closure of the picks
    with pytest.raises(InvalidLinearClass):
        validate_linear_class(g, LinearClass((_pair_mask(0), _ham_mask(g, 0))))
    validate_linear_class(
        g, LinearClass(tuple(sorted([_pair_mask(0), _ham_mask(g, 0), _ham_mask(g, 1)])))
    )
    two = ggraph(TWO, 0, 3, 0)
    with pytest.raises(InvalidLinearClass):
        validate_linear_class(two, LinearClass((0b011, 0b101)))
    with pytest.raises(InvalidLinearClass):
        validate_linear_class(two, LinearClass((0b111,)))


def test_lift_circuits_match_axioms():
    # every lift must pass the basis-exchange gate
    for g, cls in [
        (ggraph(CYCLE, 3, 0, 0), []),
        (ggraph(CYCLE, 2, 1, 1), [_ham_mask(ggraph(CYCLE, 2, 1, 1), 0)]),
        (ggraph(CYCLE, 1, 2, 2), []),
        (ggraph(TWO, 0, 4, 1), [0b11, 0b1100]),
        (ggraph(TWO, 0, 3, 0), [0b011]),
        (ggraph(SINGLE, 0, 0, 4), [1]),
    ]:
        m = lift_matroid(g, linear_class(cls))
        assert make_matroid(m.n, m.bases) == m


def test_lift_known_values():
    # the doubled square with nothing balanced: rank 4, six pair-union CHs
    m = spike(4, [])
    assert m.r == 4
    want = sorted(
        _pair_mask(i) | _pair_mask(j) for i, j in combinations(range(4), 2)
    )
    assert sorted(m.circuit_hyperplanes()) == want
    # one vertex, three unbalanced loops
    assert lift_matroid(ggraph(SINGLE, 0, 0, 3), linear_class([])) == uniform(1, 3)
    assert spike(3, []) == uniform(3, 6)
    assert len(spike(3, [0]).bases) == 19


def test_lift_balanced_graph_drops_rank():
    g = ggraph(TWO, 0, 2, 0)
    m = lift_matroid(g, linear_class([0b11]))
    assert m.r == 1 and m == uniform(1, 2)
    m = lift_matroid(g, linear_class([]))
    assert m.r == 2 and m == uniform(2, 2)


def test_cycle_matroid_shapes():
    assert cycle_matroid(ggraph(SINGLE, 0, 0, 3)) == uniform(0, 3)
    assert cycle_matroid(ggraph(TWO, 0, 3, 0)) == uniform(1, 3)
    m = cycle_matroid(ggraph(CYCLE, 0, 4, 0))
    assert m == uniform(3, 4)


# -- cycle table against the per-shape loops --------------------------------------
#
# The four functions below are the oracle for _cycle_structure and its
# readers: the cycle set, the linear-class check (with a pick-based path for
# the cycle kind) and the three circuit clauses, each written out per graph
# kind without a shared table.


def _oracle_pick_of_ham(g: GGraph, mask: int) -> int | None:
    """Inverse of :func:`_ham_mask`, or None when mask is not a Hamiltonian."""
    if mask & g.loops_mask() or (mask & g.thins_mask()) != g.thins_mask():
        return None
    pick = 0
    for i in range(g.t):
        sub = mask >> (2 * i) & 0b11
        if sub == 0b10:
            pick |= 1 << i
        elif sub != 0b01:
            return None
    return pick


def _oracle_cycles_of(g: GGraph) -> tuple[int, ...]:
    """Edge masks of all cycles, ascending."""
    validate_ggraph(g)
    out = [1 << e for e in range(g.joining, g.n)]
    if g.kind == TWO:
        out += [(1 << x) | (1 << y) for x, y in combinations(range(g.joining), 2)]
    elif g.kind == CYCLE:
        out += [_pair_mask(i) for i in range(g.t)]
        out += [_ham_mask(g, pick) for pick in range(1 << g.t)]
    return tuple(sorted(out))


def _oracle_validate_linear_class(g: GGraph, cls: LinearClass) -> LinearClass:
    validate_ggraph(g)
    if g.kind == CYCLE:
        bal_pairs = set()
        ham_picks = set()
        for m in cls.members:
            if m.bit_count() == 1 and m & g.loops_mask():
                continue
            if m.bit_count() == 2 and any(m == _pair_mask(i) for i in range(g.t)):
                bal_pairs.add((m.bit_length() - 1) // 2)
                continue
            pick = _oracle_pick_of_ham(g, m)
            if pick is None:
                raise InvalidLinearClass(f"member {m:#x} is not a cycle")
            ham_picks.add(pick)
        # theta = Hamiltonian plus the other edge of one pair; its cycles are
        # the two picks at distance one and the pair itself
        for h1, h2 in combinations(sorted(ham_picks), 2):
            d = h1 ^ h2
            if d.bit_count() == 1 and (d.bit_length() - 1) not in bal_pairs:
                raise InvalidLinearClass(
                    f"picks {h1:#x} and {h2:#x} differ in a single pair"
                )
        for i in bal_pairs:
            for h in ham_picks:
                if h ^ (1 << i) not in ham_picks:
                    raise InvalidLinearClass(
                        f"balanced pair {i} needs picks closed under flipping it"
                    )
        return cls
    allowed = set(_oracle_cycles_of(g))
    for m in cls.members:
        if m not in allowed:
            raise InvalidLinearClass(f"member {m:#x} is not a cycle")
    if g.kind == TWO:
        bal = set(cls.members)
        for x, y, z in combinations(range(g.joining), 3):
            trio = (1 << x | 1 << y, 1 << x | 1 << z, 1 << y | 1 << z)
            if sum(c in bal for c in trio) == 2:
                raise InvalidLinearClass("theta with exactly two balanced cycles")
    return cls


def _oracle_lift_circuits(g: GGraph, cls: LinearClass) -> tuple[int, ...]:
    bal = set(cls.members)
    out = set(bal)
    loops = [1 << e for e in range(g.joining, g.n)]
    unb_loops = [l for l in loops if l not in bal]
    for l1, l2 in combinations(unb_loops, 2):
        out.add(l1 | l2)
    if g.kind == TWO:
        subs = [(1 << x) | (1 << y) for x, y in combinations(range(g.joining), 2)]
        unb_subs = [m for m in subs if m not in bal]
        for x, y, z in combinations(range(g.joining), 3):
            trio = (1 << x | 1 << y, 1 << x | 1 << z, 1 << y | 1 << z)
            if not any(c in bal for c in trio):
                out.add(1 << x | 1 << y | 1 << z)
        for l in unb_loops:
            for m in unb_subs:
                out.add(l | m)
    elif g.kind == CYCLE:
        pair2 = [_pair_mask(i) for i in range(g.t)]
        hams = [_ham_mask(g, pick) for pick in range(1 << g.t)]
        unb_pairs = [m for m in pair2 if m not in bal]
        unb_hams = [h for h in hams if h not in bal]
        for i in range(g.t):
            for pick in range(1 << g.t):
                if pick >> i & 1:
                    continue
                trio = (pair2[i], hams[pick], hams[pick | 1 << i])
                if not any(c in bal for c in trio):
                    out.add(trio[1] | trio[2])
        # unbalanced cycle pairs: any two pair-cycles share at most a rim
        # vertex, loops share at most the host; Hamiltonians meet everything
        # else in two or more vertices except loops
        for m1, m2 in combinations(unb_pairs, 2):
            out.add(m1 | m2)
        for l in unb_loops:
            for m in unb_pairs:
                out.add(l | m)
            for h in unb_hams:
                out.add(l | h)
    return tuple(sorted(out))


def _all_shapes(max_n: int):
    """Every valid graph shape on at most max_n edges."""
    for n in range(max_n + 1):
        yield GGraph(SINGLE, 0, 0, n)
        for t in range(3):
            for s in range(5):
                if 1 <= 2 * t + s <= min(4, n):
                    yield GGraph(TWO, t, s, n - 2 * t - s)
        for t, s, p in _cycle_shapes(n):
            yield GGraph(CYCLE, t, s, p)


def _valid_class(g: GGraph, rng: random.Random) -> set[int]:
    """A linear class by construction: any loops, plus for two vertices the
    2-cycles inside blocks of an edge partition, and for the cycle kind some
    balanced pairs with picks that are closed under flipping them and at
    distance two or more outside them."""
    out = {1 << e for e in range(g.joining, g.n) if rng.random() < 0.4}
    if g.kind == TWO:
        block = [rng.randrange(3) for _ in range(g.joining)]
        out |= {
            1 << x | 1 << y
            for x, y in combinations(range(g.joining), 2)
            if block[x] == block[y]
        }
    elif g.kind == CYCLE:
        free = sum(1 << i for i in range(g.t) if rng.random() < 0.25)
        out |= {_pair_mask(i) for i in range(g.t) if free >> i & 1}
        picks: list[int] = []
        for _ in range(rng.randrange(4)):
            p = rng.randrange(1 << g.t) & ~free
            if all(((p ^ q) & ~free).bit_count() >= 2 for q in picks):
                picks.append(p)
        for p in picks:
            for sub in range(1 << g.t):
                if sub & ~free == 0:
                    out.add(_ham_mask(g, p | sub))
    return out


def _drawn_classes(g: GGraph, rng: random.Random, count: int):
    """Linear classes by construction, perturbed ones and random subsets of
    cycles, some with a member that is not a cycle."""
    cycles = list(_oracle_cycles_of(g))
    full = (1 << g.n) - 1
    for i in range(count):
        if i % 3 == 0 or not cycles:
            members = _valid_class(g, rng)
        elif i % 3 == 1:
            members = _valid_class(g, rng) ^ {rng.choice(cycles)}
        else:
            q = rng.random()
            members = {c for c in cycles if rng.random() < q}
        if rng.random() < 0.15:
            members.add(rng.randint(0, full))
        yield linear_class(members)


def _verdict(check, g: GGraph, cls: LinearClass) -> bool:
    try:
        check(g, cls)
    except InvalidLinearClass:
        return False
    return True


def test_cycle_table_matches_shape_loops():
    shapes = list(_all_shapes(10))
    assert len(shapes) == 183
    rng = random.Random(20260)
    tally = {True: 0, False: 0}
    for g in shapes:
        assert cycles_of(g) == _oracle_cycles_of(g)
        for cls in _drawn_classes(g, rng, 100):
            ok = _verdict(_oracle_validate_linear_class, g, cls)
            assert _verdict(validate_linear_class, g, cls) == ok, (g, cls)
            tally[ok] += 1
            if ok:
                assert lift_circuits(g, cls) == _oracle_lift_circuits(g, cls), (g, cls)
    # both verdicts are well represented
    assert min(tally.values()) > 5000


def test_cycle_table_arrays():
    g = ggraph(CYCLE, 3, 1, 2)
    cycles, thetas, near = _cycle_structure(g)
    assert not (cycles.flags.writeable or thetas.flags.writeable or near.flags.writeable)
    assert (np.diff(cycles) > 0).all()
    # each theta: one pair with the two Hamiltonians through its sides
    assert thetas.shape == (3 * 4, 3)
    # two loops, three pairs, eight Hamiltonians: 1 + 3 + 2 * (3 + 8)
    assert near.shape == (26, 2)
    # a theta's union is its Hamiltonian plus the other side of its pair
    for tri in thetas:
        union = int(np.bitwise_or.reduce(cycles[tri]))
        assert union.bit_count() == g.t + g.s + 1
    with pytest.raises(TooLarge):
        _cycle_structure(GGraph(CYCLE, 0, 25, 0))


# -- spikes ---------------------------------------------------------------------


def test_spike_spec_validation():
    with pytest.raises(TooSmall):
        spike_spec(2, [])
    with pytest.raises(OutOfRange):
        spike_spec(3, [9])
    with pytest.raises(InvalidLinearClass):
        spike_spec(3, [0, 1])
    spec = spike_spec(4, ["0011", "0000"])
    assert spec.picks == (0, 12)
    assert pick_string(4, 12) == "0011"


def test_spike_cyclic_flats_exhaustive():
    for t in range(3, 7):
        for spec in all_specs(t):
            assert spike_cyclic_flats(spec) == spike_from_spec(spec).cyclic_flats()


def test_spike_duality_exhaustive():
    for t in range(3, 7):
        for spec in all_specs(t):
            assert duality_check(spec)
    assert dual_picks((0, 3), 3) == (4, 7)
    assert dual_spec(SpikeSpec(3, (0,))) == SpikeSpec(3, (7,))


def test_spike_chs_equal_picks_at_rank_five():
    for t in (5, 6):
        for spec in all_specs(t):
            g = ggraph(CYCLE, t, 0, 0)
            want = sorted(_ham_mask(g, p) for p in spec.picks)
            assert sorted(spike_from_spec(spec).circuit_hyperplanes()) == want


def test_spike_validates_against_axioms():
    for t in (3, 4, 5):
        for spec in all_specs(t):
            m = spike_from_spec(spec)
            assert make_matroid(m.n, m.bases) == m


# -- contraction recovery ---------------------------------------------------------


def test_lift_from_contraction_round_trip():
    g = ggraph(CYCLE, 2, 1, 0)
    for picks in ([], [0], [0, 3]):
        base = ggraph(CYCLE, 2, 1, 1)
        cls = ham_class(base, picks)
        m = lift_matroid(base, cls)
        g2, got = lift_from_contraction(m, m.n - 1, g)
        assert got.members == cls.members
        assert g2 == base


def test_lift_from_contraction_recovers_two_cycles():
    base = ggraph(CYCLE, 2, 1, 1)
    cls = linear_class([_pair_mask(0)])
    m = lift_matroid(base, cls)
    _, got = lift_from_contraction(m, 5, ggraph(CYCLE, 2, 1, 0))
    assert got.members == (_pair_mask(0),)


def test_lift_from_contraction_multiple_balanced_loops():
    m = direct_sum(uniform(0, 2), uniform(1, 1))
    g2, got = lift_from_contraction(m, 2, ggraph(SINGLE, 0, 0, 2))
    assert got.members == (1, 2)
    assert g2.p == 3


def test_lift_from_contraction_premise():
    m = spike(3, [])
    with pytest.raises(PremiseViolated):
        lift_from_contraction(m, 0, ggraph(CYCLE, 2, 1, 0))
    with pytest.raises(OutOfRange):
        lift_from_contraction(m, 9, ggraph(CYCLE, 2, 1, 0))


def test_lift_from_contraction_interior_label():
    # contracted element in the middle: labels above it shift down
    base = ggraph(CYCLE, 2, 1, 1)
    cls = ham_class(base, [0])
    m = lift_matroid(base, cls)
    from fractalcensus.kernel import relabel

    perm = [0, 1, 2, 4, 5, 3]  # move the loop to position 3
    moved = relabel(m, perm)
    g2, got = lift_from_contraction(moved, 3, ggraph(CYCLE, 2, 1, 0))
    assert got.members == cls.members


# -- glance signatures -------------------------------------------------------------


def test_glance_signature_example():
    key = glance_signature(spike_spec(5, [0, 3]))
    assert key == GlanceKey(0, 0, (2, 3))


def test_glance_isomorphic_pairs():
    assert glance_isomorphic(spike_spec(5, [0, 3]), spike_spec(5, [31, 28]))
    assert not glance_isomorphic(spike_spec(5, [0, 7]), spike_spec(5, [0, 3]))


def test_glance_hypothesis_gate():
    with pytest.raises(HypothesisViolated):
        glance_signature(spike_spec(4, [0, 3]))
    with pytest.raises(HypothesisViolated):
        glance_signature(spike_spec(5, [0]))


def test_glance_thin_edges_enter_full_cell():
    key = glance_signature((3, 2, 1, [0, 3]))
    assert key.p == 1 and key.s == 2
    assert sum(key.sig) == 5


def test_glance_cells_past_a_byte():
    # 300 thins put 300 or more elements in the full cell
    picks = [0, 3, 12]
    key = glance_signature((5, 300, 0, picks))
    assert key == GlanceKey(0, 300, _glance_per_last(5, 300, picks))
    assert max(key.sig) >= 300


def test_equal_profile_spikes_are_told_apart():
    # two classes of one catalog bucket at n = 10, k = 5: rank, basis count
    # and element profiles agree, so only is_isomorphic's final basis check
    # separates them; their glance keys differ
    a, b = spike_spec(5, [0, 3, 12, 20, 24]), spike_spec(5, [0, 3, 5, 6, 28])
    ma, mb = spike_from_spec(a), spike_from_spec(b)
    assert _invariant_key(ma) == _invariant_key(mb)
    assert not ma.is_isomorphic(mb) and not mb.is_isomorphic(ma)
    assert not glance_isomorphic(a, b)


def test_glance_matches_kernel_on_witnesses():
    # equal keys must mean isomorphic lifts; spot-check with the kernel
    for t, m in [(5, 2), (5, 3), (6, 2)]:
        reps = [_family_from_cells(c, m) for c in _trun_orbits(t, m)]
        mats = [spike_from_spec(spike_spec(t, picks)) for picks in reps]
        for i, a in enumerate(mats):
            for b in mats[i + 1 :]:
                assert not a.is_isomorphic(b)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_glance_invariant_under_relabeling(data):
    t = data.draw(st.integers(min_value=5, max_value=7))
    m = data.draw(st.integers(min_value=2, max_value=3))
    orbits = _trun_orbits(t, m)
    cells = data.draw(st.sampled_from(orbits))
    picks = list(_family_from_cells(cells, m))
    # scramble: permute pair positions and flip sides per position
    perm = data.draw(st.permutations(range(t)))
    flips = data.draw(st.integers(min_value=0, max_value=(1 << t) - 1))
    scrambled = []
    for p in picks:
        q = 0
        for j in range(t):
            if p >> j & 1:
                q |= 1 << perm[j]
        scrambled.append(q ^ flips)
    assert glance_signature((t, 0, 0, scrambled)) == glance_signature(
        (t, 0, 0, picks)
    )


def _glance_per_last(t, s, picks):
    """Reference glance cell vector: every pick in turn as the last one,
    the Venn lexmin over the orderings of the others, least overall."""
    m = len(picks)
    best = None
    for last in range(m):
        others = [i for i in range(m) if i != last]
        cells = [0] * (1 << (m - 1))
        for j in range(t):
            side = picks[last] >> j & 1
            pattern = 0
            for pos, i in enumerate(others):
                if picks[i] >> j & 1 == side:
                    pattern |= 1 << pos
            cells[pattern] += 1
        cells[-1] += s
        cand = min(tuple(cells[x] for x in tab) for tab in _perm_cell_maps(m - 1))
        if best is None or cand < best:
            best = cand
    return best


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 7),
    st.integers(0, 3),
    st.integers(0, 2),
    st.lists(st.integers(0, 127), min_size=2, max_size=8),
)
def test_glance_matches_per_last_reference(t, s, p, raw):
    assume(t + s >= 5)
    picks = []
    for x in raw:
        x &= (1 << t) - 1
        if all((x ^ y).bit_count() >= 2 for y in picks):
            picks.append(x)
    assume(len(picks) >= 2)
    picks.sort()
    key = glance_signature((t, s, p, picks))
    assert key == GlanceKey(p, s, _glance_per_last(t, s, picks))


# -- orbit machinery ----------------------------------------------------------------


# Oracle for _trun_levels: a pruned recursion over every labelled trun
# vector, independent of the one-pick extension.


@lru_cache(maxsize=None)
def _trun_pair_selectors(m: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Per cell, the indices of ordered-pair distances it contributes to.

    Pairs are (i, j) over the truncated indices plus (i, last); a cell
    splits (i, j) when exactly one of the bits is set and (i, last) when
    bit i is clear.
    """
    idxpairs = list(combinations(range(m - 1), 2)) + [(i, m) for i in range(m - 1)]
    rows = []
    for cell in range(1 << (m - 1)):
        hit = []
        for pi, (i, j) in enumerate(idxpairs):
            if j == m:
                if not cell >> i & 1:
                    hit.append(pi)
            elif (cell >> i ^ cell >> j) & 1:
                hit.append(pi)
        rows.append(tuple(hit))
    return tuple(rows), len(idxpairs)


def _trun_vectors(total: int, m: int) -> list[tuple[int, ...]]:
    """Cell vectors with the given total whose pairwise distances all reach 2."""
    rows, npairs = _trun_pair_selectors(m)
    ncells = 1 << (m - 1)
    # suffix aids for pruning: which pairs any later cell can still feed,
    # and the largest number of pairs a later cell feeds at once
    suffix_mask = [0] * (ncells + 1)
    suffix_width = [0] * (ncells + 1)
    for pos in range(ncells - 1, -1, -1):
        pm = 0
        for pi in rows[pos]:
            pm |= 1 << pi
        suffix_mask[pos] = suffix_mask[pos + 1] | pm
        suffix_width[pos] = max(suffix_width[pos + 1], len(rows[pos]))
    deficits = [2] * npairs
    out: list[tuple[int, ...]] = []
    cells = [0] * ncells

    def rec(pos: int, rest: int, need_mask: int, need_sum: int) -> None:
        if need_mask & ~suffix_mask[pos]:
            return
        if need_sum > rest * suffix_width[pos]:
            return
        saved = [deficits[pi] for pi in rows[pos]]
        if pos == ncells - 1:
            remaining = need_sum
            for pi in rows[pos]:
                drop = min(rest, deficits[pi])
                deficits[pi] -= drop
                remaining -= drop
            if remaining == 0:
                cells[pos] = rest
                out.append(tuple(cells))
                cells[pos] = 0
        else:
            for v in range(rest + 1):
                if v:
                    for pi in rows[pos]:
                        if deficits[pi] > 0:
                            deficits[pi] -= 1
                            need_sum -= 1
                            if deficits[pi] == 0:
                                need_mask &= ~(1 << pi)
                cells[pos] = v
                rec(pos + 1, rest - v, need_mask, need_sum)
            cells[pos] = 0
        for pi, old in zip(rows[pos], saved):
            deficits[pi] = old

    rec(0, total, (1 << npairs) - 1, 2 * npairs)
    return out




def _trun_perm_maps_loop(m: int) -> tuple[tuple[int, ...], ...]:
    """Reference trun tables: with new last pick l, a cell I maps to the
    agreement pattern against l, pulled back through the permutation."""
    ncells = 1 << (m - 1)
    tabs = []
    for sigma in permutations(range(m)):
        last = sigma[m - 1]
        tab = [0] * ncells
        for cell in range(ncells):
            def val(u: int) -> int:
                return 0 if u == m - 1 or cell >> u & 1 else 1
            vl = val(last)
            target = 0
            for pos in range(m - 1):
                if val(sigma[pos]) == vl:
                    target |= 1 << pos
            tab[target] = cell
        tabs.append(tuple(tab))
    return tuple(tabs)


@pytest.mark.parametrize("m", range(1, 8))
def test_trun_perm_maps_fold_the_venn_tables(m):
    tabs = _trun_perm_maps(m)
    assert tabs.dtype == np.uint8 and not tabs.flags.writeable
    assert len(tabs) == len(_perm_cell_maps(m))
    # the fold lists the orderings in another order, which no least
    # vector can see
    assert set(map(tuple, tabs.tolist())) == set(_trun_perm_maps_loop(m))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_batched_lexmin_matches_scalar_on_trun_vectors(m):
    tabs = _trun_perm_maps(m)
    for t in range(0, 7):
        vectors = _trun_vectors(t, m)
        for v in vectors:
            one = np.array([v], dtype=np.uint8)
            want = min(tuple(v[x] for x in tab) for tab in tabs)
            assert _lexmin_classes(one, tabs) == [want]
            assert _lexmin_classes([v], tabs) == [want]
        assert list(_trun_orbits(t, m)) == sorted(
            {min(tuple(v[x] for x in tab) for tab in tabs) for v in vectors}
        )


def test_trun_vectors_filter():
    # every vector realizes a pick family with pairwise distance >= 2
    for t in (3, 4, 5):
        for m in (2, 3):
            for v in _trun_vectors(t, m):
                picks = _family_from_cells(v, m)
                for p1, p2 in combinations(picks, 2):
                    assert (p1 ^ p2).bit_count() >= 2


def test_trun_vectors_brute_match():
    # against a direct enumeration without pruning
    from itertools import product

    for t, m in [(3, 2), (4, 3), (5, 3)]:
        ncells = 1 << (m - 1)
        brute = set()
        for v in product(range(t + 1), repeat=ncells):
            if sum(v) != t:
                continue
            picks = _family_from_cells(v, m)
            if all(
                (p1 ^ p2).bit_count() >= 2 for p1, p2 in combinations(picks, 2)
            ):
                brute.add(v)
        assert set(_trun_vectors(t, m)) == brute


def test_trun_orbit_counts():
    assert len(_trun_orbits(2, 2)) == 1
    assert len(_trun_orbits(5, 2)) == 4
    # m = 3 needs every pairwise distance >= 2, so t = 3 forces (1,1,1,0)
    assert len(_trun_orbits(3, 3)) == 1
    assert _trun_orbits(4, 1) == ((4,),)


@pytest.mark.parametrize(
    "t, m", [(t, m) for m in range(2, 6) for t in range(7)] + [(5, 6)]
)
def test_trun_orbits_match_labelled_oracle(t, m):
    tabs = _trun_perm_maps(m)
    arr = np.array(_trun_vectors(t, m), dtype=np.uint8).reshape(-1, 1 << (m - 1))
    assert list(_trun_orbits(t, m)) == _lexmin_classes(arr, tabs)


@pytest.mark.parametrize("t", [255, 300])
def test_trun_orbit_cells_past_a_byte(t):
    # two picks at distance 2..t, one orbit each
    assert len(_trun_orbits(t, 2)) == t - 1


@pytest.mark.parametrize("k", range(6))
def test_orbit_counts_match_labelled_oracle(k):
    for t in range(7):
        want = [1]
        for m in range(1, k + 1):
            arr = np.array(_trun_vectors(t, m), dtype=np.uint8)
            arr = arr.reshape(-1, 1 << (m - 1))
            want.append(len(_lexmin_classes(arr, _trun_perm_maps(m))))
        assert _orbit_counts(t, k) == tuple(want)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_strata_rows_keep_counts_not_orbits():
    # a fresh process: each t's orbit levels are counted and dropped, so the
    # 801,700 three-pick orbits of n = 201 are never held at once (116 MB
    # peak while every orbit tuple was cached).  VmHWM is the probe's own
    # peak; its ru_maxrss would also hold this process's, since exec keeps
    # the peak of the memory it replaces.
    src = str(Path(fractalcensus.__file__).resolve().parents[1])
    env = dict(os.environ, FRACTAL_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "from fractalcensus.biasedlift import strata_rows, strata_total\n"
        "total = strata_total(strata_rows(201, 3))\n"
        "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
        "print(total, status.split()[0])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    total, peak_kib = map(int, done.stdout.split())
    assert total == 34269071
    assert peak_kib < 80 * 1024


def test_trun_orbit_counts_at_six_and_seven():
    assert len(_trun_orbits(6, 6)) == 742
    assert len(_trun_orbits(7, 5)) == 800


def _trun_cells(t, picks):
    # cell I counts the coordinates where exactly the picks in I agree
    # with the last pick
    cells = [0] * (1 << (len(picks) - 1))
    for j in range(t):
        side = picks[-1] >> j & 1
        cells[sum(1 << i for i, p in enumerate(picks[:-1]) if p >> j & 1 == side)] += 1
    return cells


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7), st.lists(st.integers(0, 127), min_size=2, max_size=12))
def test_trun_orbits_hold_every_pick_family(t, raw):
    picks = []
    for x in raw:
        x &= (1 << t) - 1
        if all((x ^ y).bit_count() >= 2 for y in picks) and len(picks) < 6:
            picks.append(x)
    assume(len(picks) >= 2)
    m = len(picks)
    least = _lexmin_classes([_trun_cells(t, picks)], _trun_perm_maps(m))
    assert least[0] in _trun_orbits(t, m)


# -- categories ---------------------------------------------------------------------


def test_camera_fixtures_are_outside():
    fixtures = camera_fixtures()
    assert len(fixtures) == 5
    for m in fixtures:
        for k in range(6):
            assert categorize(m, k) is None


def test_categorize_members():
    assert categorize(spike(3, []), 0).tag == "A"
    assert categorize(spike(3, [0]), 1).tag == "A"
    assert categorize(spike(3, [0]), 0) is None
    assert categorize(uniform(1, 3), 0).tag == "C"
    assert categorize(uniform(0, 0), 0).tag == "C"
    assert categorize(direct_sum(uniform(1, 1), uniform(1, 2)), 0).tag == "B"
    assert categorize(uniform(2, 4), 0).tag == "B"
    # duals of graphic shapes
    assert categorize(cycle_matroid(ggraph(CYCLE, 2, 1, 0)).dual(), 0) is not None


def test_categorize_gates():
    with pytest.raises(OutOfRange):
        categorize(uniform(1, 2), -1)
    import fractalcensus.biasedlift as bl

    with pytest.raises(bl.TooLargeForExact):
        categorize(uniform(7, 15), 0)
    with pytest.raises(bl.TooLarge):
        categorize(uniform(1, 2), 7)


@lru_cache(maxsize=None)
def _generated(n, k):
    """Every member the six category generators produce at size n, in
    ABCDEF order and without dedupe; E is the duals of the D members."""
    graphic = list(_catalog_d(n))
    return tuple(
        (tag, m)
        for tag, mats in (
            ("A", _catalog_a(n, k)),
            ("B", _catalog_b(n, k)),
            ("C", _catalog_c(n, k)),
            ("D", graphic),
            ("E", [m.dual() for m in graphic]),
            ("F", _catalog_f(n)),
        )
        for m in mats
    )


def _categorize_oracle(m, k):
    """Tag of the first generated member isomorphic to m, else None."""
    for tag, g in _generated(m.n, k):
        if m.is_isomorphic(g):
            return tag
    return None


def test_categorize_matches_generate_and_test_oracle():
    for k in range(4):
        for n in range(9):
            cases = {
                q
                for _, m in _generated(n, k)
                for q in (m, *map(m.delete, range(n)), *map(m.contract, range(n)))
            }
            for q in cases:
                got = categorize(q, k)
                assert (got and got.tag) == _categorize_oracle(q, k)
    for m in camera_fixtures():
        for k in range(4):
            assert _categorize_oracle(m, k) is None


def test_minor_closure_of_small_members():
    # single-element minors of members stay members
    mats = [
        spike(4, [0, 3]),
        lift_matroid(ggraph(CYCLE, 2, 2, 1), ham_class(ggraph(CYCLE, 2, 2, 1), [0])),
        lift_matroid(ggraph(TWO, 0, 4, 0), linear_class([0b11])),
    ]
    for m in mats:
        assert categorize(m, 2) is not None
        for e in range(m.n):
            assert categorize(m.delete(e), 2) is not None
            assert categorize(m.contract(e), 2) is not None


# -- censuses ------------------------------------------------------------------------


def test_census_sk_exact_small():
    assert census_sk_exact(2, 0) == 4
    assert census_sk_exact(0, 0) == 1
    assert census_sk_exact(1, 0) == 2
    # adding balance at two elements changes nothing
    assert census_sk_exact(2, 2) == 4


# census_sk_exact(n, k): row n, column k
_CENSUS_SK_EXACT = (
    (1, 1, 1, 1, 1, 1, 1),
    (2, 2, 2, 2, 2, 2, 2),
    (4, 4, 4, 4, 4, 4, 4),
    (8, 8, 8, 8, 8, 8, 8),
    (17, 17, 17, 17, 17, 17, 17),
    (32, 34, 34, 34, 34, 34, 34),
    (48, 60, 62, 62, 62, 62, 62),
    (64, 80, 88, 90, 92, 92, 92),
    (84, 105, 119, 125, 134, 137, 139),
    (104, 130, 150, 160, 176, 182, 186),
    (128, 160, 190, 210, 253, 292, 347),
    (152, 190, 230, 260, 330, 402, 508),
    (180, 225, 280, 331, 484, 771, 1670),
)


def test_census_sk_exact_grid():
    for n, row in enumerate(_CENSUS_SK_EXACT):
        assert tuple(census_sk_exact(n, k) for k in range(7)) == row


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_category_catalog_corner_fits_in_memory():
    # the largest catalog, in a fresh process: each representative keeps its
    # bases as one uint32 array, so the whole build peaks far below the
    # 733 MB that per-basis Python ints took.  VmHWM is the probe's own peak;
    # its ru_maxrss would also hold this process's
    src = str(Path(fractalcensus.__file__).resolve().parents[1])
    env = dict(os.environ, FRACTAL_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "from fractalcensus.biasedlift import _category_catalog\n"
        "classes = sum(map(len, _category_catalog(14, 6).values()))\n"
        "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
        "print(classes, status.split()[0])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    classes, peak_kib = map(int, done.stdout.split())
    assert classes == 12020
    assert peak_kib < 300 * 1024


def test_census_sk_exact_gates():
    import fractalcensus.biasedlift as bl

    with pytest.raises(bl.TooLarge):
        census_sk_exact(13, 0)
    with pytest.raises(bl.TooLarge):
        census_sk_exact(4, 7)
    with pytest.raises(OutOfRange):
        census_sk_exact(-1, 0)


def test_census_strata_shape():
    rows = census_sk_strata(8, 2)
    assert all(isinstance(r, StratumRow) for r in rows)
    assert all(r.mode in ("exact", "upper") for r in rows)
    assert all(r.category in "ABCDEF" for r in rows)
    # members with picks only appear in the lift stratum
    assert all(r.m == 0 for r in rows if r.category != "A")
    text = strata_csv(rows)
    assert text.startswith("n,k,category,r,m,count,mode\n")
    assert text.endswith("\n")
    with pytest.raises(OddSize):
        census_sk_strata(7, 2)


def test_strata_rows_bounds():
    # odd sizes are rows of the gamma table; only the census needs even n
    assert strata_rows(8, 2) == census_sk_strata(8, 2)
    assert {r.n for r in strata_rows(7, 2)} == {7}
    for n, k in [(-1, 2), (8, -1)]:
        with pytest.raises(OutOfRange):
            strata_rows(n, k)
    with pytest.raises(TooLarge):
        strata_rows(7, 7)
    with pytest.raises(TooLarge):
        census_sk_strata(8, 7)


def test_strata_rows_size_cap():
    # rows reach t = n // 2, and trun cell vectors are uint8
    n = 511
    two = [row for row in strata_rows(n, 2) if row.category == "A" and row.m == 2]
    # two picks at total t leave t - 1 orbits
    assert [row.count for row in two] == [
        sum(max(0, row.r - s - 1) for s in range(max(0, 2 * row.r - n), row.r + 1))
        for row in two
    ]
    with pytest.raises(TooLarge):
        strata_rows(512, 2)
    with pytest.raises(TooLarge):
        census_sk_strata(512, 2)


def test_census_strata_bounds_exact():
    for k in range(3):
        for n in range(0, 13, 2):
            est = strata_total(census_sk_strata(n, k))
            assert est >= census_sk_exact(n, k)
    # the gap closes as n grows; at the cap it is inside +15%
    for k in range(3):
        exact = census_sk_exact(12, k)
        est = strata_total(census_sk_strata(12, k))
        assert exact <= est <= exact * 1.15


# -- excluded-minor generation --------------------------------------------------------


def test_bottom_index_sets():
    assert bottom_index_sets(2) == ()
    sets = bottom_index_sets(3)
    assert len(sets) == 3 and all(m.bit_count() == 1 for m in sets)
    assert len(bottom_index_sets(5)) == 2 ** 5 - 5 - 2
    with pytest.raises(TooSmall):
        bottom_index_sets(1)


def test_bottom_solution_counts():
    assert bottom_solution_count(6, 2) == 1
    assert bottom_solution_count(7, 2) == 0
    assert bottom_solution_count(8, 2) == 0
    assert bottom_solution_count(9, 3) == 3
    assert bottom_solution_count(12, 5) == 1
    for t, k in [(6, 2), (9, 3), (10, 3), (12, 5), (13, 5)]:
        assert bottom_solution_count(t, k) == len(list(bottom_solutions(t, k)))
    with pytest.raises(TooSmall):
        list(bottom_solutions(5, 2))


def test_bottom_construct_known():
    phi = next(bottom_solutions(6, 2))
    spec = bottom_construct(phi, 6, 2)
    assert spec.t == 6 and len(spec.picks) == 3
    m = spike_from_spec(spec)
    assert m.n == 12
    assert all(c.bit_count() > 2 for c in m.circuits().members)
    assert all(c.bit_count() > 2 for c in m.dual().circuits().members)


def test_bottom_construct_rejects_bad_solution():
    from fractalcensus.sparsepaving import CompositionSolution

    phi = CompositionSolution(bottom_index_sets(3), (0, 0, 0))
    with pytest.raises(NotASolution):
        bottom_construct(phi, 10, 3)
    phi = CompositionSolution((), ())
    with pytest.raises(NotASolution):
        bottom_construct(phi, 7, 2)


def test_verify_full_and_structural_agree():
    for phi in bottom_solutions(6, 2):
        spec = bottom_construct(phi, 6, 2)
        assert verify_sk_excluded_minor(spec, 2, mode="full")
        assert verify_sk_excluded_minor(spec, 2, mode="structural")
    # members are not excluded minors
    good = spike_spec(6, [0])
    assert not verify_sk_excluded_minor(good, 2, mode="structural")
    assert not verify_sk_excluded_minor(good, 2, mode="full")


def test_verify_structural_rejections():
    # three picks agreeing at some pair: one side lies in all of them, so
    # deleting the other side leaves three picks standing
    spec = spike_spec(8, [0, 0b001100, 0b110000])
    assert verify_sk_excluded_minor(spec, 2, mode="structural") is False
    import fractalcensus.biasedlift as bl

    with pytest.raises(bl.TooLargeForFull):
        verify_sk_excluded_minor(spike_spec(12, [0, 3]), 1, mode="full")


def test_verify_mode_resolution():
    # auto means full verification up to the 14-element catalog cap
    assert sk_verify_mode(7) == "full"
    assert sk_verify_mode(8) == "structural"
    assert sk_verify_mode(8, "full") == "full"
    assert sk_verify_mode(3, "structural") == "structural"
    with pytest.raises(OutOfRange):
        sk_verify_mode(6, "fast")
    with pytest.raises(OutOfRange):
        verify_sk_excluded_minor(spike_spec(6, [0]), 2, mode="fast")


def test_verify_excluded_minor_against_kernel():
    spec = bottom_construct(next(bottom_solutions(6, 2)), 6, 2)
    m = spike_from_spec(spec)
    assert is_excluded_minor(m, lambda q: categorize(q, 2) is not None)


def test_sk_excluded_minor_classes_dedup():
    classes = sk_excluded_minor_classes(6, 2)
    assert len(classes) == 1
    assert len(sk_excluded_minor_classes(9, 3)) <= 3
    # every class is even-sized
    assert all(2 * s.t % 2 == 0 for s in classes)


# -- serialization ---------------------------------------------------------------------


def test_ggraph_json_round_trip():
    for g in [ggraph(CYCLE, 2, 1, 3), ggraph(TWO, 1, 2, 0), ggraph(SINGLE, 0, 0, 2)]:
        assert ggraph_from_json(ggraph_to_json(g)) == g
    doc = json.loads(ggraph_to_json(ggraph(CYCLE, 2, 1, 3)))
    assert doc == {"kind": "cycle", "t": 2, "s": 1, "p": 3}


def test_spikespec_json_round_trip():
    spec = spike_spec(4, [0b0011, 0b1100])
    text = spikespec_to_json(spec)
    doc = json.loads(text)
    assert doc["picks"] == sorted(doc["picks"])
    assert spikespec_from_json(text) == spec
    # string form: position i holds the side of pair i
    assert set(doc["picks"]) == {"1100", "0011"}


def test_document_parsers_reject_malformed():
    with pytest.raises(MalformedDocument):
        spikespec_from_json('{"picks": ["0011"]}')
    with pytest.raises(MalformedDocument):
        spikespec_from_json("not json")
    with pytest.raises(MalformedDocument):
        ggraph_from_json('{"kind": "cycle", "t": 3}')
