"""Lift matroids of biased graphs over the doubled-cycle class.

The graphs here come in three shapes: a single vertex carrying loops, two
vertices joined by up to four edges (plus loops), and a cycle of length at
least three in which each edge may be doubled into a parallel pair (plus
loops).  A biased graph designates some cycles balanced, subject to the
linear-class condition: no theta subgraph contains exactly two balanced
cycles.  The lift matroid has a circuit for every balanced cycle, every
theta whose three cycles are all unbalanced, and every pair of unbalanced
cycles meeting in at most one vertex.

Spikes are lifts over the fully doubled cycle with a balanced class of
Hamiltonian cycles, encoded as pick vectors (one bit per pair).  On top of
the constructions this module carries the membership machinery for the
spike-minor classes: category classification against generated catalogs,
exact and stratified censuses, trun-signature isomorphism for large-rank
lifts, and the composition-driven excluded-minor generator.
"""
from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from itertools import combinations, groupby
from typing import Iterable, Iterator, NamedTuple

from ._caps import CATALOG_K, CATALOG_N, EXACT_N, SK_EXMINORS_T, STRATA_N
from ._lazy import np
from .bitset import _subset_sizes, subset_index
from .kernel import (
    INT,
    MAX_GROUND,
    PICKS,
    Matroid,
    MatroidError,
    OutOfRange,
    RankedFlat,
    _sweep_up,
    direct_sum,
    is_excluded_minor,
    read_document,
    relabel,
    uniform,
)
from .sparsepaving import (
    CompositionSolution,
    TooSmall,
    _allocate,
    _cells,
    _check_solution,
    _grow,
    _lexmin_classes,
    _perm_cell_maps,
    _solution_counts,
    _solutions,
)

SINGLE = "single"
TWO = "two"
CYCLE = "cycle"
_KINDS = (SINGLE, TWO, CYCLE)


class InvalidGraph(MatroidError):
    """Shape parameters outside the three supported graph kinds."""


class InvalidLinearClass(MatroidError):
    """Balanced-cycle family violating the theta condition."""


class TooLarge(MatroidError):
    """Requested computation above the supported size bounds."""


class PremiseViolated(MatroidError):
    """Contraction-recovery input does not match the declared graph."""


class TooLargeForExact(MatroidError):
    """Exact category classification is capped at 14 elements."""


class TooLargeForFull(MatroidError):
    """Full kernel excluded-minor verification is capped at 14 elements."""


class HypothesisViolated(MatroidError):
    """Trun-signature machinery needs rank >= 5 and >= 2 members."""


class OddSize(MatroidError):
    """Strata census rows are defined for even sizes only."""


# -- graphs -------------------------------------------------------------------


class GGraph(NamedTuple):
    """Graph shape: ``t`` parallel pairs, ``s`` thin edges, ``p`` loops.

    Edge labels are positional: pair i occupies labels (2i, 2i+1), thins
    follow at 2t..2t+s-1, loops last.  For the cycle kind the rim order is
    pairs first, thins after; the order never changes the lift matroid, so
    one fixed layout loses nothing.  Loops sit on an arbitrary vertex for
    the same reason.
    """

    kind: str
    t: int
    s: int
    p: int

    @property
    def n(self) -> int:
        return 2 * self.t + self.s + self.p

    @property
    def vertex_count(self) -> int:
        if self.kind == SINGLE:
            return 1
        if self.kind == TWO:
            return 2
        return self.t + self.s

    @property
    def joining(self) -> int:
        """Number of non-loop edges."""
        return 2 * self.t + self.s

    def thins_mask(self) -> int:
        return ((1 << self.s) - 1) << (2 * self.t)

    def loops_mask(self) -> int:
        return ((1 << self.p) - 1) << self.joining


def validate_ggraph(g: GGraph) -> GGraph:
    if g.kind not in _KINDS:
        raise InvalidGraph(f"unknown graph kind {g.kind!r}")
    if g.t < 0 or g.s < 0 or g.p < 0:
        raise InvalidGraph("negative shape parameter")
    if g.kind == SINGLE and (g.t or g.s):
        raise InvalidGraph("single-vertex graphs carry loops only")
    if g.kind == TWO and not 1 <= g.joining <= 4:
        raise InvalidGraph(f"two-vertex graphs need 1..4 joining edges, got {g.joining}")
    if g.kind == CYCLE and g.t + g.s < 3:
        raise InvalidGraph(f"cycle graphs need rim length >= 3, got {g.t + g.s}")
    return g


def ggraph(kind: str, t: int, s: int, p: int) -> GGraph:
    return validate_ggraph(GGraph(kind, t, s, p))


def _pair_mask(i: int) -> int:
    return 0b11 << (2 * i)


def _ham_mask(g: GGraph, pick: int) -> int:
    """Edge mask of the Hamiltonian cycle choosing side ``pick`` per pair."""
    m = g.thins_mask()
    for i in range(g.t):
        m |= 1 << (2 * i + (pick >> i & 1))
    return m


@lru_cache(maxsize=None)
def _cycle_structure(g: GGraph) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Cycles, thetas and near-disjoint cycle pairs of the shape.

    Returns three read-only arrays: the cycles as edge masks, ascending;
    the thetas as rows of three indices into the cycles; and the pairs of
    cycles meeting in at most one vertex as rows of two indices.  This is
    the one place that knows the shapes.  Loops sit on one vertex, so they
    meet every other cycle there at most.  On two vertices, any three
    joining edges make a theta.  On the cycle kind, a theta is a parallel
    pair with the two Hamiltonians through its sides; two pair cycles share
    at most a rim vertex, and a Hamiltonian meets every non-loop in two or
    more vertices.
    """
    validate_ggraph(g)
    if g.n > MAX_GROUND:
        raise TooLarge(f"ground size {g.n} above {MAX_GROUND}")
    loops = [1 << e for e in range(g.joining, g.n)]
    cycles = list(loops)
    thetas: list[tuple[int, ...]] = []
    near = list(combinations(loops, 2))
    if g.kind == TWO:
        edges = [1 << e for e in range(g.joining)]
        subs = [x | y for x, y in combinations(edges, 2)]
        cycles += subs
        thetas = [(x | y, x | z, y | z) for x, y, z in combinations(edges, 3)]
        near += [(l, c) for l in loops for c in subs]
    elif g.kind == CYCLE:
        pairs = [_pair_mask(i) for i in range(g.t)]
        hams = [_ham_mask(g, pick) for pick in range(1 << g.t)]
        cycles += pairs + hams
        thetas = [
            (pairs[i], hams[pick], hams[pick | 1 << i])
            for i in range(g.t)
            for pick in range(1 << g.t)
            if not pick >> i & 1
        ]
        near += list(combinations(pairs, 2))
        near += [(l, c) for l in loops for c in pairs + hams]
    cyc = np.array(sorted(cycles), dtype=np.int64)
    tri = np.searchsorted(cyc, np.array(thetas, dtype=np.int64).reshape(-1, 3))
    duo = np.searchsorted(cyc, np.array(near, dtype=np.int64).reshape(-1, 2))
    for arr in (cyc, tri, duo):
        arr.flags.writeable = False
    return cyc, tri, duo


def cycles_of(g: GGraph) -> tuple[int, ...]:
    """Edge masks of all cycles, ascending."""
    return tuple(_cycle_structure(g)[0].tolist())


# -- linear classes -----------------------------------------------------------


class LinearClass(NamedTuple):
    """Balanced cycles as a sorted tuple of edge masks."""

    members: tuple[int, ...]


def linear_class(members: Iterable[int]) -> LinearClass:
    return LinearClass(tuple(sorted(set(int(m) for m in members))))


def ham_class(g: GGraph, picks: Iterable[int]) -> LinearClass:
    """Linear class of Hamiltonian cycles given by pick vectors."""
    return linear_class(_ham_mask(g, pick) for pick in picks)


def _balanced(g: GGraph, cls: LinearClass) -> "np.ndarray":
    """Boolean per cycle of g: is it a member of the class?  Raises
    InvalidLinearClass unless cls is a linear class of g."""
    cycles, thetas, _ = _cycle_structure(g)
    members = np.array(cls.members, dtype=np.int64)
    at = np.searchsorted(cycles, members)
    known = at < len(cycles)
    known[known] = cycles[at[known]] == members[known]
    if not known.all():
        raise InvalidLinearClass(f"member {int(members[~known][0]):#x} is not a cycle")
    bal = np.zeros(len(cycles), dtype=bool)
    bal[at] = True
    bad = thetas[bal[thetas].sum(axis=1) == 2]
    if len(bad):
        names = ", ".join(f"{c:#x}" for c in cycles[bad[0]].tolist())
        raise InvalidLinearClass(f"theta of {names} has exactly two balanced cycles")
    return bal


def validate_linear_class(g: GGraph, cls: LinearClass) -> LinearClass:
    """Check membership in the cycle set plus the theta condition.

    Only the balance structure is validated here; category-specific shape
    restrictions (Hamiltonian-only members, edge-disjointness, the one-loop
    cap) belong to the catalog builders that need them.
    """
    _balanced(g, cls)
    return cls


# -- lift assembly --------------------------------------------------------------


def lift_circuits(g: GGraph, cls: LinearClass) -> tuple[int, ...]:
    """Circuit masks from the three clauses: balanced cycles, all-unbalanced
    thetas, and near-disjoint pairs of unbalanced cycles."""
    cycles, thetas, near = _cycle_structure(g)
    bal = _balanced(g, cls)
    free_thetas = cycles[thetas[~bal[thetas].any(axis=1)]]
    free_pairs = cycles[near[~bal[near].any(axis=1)]]
    out = np.concatenate([
        cycles[bal],
        np.bitwise_or.reduce(free_thetas, axis=1),
        np.bitwise_or.reduce(free_pairs, axis=1),
    ])
    # the clauses give distinct edge sets: one cycle, a theta, or two cycles
    # meeting in at most a vertex
    return tuple(np.sort(out).tolist())


def _matroid_from_circuits(n: int, r: int, circuits: tuple[int, ...]) -> Matroid:
    """Assemble bases by up-closing the circuit masks over all subsets."""
    if n > MAX_GROUND:
        raise TooLarge(f"ground size {n} above {MAX_GROUND}")
    dep = np.zeros(1 << n, dtype=bool)
    dep[list(circuits)] = True
    _sweep_up(dep, range(n))  # max on bools is OR: supersets of circuits
    indep = ~dep
    counts = _subset_sizes(n)
    top = int(counts[indep].max())
    if top != r:
        raise MatroidError(
            f"circuit clauses give rank {top} but the vertex count says {r}"
        )
    cand = subset_index(n, r)
    return Matroid(n, r, cand[indep[cand]])


def lift_matroid(g: GGraph, cls: LinearClass) -> Matroid:
    """Lift matroid of the biased graph (g, cls)."""
    circuits = lift_circuits(g, cls)
    balanced_graph = len(set(cls.members)) == len(_cycle_structure(g)[0])
    r = g.vertex_count - (1 if balanced_graph else 0)
    return _matroid_from_circuits(g.n, r, circuits)


def cycle_matroid(g: GGraph) -> Matroid:
    """Graphic matroid of the shape: every cycle is a circuit."""
    return _matroid_from_circuits(g.n, g.vertex_count - 1, cycles_of(g))


# -- spikes ---------------------------------------------------------------------


class SpikeSpec(NamedTuple):
    """Doubled-cycle lift description: rank t and sorted pick vectors."""

    t: int
    picks: tuple[int, ...]


def _check_picks(t: int, picks: Iterable) -> tuple[int, ...]:
    """Parsed picks, deduplicated and sorted, once they pass the checks."""
    # refused before any 1 << t: no printed spike is larger, and a huge t
    # would ask for gigabytes
    cap = max(filter(None, SK_EXMINORS_T.values()))
    if t > cap:
        raise TooLarge(f"spike half-size {t} above {cap}")
    picks = tuple(sorted(set(_parse_pick(t, p) for p in picks)))
    full = (1 << t) - 1
    for p in picks:
        if p < 0 or p > full:
            raise OutOfRange(f"pick {p:#x} outside {t} pairs")
    if len(picks) > 1 << max(t - 1, 0):
        raise InvalidLinearClass(f"{len(picks)} picks exceed the distance bound")
    for p1, p2 in combinations(picks, 2):
        if (p1 ^ p2).bit_count() < 2:
            raise InvalidLinearClass(
                f"picks {p1:#x} and {p2:#x} differ in fewer than two pairs"
            )
    return picks


def _parse_pick(t: int, value) -> int:
    if isinstance(value, str):
        if len(value) != t or set(value) - {"0", "1"}:
            raise OutOfRange(f"pick string {value!r} is not {t} binary digits")
        return int(value[::-1] or "0", 2)
    return value


def pick_string(t: int, pick: int) -> str:
    return format(pick, f"0{t}b")[::-1][:t]


def spike_spec(t: int, picks: Iterable) -> SpikeSpec:
    if t < 0:
        raise OutOfRange(f"negative spike rank {t}")
    if t < 3:
        raise TooSmall(f"spike rank {t} below 3")
    return SpikeSpec(t, _check_picks(t, picks))


def spike_from_spec(spec: SpikeSpec) -> Matroid:
    g = ggraph(CYCLE, spec.t, 0, 0)
    return lift_matroid(g, ham_class(g, spec.picks))


def spike(t: int, picks: Iterable) -> Matroid:
    """Lift over the fully doubled t-cycle with the given balanced picks."""
    return spike_from_spec(spike_spec(t, picks))


def dual_picks(picks: Iterable[int], t: int) -> tuple[int, ...]:
    """Complementary pick vectors: flip the choice at every pair."""
    full = (1 << t) - 1
    return tuple(sorted(int(p) ^ full for p in picks))


def dual_spec(spec: SpikeSpec) -> SpikeSpec:
    return SpikeSpec(spec.t, dual_picks(spec.picks, spec.t))


def duality_check(spec: SpikeSpec) -> bool:
    """Dual of a spike equals the spike on complementary picks, on the nose."""
    return spike_from_spec(spec).dual() == spike_from_spec(dual_spec(spec))


def spike_cyclic_flats(spec: SpikeSpec) -> list[RankedFlat]:
    """Closed-form cyclic flats: ground set, empty set, each balanced
    Hamiltonian at corank one, and every union of 2..t-2 parallel pairs."""
    t = spec.t
    g = ggraph(CYCLE, t, 0, 0)
    out = [RankedFlat(0, 0), RankedFlat((1 << 2 * t) - 1, t)]
    for pick in spec.picks:
        out.append(RankedFlat(_ham_mask(g, pick), t - 1))
    for q in range(2, t - 1):
        for combo in combinations(range(t), q):
            out.append(RankedFlat(sum(_pair_mask(i) for i in combo), q + 1))
    return sorted(out, key=lambda rf: (rf.rank, rf.flat))


def lift_from_contraction(M: Matroid, e: int, g: GGraph) -> tuple[GGraph, LinearClass]:
    """Recover M as a lift when contracting e leaves the cycle matroid of g.

    The new loop takes the last label; graph label j maps back to element
    j (or j+1 past e) of M, so ``relabel`` with that alignment reproduces M
    bit-exactly.
    """
    validate_ggraph(g)
    if not 0 <= e < M.n:
        raise OutOfRange(f"element {e} not within ground set")
    if g.n != M.n - 1 or M.contract(e) != cycle_matroid(g):
        raise PremiseViolated("contraction does not match the cycle matroid")
    circuits = set(M.circuits())
    low = (1 << e) - 1
    members = []
    for c in cycles_of(g):
        if (c & low) | (c & ~low) << 1 in circuits:
            members.append(c)
    g2 = GGraph(g.kind, g.t, g.s, g.p + 1)
    cls = LinearClass(tuple(sorted(members)))
    perm = [j if j < e else j + 1 for j in range(M.n - 1)] + [e]
    if relabel(lift_matroid(g2, cls), perm) != M:
        raise PremiseViolated("recovered lift does not reproduce the matroid")
    return g2, cls


# -- trun signatures ------------------------------------------------------------


class GlanceKey(NamedTuple):
    """Isomorphism key for large-rank doubled-cycle lifts: loop count, thin
    count, and the canonical trun cell vector."""

    p: int
    s: int
    sig: tuple[int, ...]


def _glance_parts(desc) -> tuple[int, int, int, tuple[int, ...]]:
    if isinstance(desc, SpikeSpec):
        return desc.t, 0, 0, desc.picks
    t, s, p, picks = desc
    if min(t, s, p) < 0:
        raise OutOfRange(f"negative lift size ({t}, {s}, {p})")
    return t, s, p, _check_picks(t, picks)


def glance_signature(desc) -> GlanceKey:
    """Key for a SpikeSpec or a (t, s, p, picks) lift description.

    The signature is the lexicographically least cell vector of the
    truncated intersection pattern over all orderings of the picks; two
    descriptions with rank >= 5 give isomorphic lifts exactly when their
    keys agree.
    """
    t, s, p, picks = _glance_parts(desc)
    r = t + s
    m = len(picks)
    if r < 5 or m < 2:
        raise HypothesisViolated(f"need rank >= 5 and >= 2 picks, got ({r}, {m})")
    # two distance-two picks force t >= 2, so the loops-only corner with
    # p >= 1 and t = 0 cannot arise here
    assert t >= 2
    # cell I counts the pairs where exactly the picks in I agree with the
    # last pick; thins agree everywhere
    full = (1 << t) - 1
    cells = _cells([full ^ q ^ picks[-1] for q in picks[:-1]], t)
    cells[-1] += s
    return GlanceKey(p, s, _lexmin_classes([cells], _trun_perm_maps(m))[0])


def glance_isomorphic(d1, d2) -> bool:
    return glance_signature(d1) == glance_signature(d2)


# -- composition machinery for trun orbits ---------------------------------------


@lru_cache(maxsize=None)
def _trun_perm_maps(m: int) -> "np.ndarray":
    """Cell-index gather tables realizing every reordering of m picks, as a
    read-only uint8 array with new_vec[J] = old_vec[tab[J]].

    A pair's sides across the picks form an m-bit pattern whose trun cell is
    {i < m-1 : side_i = side_{m-1}}.  A pattern and its complement share a
    cell and reordering commutes with complementing, so the Venn tables of
    _perm_cell_maps fold: cell J is the pattern low ^ J, and its source
    pattern is complemented when its top bit is set.
    """
    low = (1 << (m - 1)) - 1
    # column J is pattern low ^ J = low - J; a contiguous copy makes the
    # fold below about twice as fast as on the reversed view
    src = _perm_cell_maps(m)[:, low::-1].copy()
    flip = (src >> (m - 1) & 1) * ((1 << m) - 1)
    tabs = low & ~(src ^ flip)
    tabs.flags.writeable = False
    return tabs


def _trun_levels(t: int, top: int) -> list[list[tuple[int, ...]]]:
    """Canonical trun cell vectors with total t at 1..top picks.

    Entry m - 1 lists, sorted, the least trun cell vector of every orbit of
    m-pick families at pairwise distance at least 2, level 1 being the
    reference (t,) alone.  The new pick agrees with the reference on a_I of
    the v_I coordinates of cell I; dropping it leaves a valid family.
    """

    def keep(inside, vec, a):
        # the new pick is at distance inside . (v - a) + (1 - inside) . a
        # from each earlier pick, and sum(v - a) from the reference
        apart = vec @ inside + a @ (1 - 2 * inside) >= 2
        return apart.all(axis=1) & (a.sum(axis=1) + 2 <= vec.sum())

    return _grow([(t,)], top, _trun_perm_maps, lambda m, inside, vec: (0, vec), keep)


def _family_from_cells(cells: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Witness pick family realizing a trun cell vector (last pick all-zero)."""
    full = (1 << (m - 1)) - 1
    return (*_allocate(m - 1, ((full ^ c, v) for c, v in enumerate(cells))), 0)


# -- category catalogs -----------------------------------------------------------


def _cycle_shapes(n: int) -> Iterator[tuple[int, int, int]]:
    for t in range(n // 2 + 1):
        for s in range(n - 2 * t + 1):
            p = n - 2 * t - s
            if t + s >= 3:
                yield t, s, p


def _catalog_a(n: int, k: int) -> Iterator[Matroid]:
    # shapes run t-outer, so each t's orbits are built once per catalog
    for t, shapes in groupby(_cycle_shapes(n), key=lambda shape: shape[0]):
        levels = enumerate(_trun_levels(t, k), 1)
        families = [()] + [_family_from_cells(c, m) for m, lv in levels for c in lv]
        for _, s, p in shapes:
            g = GGraph(CYCLE, t, s, p)
            for picks in families:
                yield lift_matroid(g, ham_class(g, picks))


def _catalog_b(n: int, k: int) -> Iterator[Matroid]:
    for j in range(1, min(4, n) + 1):
        g = GGraph(TWO, 0, j, n - j)
        disjoint = (0b11, 0b1100)
        for b in range(min(k, j // 2) + 1):
            yield lift_matroid(g, LinearClass(disjoint[:b]))


def _catalog_c(n: int, k: int) -> Iterator[Matroid]:
    g = GGraph(SINGLE, 0, 0, n)
    for b in range(min(k, 1, n) + 1):
        yield lift_matroid(g, LinearClass((1,)[:b]))


def _catalog_d(n: int) -> Iterator[Matroid]:
    yield cycle_matroid(GGraph(SINGLE, 0, 0, n))
    for j in range(1, min(4, n) + 1):
        yield cycle_matroid(GGraph(TWO, 0, j, n - j))
    for t, s, p in _cycle_shapes(n):
        yield cycle_matroid(GGraph(CYCLE, t, s, p))


def _catalog_f(n: int) -> Iterator[Matroid]:
    for q in range(n // 2 + 1):
        for c in range(n - 2 * q + 1):
            m = uniform(0, n - 2 * q - c)
            m = direct_sum(m, uniform(c, c))
            for _ in range(q):
                m = direct_sum(m, uniform(1, 2))
            yield m


@lru_cache(maxsize=None)
def _category_catalog(n: int, k: int) -> dict[tuple, list[tuple[str, Matroid]]]:
    """One (tag, representative) pair per isomorphism class of members at
    size n, bucketed by ``Matroid._invariant``.

    The generators run in ABCDEF order and a member is stored only when no
    representative in its bucket is isomorphic to it, so each class keeps
    the tag of the first category that reaches it.
    """
    catalog: dict[tuple, list[tuple[str, Matroid]]] = {}
    graphic = list(_catalog_d(n))
    for tag, gen in (
        ("A", _catalog_a(n, k)),
        ("B", _catalog_b(n, k)),
        ("C", _catalog_c(n, k)),
        ("D", graphic),
        ("E", (m.dual() for m in graphic)),
        ("F", _catalog_f(n)),
    ):
        for m in gen:
            reps = catalog.setdefault(m._invariant(), [])
            if not any(m.is_isomorphic(rep) for _, rep in reps):
                reps.append((tag, m))
    return catalog


def categorize(m: Matroid, k: int) -> str | None:
    """First category tag whose generated members contain m, else None.

    Classification is generate-and-test against the catalog, so a result
    of None is a certificate that m lies outside the class for this bound.
    Catalogs are cached per (size, bound); README "Size caps" gives the
    build time and peak of the largest, 14 elements with bound 6.
    """
    if k < 0:
        raise OutOfRange(f"negative bound {k}")
    if m.n > CATALOG_N:
        raise TooLargeForExact(f"ground size {m.n} above {CATALOG_N}")
    if k > CATALOG_K:
        raise TooLarge(f"bound {k} above {CATALOG_K}")
    for tag, rep in _category_catalog(m.n, k).get(m._invariant(), ()):
        if m.is_isomorphic(rep):
            return tag
    return None


def camera_fixtures() -> tuple[Matroid, ...]:
    """Five small matroids outside the spike-minor class for any bound."""
    doubled_triangle = ggraph(CYCLE, 1, 2, 0)
    return (
        direct_sum(direct_sum(uniform(0, 1), uniform(1, 1)), uniform(1, 3)),
        direct_sum(direct_sum(uniform(0, 1), uniform(1, 1)), uniform(2, 3)),
        direct_sum(uniform(0, 1), uniform(2, 4)),
        direct_sum(uniform(1, 1), uniform(2, 4)),
        direct_sum(uniform(1, 2), cycle_matroid(doubled_triangle)),
    )


# -- censuses --------------------------------------------------------------------


def census_sk_exact(n: int, k: int) -> int:
    """Isomorphism classes of n-element members: the catalog's size."""
    if n < 0 or k < 0:
        raise OutOfRange("size and bound must be non-negative")
    if n > EXACT_N:
        raise TooLarge(f"exact census capped at {EXACT_N} elements, got {n}")
    if k > CATALOG_K:
        raise TooLarge(f"bound {k} above {CATALOG_K}")
    return sum(len(reps) for reps in _category_catalog(n, k).values())


class StratumRow(NamedTuple):
    n: int
    k: int
    category: str
    r: int
    m: int
    count: int
    mode: str


@lru_cache(maxsize=None)
def _orbit_counts(t: int, k: int) -> tuple[int, ...]:
    """Trun orbit counts at 0..k picks: the counts alone are cached."""
    return (1, *map(len, _trun_levels(t, k)))


def check_strata_size(n: int, k: int) -> None:
    """Raise unless strata rows support size n at bound k."""
    if n < 0 or k < 0:
        raise OutOfRange("size and bound must be non-negative")
    if k not in STRATA_N:
        raise TooLarge(f"bound {k} above {max(STRATA_N)}")
    cap = STRATA_N[k]
    if n > cap:
        raise TooLarge(f"strata rows capped at {cap} elements at k = {k}, got {n}")


def strata_rows(n: int, k: int) -> list[StratumRow]:
    """Stratified upper-bound census rows at any size.

    Category rows are parameter counts, each a closed-form sum.  A
    doubled-cycle lift with t pairs, s thins and n - 2t - s >= 0 loops has
    rank r = t + s, so rank r takes every t <= min(r, n - r): its count at
    m picks is a running sum over t of the canonical trun orbit counts.
    The graphic cycle shapes of rank r = t + s - 1 number
    min(r + 1, n - r - 1) + 1.  Overlaps between categories are
    deliberately not subtracted, so the total over-counts the exact census.
    """
    check_strata_size(n, k)
    # below[t][m]: orbits at m picks summed over totals 0..t
    below, run = [], [0] * (k + 1)
    for t in range(n // 2 + 1):
        run = [a + b for a, b in zip(run, _orbit_counts(t, k))]
        below.append(run)
    counts: Counter[tuple[str, int, int]] = Counter()
    for r in range(3, n + 1):
        for m, count in enumerate(below[min(r, n - r)]):
            if count:
                counts["A", r, m] = count
    if n >= 1:
        for j in range(1, min(4, n) + 1):
            for b in range(min(k, j // 2) + 1):
                balanced = n == j and (j == 1 or (j == 2 and b == 1))
                counts["B", 1 if balanced else 2, 0] += 1
        for b in range(min(k, 1) + 1):
            counts["C", 0 if n == 1 and b == 1 else 1, 0] += 1
        counts["D", 0, 0] = counts["E", n, 0] = 1
        counts["D", 1, 0] = counts["E", n - 1, 0] = min(4, n)
        for r in range(2, n):
            counts["D", r, 0] = counts["E", n - r, 0] = min(r + 1, n - r - 1) + 1
    for r in range(n + 1):
        counts["F", r, 0] = min(r, n - r) + 1
    return [
        StratumRow(n, k, tag, r, m, count, "upper" if tag in "AB" else "exact")
        for (tag, r, m), count in sorted(counts.items())
    ]


def census_sk_strata(n: int, k: int) -> list[StratumRow]:
    """Stratified upper-bound census at an even size (see strata_rows)."""
    # a negative size or bound is reported by strata_rows first
    if n % 2 and min(n, k) >= 0:
        raise OddSize(f"strata census is defined for even sizes, got {n}")
    return strata_rows(n, k)


def strata_total(rows: list[StratumRow]) -> int:
    return sum(row.count for row in rows)


def strata_csv(rows: list[StratumRow]) -> str:
    lines = ["n,k,category,r,m,count,mode"]
    for row in rows:
        lines.append(
            f"{row.n},{row.k},{row.category},{row.r},{row.m},{row.count},{row.mode}"
        )
    return "\n".join(lines) + "\n"


# -- excluded-minor generation -----------------------------------------------------


def bottom_index_sets(k: int) -> tuple[int, ...]:
    """Index-set masks with 1..k-2 of the k bits set, ascending."""
    if k < 0:
        raise OutOfRange(f"negative bound {k}")
    if k < 2:
        raise TooSmall(f"bound {k} below 2")
    return tuple(m for m in range(1, 1 << k) if 1 <= m.bit_count() <= k - 2)


def _bottom_equation(t: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Index sets, unit weights and total t - 2(k+1) of the bottom equation."""
    sets = bottom_index_sets(k)
    if t < 0:
        raise OutOfRange(f"negative half-size {t}")
    if t < 2 * (k + 1):
        raise TooSmall(f"half-size {t} below 2(k+1) = {2 * (k + 1)}")
    return sets, (1,) * len(sets), t - 2 * (k + 1)


def bottom_solutions(t: int, k: int) -> Iterator[CompositionSolution]:
    """Non-negative assignments summing to t - 2(k+1), lexicographically."""
    yield from _solutions(_bottom_equation(t, k))


def bottom_solution_counts(half_sizes: range, k: int) -> list[int]:
    """Solution counts at consecutive half-sizes, from one DP row."""
    return _solution_counts(_bottom_equation, half_sizes, k)


def bottom_solution_count(t: int, k: int) -> int:
    return bottom_solution_counts(range(t, t + 1), k)[0]


def bottom_construct(phi: CompositionSolution, t: int, k: int) -> SpikeSpec:
    """Spike with k+1 balanced picks realizing a composition solution.

    Two pair positions sit in none of the index sets, two sit in all but
    one for each index, and the rest follow the solution; the final pick
    takes the unmarked side everywhere.
    """
    _check_solution(phi, _bottom_equation(t, k))
    full = (1 << k) - 1
    blocks = [(0, 2)] + [(full ^ (1 << i), 2) for i in range(k)]
    marks = _allocate(k, blocks + list(zip(phi.index_sets, phi.values)))
    tfull = (1 << t) - 1
    return spike_spec(t, [mark ^ tfull for mark in marks] + [0])


def sk_verify_mode(t: int, mode: str = "auto") -> str:
    """Verification mode for half-size t: auto means full up to the catalog cap."""
    if mode not in ("auto", "full", "structural"):
        raise OutOfRange(f"unknown mode {mode!r}")
    if mode != "auto":
        return mode
    return "full" if 2 * t <= CATALOG_N else "structural"


def verify_sk_excluded_minor(spec: SpikeSpec, k: int, mode: str = "auto") -> bool:
    """Excluded-minor check for a spike against the bound-k class.

    Full mode runs the kernel excluded-minor test with categorize as the
    membership oracle.  Structural mode checks the pick-incidence facts
    that the full test reduces to: more than k picks, pairwise distance
    at least two, and every element lying in at least max(1, m-k) and at
    most k picks, so both single-element minors drop to at most k.
    """
    if k < 0:
        raise OutOfRange(f"negative bound {k}")
    n = 2 * spec.t
    if sk_verify_mode(spec.t, mode) == "full":
        if n > CATALOG_N:
            raise TooLargeForFull(f"ground size {n} above {CATALOG_N}")
        m = spike_from_spec(spec)
        return is_excluded_minor(m, lambda q: categorize(q, k) is not None)
    m = len(spec.picks)
    if m <= k:
        return False
    for p1, p2 in combinations(spec.picks, 2):
        if (p1 ^ p2).bit_count() < 2:
            return False
    lo = max(1, m - k)
    for j in range(spec.t):
        deg = sum(p >> j & 1 for p in spec.picks)
        if not lo <= deg <= k or not lo <= m - deg <= k:
            return False
    return True


def sk_excluded_minor_classes(t: int, k: int) -> list[SpikeSpec]:
    """Constructed excluded minors at half-size t, one per signature class."""
    # the k + 1 picks of each class must fit the 8-index permutation tables
    if k > max(SK_EXMINORS_T):
        raise TooLarge(f"bound {k} above {max(SK_EXMINORS_T)}")
    cap = SK_EXMINORS_T.get(k)
    if cap is not None and t > cap:
        raise TooLarge(f"excluded minors capped at t = {cap} at k = {k}, got {t}")
    out = []
    seen = set()
    for phi in bottom_solutions(t, k):
        spec = bottom_construct(phi, t, k)
        key = glance_signature(spec)
        if key not in seen:
            seen.add(key)
            out.append(spec)
    return out


# -- serialization ----------------------------------------------------------------


def spikespec_to_json(spec: SpikeSpec) -> str:
    strings = sorted(pick_string(spec.t, p) for p in spec.picks)
    doc = {"t": spec.t, "picks": strings}
    return json.dumps(doc) + "\n"


def spikespec_from_json(text: str) -> SpikeSpec:
    doc = read_document(text, "spike", {"t": INT, "picks": PICKS})
    return spike_spec(doc["t"], doc["picks"])
