"""Circuit-hyperplane family calculus for sparse paving matroids.

A sparse paving matroid on n elements with rank r is determined by the
family of its circuit-hyperplanes: r-subsets that pairwise differ in
more than one element. This module works on those families directly:
validation, the matroid bridge, single-element minors, Venn-cell
signatures with canonicalization (the signature decides isomorphism for
families with the same circuit-hyperplane count), an exact census of
the class with at most k circuit-hyperplanes, and the generator plus
verifier for the excluded minors obtained from the weighted composition
equation over index subsets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb
from typing import Iterator

import numpy as np

from .bitset import bits, mask_from, subset_masks
from .kernel import (
    MAX_GROUND,
    Matroid,
    MatroidError,
    OutOfRange,
    RankOutOfRange,
    SizeOverflow,
    is_excluded_minor,
)
from .parallel import run_sharded


class DifferenceOne(MatroidError):
    """Two members of a family differ in at most one element."""

    def __init__(self, i: int, j: int):
        super().__init__(f"members {i} and {j} differ in at most one element")
        self.i = i
        self.j = j


class WrongCardinality(MatroidError):
    pass


class NoBasesLeft(MatroidError):
    pass


class IsColoop(MatroidError):
    pass


class IsLoop(MatroidError):
    pass


class GroundSizeMismatch(MatroidError):
    pass


class BoundTooLarge(MatroidError):
    pass


class TooSmall(MatroidError):
    pass


class NotASolution(MatroidError):
    pass


@dataclass(frozen=True)
class CHFamily:
    """Ordered circuit-hyperplane family of a sparse paving matroid."""

    n: int
    r: int
    chs: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.chs)


@dataclass(frozen=True)
class VennSignature:
    """Cell sizes of the Venn diagram of an ordered family.

    cells[I] is the number of elements lying in exactly the members
    indexed by the bits of I; entries are indexed by subset mask
    ascending and sum to the ground size.
    """

    k: int
    cells: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(self.cells)


@dataclass(frozen=True)
class CompositionSolution:
    """Non-negative assignment to composition variables indexed by sets."""

    index_sets: tuple[int, ...]
    values: tuple[int, ...]

    def value_of(self, index_set: int) -> int:
        return self.values[self.index_sets.index(index_set)]


@dataclass(frozen=True)
class CensusRow:
    n: int
    k: int
    m: int
    count: int


# -- family validation and the matroid bridge --------------------------------


def validate_chfamily(f: CHFamily) -> CHFamily:
    """Check all family invariants, returning the family unchanged."""
    if f.k >= 1 and not 1 <= f.r <= f.n - 1:
        raise RankOutOfRange(f"rank {f.r} out of range for n={f.n} with members")
    if f.k == 0 and not 0 <= f.r <= f.n:
        raise RankOutOfRange(f"rank {f.r} out of range for n={f.n}")
    full = (1 << f.n) - 1
    for c in f.chs:
        if c < 0 or c & ~full:
            raise OutOfRange(f"member {c:#x} not within ground set")
        if c.bit_count() != f.r:
            raise WrongCardinality(f"member {c:#x} is not an {f.r}-subset")
    for i in range(f.k):
        for j in range(i + 1, f.k):
            if (f.chs[i] & ~f.chs[j]).bit_count() <= 1:
                raise DifferenceOne(i, j)
    return f


def chfamily(n: int, r: int, chs) -> CHFamily:
    return validate_chfamily(CHFamily(n, r, tuple(chs)))


def ch_to_matroid(f: CHFamily) -> Matroid:
    """Matroid whose bases are the r-subsets outside the family.

    Family validity already guarantees the exchange axiom (non-bases
    pairwise differing in more than one element is exactly the sparse
    paving condition), so construction skips the exchange gate; tests
    cross-check against make_matroid at small sizes.
    """
    validate_chfamily(f)
    if f.n > MAX_GROUND:
        raise SizeOverflow(f"ground size {f.n} above {MAX_GROUND}")
    dropped = set(f.chs)
    bases = tuple(b for b in subset_masks(f.n, f.r) if b not in dropped)
    if not bases:
        raise NoBasesLeft("family exhausts all r-subsets")
    return Matroid(f.n, f.r, bases)


def _drop_element(mask: int, e: int) -> int:
    low = (1 << e) - 1
    return (mask & low) | (mask >> 1) & ~low


def ch_delete(f: CHFamily, e: int) -> CHFamily:
    """Family of the single-element deletion: keep members avoiding e."""
    if not 0 <= e < f.n:
        raise OutOfRange(f"element {e} not within ground set")
    keep = [c for c in f.chs if not c >> e & 1]
    if len(keep) == comb(f.n - 1, f.r):
        raise IsColoop(f"element {e} lies in every basis")
    return CHFamily(f.n - 1, f.r, tuple(_drop_element(c, e) for c in keep))


def ch_contract(f: CHFamily, e: int) -> CHFamily:
    """Family of the single-element contraction: shrink members through e."""
    if not 0 <= e < f.n:
        raise OutOfRange(f"element {e} not within ground set")
    hit = [c for c in f.chs if c >> e & 1]
    if f.r == 0 or len(hit) == comb(f.n - 1, f.r - 1):
        raise IsLoop(f"element {e} lies in no basis")
    return CHFamily(f.n - 1, f.r - 1, tuple(_drop_element(c, e) for c in hit))


# -- Venn-cell signatures -----------------------------------------------------


def venn_signature(f: CHFamily) -> VennSignature:
    cells = [0] * (1 << f.k)
    for e in range(f.n):
        pattern = 0
        for i, c in enumerate(f.chs):
            if c >> e & 1:
                pattern |= 1 << i
        cells[pattern] += 1
    return VennSignature(f.k, tuple(cells))


@lru_cache(maxsize=None)
def _perm_cell_maps(k: int) -> tuple[tuple[int, ...], ...]:
    # per index permutation, the source cell for each target cell
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


def _canonical_cells(cells: tuple[int, ...], k: int) -> tuple[int, ...]:
    return min(tuple(cells[s] for s in tab) for tab in _perm_cell_maps(k))


def canonical_signature(f: CHFamily) -> VennSignature:
    """Least cell vector over all orderings of the family."""
    return VennSignature(f.k, _canonical_cells(venn_signature(f).cells, f.k))


def ch_isomorphic(f1: CHFamily, f2: CHFamily) -> bool:
    if f1.n != f2.n:
        raise GroundSizeMismatch(f"{f1.n} != {f2.n}")
    if f1.k != f2.k:
        return False
    if f1.k == 0:
        return f1.r == f2.r
    return canonical_signature(f1) == canonical_signature(f2)


def signature_realizable(psi: VennSignature) -> tuple[int, int] | None:
    """Ground size and rank when some family has this signature.

    Realizable means: per-index cell sums agree on a common rank within
    (0, n), and every ordered index pair has one-sided cell sum at least
    two. Sufficiency is by explicit allocation (realize_signature).
    """
    k = psi.k
    n = psi.n
    sums = [0] * k
    for mask, v in enumerate(psi.cells):
        if v < 0:
            return None
        for i in bits(mask):
            sums[i] += v
    r = sums[0] if k else 0
    if any(s != r for s in sums) or not 1 <= r <= n - 1:
        return None
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            one_sided = sum(
                v
                for mask, v in enumerate(psi.cells)
                if mask >> i & 1 and not mask >> j & 1
            )
            if one_sided < 2:
                return None
    return n, r


def realize_signature(psi: VennSignature) -> CHFamily | None:
    """Witness family: elements allocated to cells by ascending mask."""
    got = signature_realizable(psi)
    if got is None:
        return None
    n, r = got
    members = [0] * psi.k
    e = 0
    for mask, v in enumerate(psi.cells):
        for _ in range(v):
            for i in bits(mask):
                members[i] |= 1 << e
            e += 1
    return chfamily(n, r, members)


# -- exact census -------------------------------------------------------------


def count_signatures(k: int, n: int) -> int:
    """Number of k-index cell vectors with total n, by stars-and-bars DP."""
    cells = 1 << k
    row = [1] * (n + 1)  # one cell
    for _ in range(cells - 1):
        acc = 0
        nxt = []
        for total in range(n + 1):
            acc += row[total]
            nxt.append(acc)
        row = nxt
    return row[n]


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


def _pairs_ok(cells: tuple[int, ...], m: int) -> bool:
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            side = sum(
                v for mask, v in enumerate(cells) if mask >> i & 1 and not mask >> j & 1
            )
            if side < 2:
                return False
    return True


@lru_cache(maxsize=None)
def _pair_selectors(m: int) -> "np.ndarray":
    # row per ordered index pair, column per cell mask
    rows = []
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            rows.append(
                [1 if mask >> i & 1 and not mask >> j & 1 else 0 for mask in range(1 << m)]
            )
    return np.array(rows, dtype=np.int32).T


def _canonical_classes(vectors: list[tuple[int, ...]], m: int) -> list[tuple[int, ...]]:
    """Distinct canonical forms of pairwise-valid vectors, sorted.

    Batched: the pair condition is one matrix product, and the lexmin
    over index permutations runs as gather plus first-difference row
    compares, so cost stays flat per vector even at m = 6.
    """
    if not vectors:
        return []
    arr = np.array(vectors, dtype=np.uint8)
    if m >= 2:
        sides = arr.astype(np.int32) @ _pair_selectors(m)
        arr = arr[(sides >= 2).all(axis=1)]
        if not len(arr):
            return []
    best = arr.copy()
    rows = np.arange(len(arr))
    for tab in _perm_cell_maps(m)[1:]:
        cand = arr[:, tab]
        neq = cand != best
        first = neq.argmax(axis=1)
        better = neq.any(axis=1) & (cand[rows, first] < best[rows, first])
        if better.any():
            best[better] = cand[better]
    uniq = np.unique(best, axis=0)
    return [tuple(int(v) for v in row) for row in uniq]


def _stratum_canonicals(n: int, m: int, sizes: frozenset[int] | None = None):
    """Canonical realizable cell vectors for exactly-m families, by rank."""
    out: dict[int, list[tuple[int, ...]]] = {}
    lo_r = 2 if m >= 2 else 1
    hi_r = n - 2 if m >= 2 else n - 1
    for r in range(lo_r, hi_r + 1):
        found = _canonical_classes(_signature_vectors(n, m, r, sizes), m)
        if found:
            out[r] = found
    return out


def census_pk(n: int, k: int) -> list[CensusRow]:
    """Isomorphism-class counts of sparse paving matroids with at most k
    circuit-hyperplanes, one row per exact count m."""
    if k > 6:
        raise BoundTooLarge("census strata cap at k = 6")
    rows = [CensusRow(n, k, 0, n + 1)]
    for m in range(1, k + 1):
        total = sum(len(v) for v in _stratum_canonicals(n, m).values())
        rows.append(CensusRow(n, k, m, total))
    return rows


def census_csv(rows: list[CensusRow]) -> str:
    lines = ["n,k,m,count"]
    lines.extend(f"{row.n},{row.k},{row.m},{row.count}" for row in rows)
    return "\n".join(lines) + "\n"


# -- composition equation and the excluded-minor construction ----------------


def collar_index_sets(k: int) -> tuple[int, ...]:
    """Variable index sets: subsets of {1..k+1} with 2 <= size <= k."""
    return tuple(
        mask for mask in range(1, 1 << (k + 1)) if 2 <= mask.bit_count() <= k
    )


def collar_solutions(n: int, k: int) -> Iterator[CompositionSolution]:
    """All non-negative assignments with weighted sum n - 2(k+1).

    The variable for index set I carries weight k + 2 - |I|; assignments
    stream in lexicographic order over the fixed variable order.
    """
    if n < 2 * (k + 1):
        raise TooSmall(f"need n >= {2 * (k + 1)}")
    index_sets = collar_index_sets(k)
    weights = [k + 2 - mask.bit_count() for mask in index_sets]
    target = n - 2 * (k + 1)
    values = [0] * len(index_sets)

    def rec(pos: int, rest: int) -> Iterator[CompositionSolution]:
        if pos == len(index_sets):
            if rest == 0:
                yield CompositionSolution(index_sets, tuple(values))
            return
        if pos == len(index_sets) - 1:
            v, rem = divmod(rest, weights[pos])
            if rem == 0:
                values[pos] = v
                yield CompositionSolution(index_sets, tuple(values))
                values[pos] = 0
            return
        for v in range(rest // weights[pos] + 1):
            values[pos] = v
            yield from rec(pos + 1, rest - v * weights[pos])
            values[pos] = 0

    if not index_sets:
        if target == 0:
            yield CompositionSolution(index_sets, ())
        return
    yield from rec(0, target)


def collar_solution_count(n: int, k: int) -> int:
    """Solution count by coin-style DP over the variable weights."""
    if n < 2 * (k + 1):
        raise TooSmall(f"need n >= {2 * (k + 1)}")
    target = n - 2 * (k + 1)
    row = [0] * (target + 1)
    row[0] = 1
    for mask in collar_index_sets(k):
        w = k + 2 - mask.bit_count()
        for total in range(w, target + 1):
            row[total] += row[total - w]
    return row[target]


def collar_construct(phi: CompositionSolution, n: int, k: int) -> CHFamily:
    """Family with k+1 members built by the element-allocation scheme.

    Two seed elements go to each singleton cell; each unit on variable I
    then adds one element to cell I and one to every singleton cell
    outside I, keeping the members equicardinal throughout.
    """
    index_sets = collar_index_sets(k)
    if phi.index_sets != index_sets or any(v < 0 for v in phi.values):
        raise NotASolution("assignment does not fit the variable layout")
    weighted = sum(
        (k + 2 - mask.bit_count()) * v for mask, v in zip(index_sets, phi.values)
    )
    if weighted != n - 2 * (k + 1):
        raise NotASolution(f"weighted sum {weighted} != {n - 2 * (k + 1)}")
    members = [0] * (k + 1)
    e = 0

    def allocate(pattern: int, count: int) -> None:
        nonlocal e
        for _ in range(count):
            for i in bits(pattern):
                members[i] |= 1 << e
            e += 1

    for i in range(k + 1):
        allocate(1 << i, 2)
    for mask, v in zip(index_sets, phi.values):
        allocate(mask, v)
        for i in range(k + 1):
            if not mask >> i & 1:
                allocate(1 << i, v)
    r = members[0].bit_count()
    return chfamily(n, r, members)


def pk_member(m: Matroid, k: int) -> bool:
    """Membership test: sparse paving with at most k circuit-hyperplanes."""
    return m.is_sparse_paving() and len(m.circuit_hyperplanes()) <= k


def exminor_shards(n: int, k: int) -> list[tuple[int, int, int, int]]:
    """Independent (n, k, m, r) work units for the excluded-minor sweep."""
    if not 1 <= k <= 5:
        raise BoundTooLarge("excluded-minor sweep needs 1 <= k <= 5")
    if n > 16:
        raise BoundTooLarge("excluded-minor sweep caps at n = 16")
    return [
        (n, k, m, r)
        for m in range(k + 1, 2 * k + 1)
        for r in range(2, n - 1)
    ]


def exminor_shard(shard: tuple[int, int, int, int]) -> list[tuple[int, ...]]:
    """Verified canonical signatures for one (n, k, m, r) work unit.

    Candidates are realizable cell vectors whose per-element degrees stay
    within [m-k, k]: deleting an element must drop the count to at most k
    (degree at least m-k) and contracting must too (degree at most k).
    Each survivor is still confirmed against the kernel definition of an
    excluded minor before being reported.
    """
    n, k, m, r = shard
    sizes = frozenset(range(max(1, m - k), k + 1))
    found = _canonical_classes(_signature_vectors(n, m, r, sizes), m)
    verified = []
    for cells in found:
        witness = realize_signature(VennSignature(m, cells))
        if witness is None:
            continue
        matroid = ch_to_matroid(witness)
        if is_excluded_minor(matroid, lambda q: pk_member(q, k)):
            verified.append(cells)
    return verified


def sp_excluded_minors(n: int, k: int) -> list[CHFamily]:
    """One witness family per isomorphism class of sparse paving excluded
    minors for the at-most-k class, in canonical order."""
    shards = exminor_shards(n, k)
    out = []
    for shard, cells_list in zip(shards, run_sharded(exminor_shard, shards)):
        m = shard[2]
        for cells in cells_list:
            witness = realize_signature(VennSignature(m, cells))
            assert witness is not None
            out.append(witness)
    return out


# -- serialization ------------------------------------------------------------


def chfamily_to_json(f: CHFamily) -> str:
    doc = {
        "n": f.n,
        "rank": f.r,
        "chs": [[e for e in bits(c)] for c in f.chs],
    }
    return json.dumps(doc, separators=(", ", ": ")) + "\n"


def chfamily_from_json(text: str) -> CHFamily:
    doc = json.loads(text)
    return chfamily(
        int(doc["n"]), int(doc["rank"]), (mask_from(c) for c in doc["chs"])
    )
