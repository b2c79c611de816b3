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

Census strata and excluded-minor candidates come from one chain of
canonical cell vectors grown one member at a time, so no labelled vector
is ever listed; every candidate is still confirmed by the kernel's
definition of an excluded minor.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import comb
from typing import Iterator, NamedTuple

from ._caps import SP_CENSUS_N, SP_EXMINORS_N, SWEEP_N
from ._lazy import np
from .bitset import bits, subset_index
from .kernel import (
    INT,
    MAX_GROUND,
    ROWS,
    Matroid,
    MatroidError,
    OutOfRange,
    RankOutOfRange,
    SizeOverflow,
    element_masks,
    is_excluded_minor,
    read_document,
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


class CHFamily(NamedTuple):
    """Ordered circuit-hyperplane family of a sparse paving matroid."""

    n: int
    r: int
    chs: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.chs)


class VennSignature(NamedTuple):
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


class CompositionSolution(NamedTuple):
    """Non-negative assignment to composition variables indexed by sets."""

    index_sets: tuple[int, ...]
    values: tuple[int, ...]


class CensusRow(NamedTuple):
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
    cand = subset_index(f.n, f.r)
    # every member is an r-subset, so searchsorted finds its exact slot
    keep = np.ones(len(cand), dtype=bool)
    keep[np.searchsorted(cand, f.chs)] = False
    if not keep.any():
        raise NoBasesLeft("family exhausts all r-subsets")
    return Matroid(f.n, f.r, cand[keep])


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
    return VennSignature(f.k, tuple(_cells(f.chs, f.n)))


@lru_cache(maxsize=None)
def _perm_cell_maps(k: int) -> "np.ndarray":
    """Read-only uint8 (k!, 2^k) gather tables, one row per permutation of
    the k indices: bit i of a target cell moves to bit perm[i] of its source."""
    if k > 8:
        raise BoundTooLarge(f"permutation tables cap at 8 indices, got {k}")
    # the permutations of 0..j-1 in lexicographic order: each first value
    # leads those of 0..j-2, shifted past it
    perms = np.zeros((1, 0), dtype=np.uint8)
    for j in range(1, k + 1):
        first = np.repeat(np.arange(j, dtype=np.uint8), len(perms))
        rest = np.tile(perms, (j, 1))
        rest += rest >= first[:, None]
        perms = np.column_stack((first, rest))
    # a cell's source is that of the cell without its highest bit i, plus
    # bit perm[i]: each bit doubles the columns built so far
    moved = np.uint8(1) << perms
    tabs = np.zeros((len(perms), 1 << k), dtype=np.uint8)
    for i in range(k):
        h = 1 << i
        np.bitwise_or(tabs[:, :h], moved[:, i, None], out=tabs[:, h : 2 * h])
    tabs.flags.writeable = False
    return tabs


# bytes per block of intp table indices and of keys: faster than 256 KB, and
# as fast as 1 MB, which raised a small run's peak RSS by 0.5 MB
_LEXMIN_BLOCK = 1 << 19


def _lexmin_classes(rows, tabs) -> list[tuple[int, ...]]:
    """Distinct least gathered rows over the tables, sorted.

    Cells are big-endian unsigned of the largest cell's width, so a gathered
    row read as one byte string orders as its cells: numpy compares those
    byte by byte.  Blocks split the tables so their intp indices, and the
    rows so their keys, fit _LEXMIN_BLOCK; table blocks keep a running min.
    """
    rows = np.asarray(rows)
    rows = rows.astype(np.min_scalar_type(int(rows.max(initial=0))).newbyteorder(">"))
    key = np.dtype(f"S{rows.shape[1] * rows.itemsize}")
    step = max(1, _LEXMIN_BLOCK // (8 * rows.shape[1]))  # 8-byte intp indices
    chunk = max(1, _LEXMIN_BLOCK // (min(step, len(tabs)) * key.itemsize))
    best = None
    for t in range(0, len(tabs), step):
        tab = tabs[t : t + step].astype(np.intp)
        low = np.empty(len(rows), dtype=key)
        for r in range(0, len(rows), chunk):
            keys = rows[r : r + chunk].take(tab, axis=1).view(key)[..., 0]
            low[r : r + chunk] = keys[np.arange(len(keys)), keys.argmin(axis=1)]
        best = low if best is None else np.where(low < best, low, best)
    best.sort()  # np.unique would import numpy.ma, 16-19 ms of CLI start-up
    best = np.concatenate((best[:1], best[1:][best[1:] != best[:-1]]))
    return list(map(tuple, best.view(rows.dtype).reshape(-1, rows.shape[1]).tolist()))


def canonical_signature(f: CHFamily) -> VennSignature:
    """Least cell vector over all orderings of the family."""
    cells = _lexmin_classes([venn_signature(f).cells], _perm_cell_maps(f.k))
    return VennSignature(f.k, cells[0])


def ch_isomorphic(f1: CHFamily, f2: CHFamily) -> bool:
    if f1.n != f2.n:
        raise GroundSizeMismatch(f"{f1.n} != {f2.n}")
    if f1.k != f2.k:
        return False
    if f1.k == 0:
        return f1.r == f2.r
    return canonical_signature(f1) == canonical_signature(f2)


def signature_realizable(psi: VennSignature) -> tuple[int, int] | None:
    """Ground size and rank when some family has this signature."""
    f = realize_signature(psi)
    return None if f is None else (f.n, f.r)


def _allocate(width: int, blocks) -> list[int]:
    """Member masks from (pattern, count) blocks of consecutive elements.

    Elements are numbered from 0 in block order; each element of a block
    lies in exactly the members whose indices are the bits of its pattern.
    """
    members = [0] * width
    e = 0
    for pattern, count in blocks:
        run = ((1 << count) - 1) << e
        for i in bits(pattern):
            members[i] |= run
        e += count
    return members


def _cells(masks, width: int) -> list[int]:
    """Cell sizes of member masks over elements 0..width-1, the inverse of
    _allocate: entry I counts the elements in exactly the members whose
    indices are the bits of I.  Each member splits every nonempty cell in
    two, on Python ints, since grounds reach 256 elements."""
    parts = {0: (1 << width) - 1}
    for i, c in enumerate(masks):
        split = {}
        for pattern, part in parts.items():
            if part & c:
                split[pattern | 1 << i] = part & c
            if part & ~c:
                split[pattern] = part & ~c
        parts = split
    cells = [0] * (1 << len(masks))
    for pattern, part in parts.items():
        cells[pattern] = part.bit_count()
    return cells


def realize_signature(psi: VennSignature) -> CHFamily | None:
    """Witness family allocated to cells by ascending mask, else None."""
    if psi.k == 0 or min(psi.cells) < 0:
        return None
    members = _allocate(psi.k, enumerate(psi.cells))
    # every family with signature psi is an element relabelling of this
    # one, and validity is invariant under relabelling
    try:
        return chfamily(psi.n, members[0].bit_count(), members)
    except (RankOutOfRange, WrongCardinality, DifferenceOne):
        return None


# -- exact census -------------------------------------------------------------


def count_signatures(k: int, n: int) -> int:
    """Number of k-index cell vectors with total n: unit-weight compositions."""
    return _composition_counts((1,) * (1 << k), n)[n]


def _grow(first, top, tabs, bounds, keep) -> list[list[tuple[int, ...]]]:
    """Canonical cell vectors of levels 1..top, grown one index at a time
    (isomorph-free generation, McKay, J. Algorithms 26, 1998).

    Level 1 is first; tabs(m) gathers every reordering of a level-m vector's
    indices.  Dropping the newest index of a valid vector leaves a valid one,
    so each class at level m extends some representative v at m - 1: the new
    index holds a_I of the v_I elements of cell I, giving (v - a) ++ a.  On
    v's nonzero cells a spans bounds(m, inside, v), with inside[I, i] = 1 when
    cell I lies in index i, and keep(inside, v, a) picks the valid children.
    """
    # cells never grow, so the first level's largest cell sets the dtype
    dtype = np.min_scalar_type(max(map(max, first), default=0))
    levels = [first]
    for m in range(2, top + 1):
        tab = tabs(m)
        half = tab.shape[1] // 2
        inside = np.arange(half)[:, None] >> np.arange(half.bit_length() - 1) & 1
        kids = [np.zeros((0, 2 * half), dtype=dtype)]
        for v in levels[-1]:
            vec = np.array(v, dtype=dtype)
            # the grid spans the nonzero cells only, as np.indices over all 64
            # cells of a level-6 parent would pass numpy's axis cap; spans are
            # int64 (a cell of 255 spans 256), and an all-zero parent spans one a
            cells = np.flatnonzero(vec)
            low, high = bounds(m, inside[cells], vec[cells])
            span = np.asarray(high, dtype=np.int64) - low + 1
            grid = np.indices(span, dtype=dtype).reshape(len(cells), span.prod()).T + low
            grid = grid[keep(inside[cells], vec[cells], grid)]
            a = np.zeros((len(grid), half), dtype=dtype)
            a[:, cells] = grid
            kids.append(np.hstack([vec - a, a]))
        levels.append(_lexmin_classes(np.concatenate(kids), tab))
    return levels[:top]


def _family_levels(n: int, r: int, k: int, top: int) -> list[list[tuple[int, ...]]]:
    """Canonical cell vectors of rank-r families with 1..top members.

    Entry m - 1 lists, sorted, the least cell vector of every isomorphism
    class of m-member families whose element degrees lie in the band
    [max(0, m - k), k]: levels 1..k are the census strata, and levels
    k+1..2k the excluded-minor candidates.  Dropping a member lowers each
    degree by at most 1 and keeps every pair apart, so _grow reaches every
    class.
    """

    def bounds(m, inside, vec):
        # cells below the band move whole into the new member, and cells at
        # its top stay out
        size = inside.sum(axis=1)
        return np.where(size < m - k, vec, 0), np.where(size < k, vec, 0)

    def keep(inside, vec, a):
        # members have r elements each, so meeting every old member in at
        # most r - 2 elements is a difference of 2 in both directions
        ok = a.sum(axis=1) == r
        ok[ok] = (a[ok] @ inside <= r - 2).all(axis=1)
        return ok

    first = [(n - r, r)] if 1 <= r <= n - 1 else []
    return _grow(first, top, _perm_cell_maps, bounds, keep)


def census_pk(n: int, k: int) -> list[CensusRow]:
    """Isomorphism-class counts of sparse paving matroids with at most k
    circuit-hyperplanes, one row per exact count m."""
    if n < 0 or k < 0:
        raise OutOfRange("size and bound must be non-negative")
    if k not in SP_CENSUS_N:
        raise BoundTooLarge(f"census strata cap at k = {max(SP_CENSUS_N)}")
    cap = SP_CENSUS_N[k]
    if n > cap:
        raise BoundTooLarge(f"census caps at n = {cap} at k = {k}")
    counts = [0] * k
    for r in range(1, n):
        for i, level in enumerate(_family_levels(n, r, k, k)):
            counts[i] += len(level)
    return [CensusRow(n, k, 0, n + 1)] + [
        CensusRow(n, k, m, c) for m, c in enumerate(counts, 1)
    ]


def census_csv(rows: list[CensusRow]) -> str:
    lines = ["n,k,m,count"]
    lines.extend(f"{row.n},{row.k},{row.m},{row.count}" for row in rows)
    return "\n".join(lines) + "\n"


# -- composition equation and the excluded-minor construction ----------------


def _compositions(weights: tuple[int, ...], target: int) -> Iterator[tuple[int, ...]]:
    """Non-negative value tuples with sum(w * v) == target, lexicographically."""
    last = len(weights) - 1
    values = [0] * len(weights)

    def rec(pos: int, rest: int) -> Iterator[tuple[int, ...]]:
        if pos == last:
            v, rem = divmod(rest, weights[pos])
            if rem == 0:
                values[pos] = v
                yield tuple(values)
            return
        for v in range(rest // weights[pos] + 1):
            values[pos] = v
            yield from rec(pos + 1, rest - v * weights[pos])

    if weights:
        yield from rec(0, target)
    elif target == 0:
        yield ()


def _composition_counts(weights: tuple[int, ...], top: int) -> list[int]:
    """Entry t is the number of _compositions(weights, t), for t = 0..top:
    the row of one coin-style DP."""
    if top < 0:
        raise OutOfRange(f"negative composition total {top}")
    row = [1] + [0] * top
    for w in weights:
        for total in range(w, top + 1):
            row[total] += row[total - w]
    return row


def _solutions(equation) -> Iterator[CompositionSolution]:
    """Solutions of an (index_sets, weights, target) equation, lexicographically."""
    index_sets, weights, target = equation
    for values in _compositions(weights, target):
        yield CompositionSolution(index_sets, values)


def _solution_counts(equation_at, sizes: range, k: int) -> list[int]:
    """Counts of equation_at(size, k) at consecutive sizes, from one DP row."""
    low = equation_at(sizes[0], k)[2]
    _, weights, top = equation_at(sizes[-1], k)
    return _composition_counts(weights, top)[low:]


def _check_solution(phi: CompositionSolution, equation) -> None:
    """Raise NotASolution unless phi solves the equation."""
    index_sets, weights, target = equation
    layout = (phi.index_sets, len(phi.values)) == (index_sets, len(weights))
    if not layout or any(v < 0 for v in phi.values):
        raise NotASolution("assignment does not fit the variable layout")
    weighted = sum(w * v for w, v in zip(weights, phi.values))
    if weighted != target:
        raise NotASolution(f"weighted sum {weighted} != {target}")


def collar_index_sets(k: int) -> tuple[int, ...]:
    """Variable index sets: subsets of {1..k+1} with 2 <= size <= k."""
    if k < 0:
        raise OutOfRange(f"negative bound {k}")
    return tuple(
        mask for mask in range(1, 1 << (k + 1)) if 2 <= mask.bit_count() <= k
    )


def _collar_equation(n: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Index sets, weights k + 2 - |I| and total n - 2(k+1) of the equation."""
    index_sets = collar_index_sets(k)
    if n < 0:
        raise OutOfRange(f"negative size {n}")
    if n < 2 * (k + 1):
        raise TooSmall(f"need n >= {2 * (k + 1)}")
    weights = tuple(k + 2 - mask.bit_count() for mask in index_sets)
    return index_sets, weights, n - 2 * (k + 1)


def collar_solutions(n: int, k: int) -> Iterator[CompositionSolution]:
    """All non-negative assignments with weighted sum n - 2(k+1).

    The variable for index set I carries weight k + 2 - |I|; assignments
    stream in lexicographic order over the fixed variable order.
    """
    yield from _solutions(_collar_equation(n, k))


def collar_solution_counts(sizes: range, k: int) -> list[int]:
    """Solution counts at consecutive sizes, from one DP row."""
    return _solution_counts(_collar_equation, sizes, k)


def collar_solution_count(n: int, k: int) -> int:
    """Solution count by coin-style DP over the variable weights."""
    return collar_solution_counts(range(n, n + 1), k)[0]


def collar_construct(phi: CompositionSolution, n: int, k: int) -> CHFamily:
    """Family with k+1 members built by the element-allocation scheme.

    Two seed elements go to each singleton cell; each unit on variable I
    then adds one element to cell I and one to every singleton cell
    outside I, keeping the members equicardinal throughout.
    """
    _check_solution(phi, _collar_equation(n, k))
    blocks = [(1 << i, 2) for i in range(k + 1)]
    for mask, v in zip(phi.index_sets, phi.values):
        blocks.append((mask, v))
        blocks += [(1 << i, v) for i in range(k + 1) if not mask >> i & 1]
    members = _allocate(k + 1, blocks)
    return chfamily(n, members[0].bit_count(), members)


def pk_member(m: Matroid, k: int) -> bool:
    """Membership test: sparse paving with at most k circuit-hyperplanes."""
    return m.is_sparse_paving() and len(m.circuit_hyperplanes()) <= k


def exminor_shards(n: int, k: int) -> list[tuple[int, int, int]]:
    """Independent (n, k, r) work units for the excluded-minor sweep."""
    if k not in SP_EXMINORS_N:
        lo, hi = min(SP_EXMINORS_N), max(SP_EXMINORS_N)
        raise BoundTooLarge(f"excluded-minor sweep needs {lo} <= k <= {hi}")
    if n < 0:
        raise OutOfRange(f"negative size {n}")
    cap = SP_EXMINORS_N[k]
    if n > SWEEP_N:
        raise BoundTooLarge(f"excluded-minor sweep caps at n = {SWEEP_N}")
    if n > cap:
        raise BoundTooLarge(f"excluded-minor sweep caps at n = {cap} at k = {k}")
    return [(n, k, r) for r in range(2, n - 1)]


def exminor_shard(shard: tuple[int, int, int]) -> list[CHFamily]:
    """Witness families of the verified classes of one (n, k, r) work unit,
    by member count, then canonical order.

    Candidates are the families at levels k+1..2k of _family_levels, whose
    element degrees stay within [m-k, k]: deleting an element must drop the
    count to at most k (degree at least m-k) and contracting must too
    (degree at most k).  Each candidate is still confirmed against the
    kernel definition of an excluded minor before being reported.
    """
    n, k, r = shard
    verified = []
    for m, level in enumerate(_family_levels(n, r, k, 2 * k)[k:], k + 1):
        for cells in level:
            witness = realize_signature(VennSignature(m, cells))
            if is_excluded_minor(ch_to_matroid(witness), lambda q: pk_member(q, k)):
                verified.append(witness)
    return verified


def sp_excluded_minors(n: int, k: int) -> list[CHFamily]:
    """One witness family per isomorphism class of sparse paving excluded
    minors for the at-most-k class, by member count, rank, then canonical
    order."""
    found = run_sharded(exminor_shard, exminor_shards(n, k))
    return sorted((f for fams in found for f in fams), key=lambda f: f.k)


# -- serialization ------------------------------------------------------------


def chfamily_to_json(f: CHFamily) -> str:
    doc = {
        "n": f.n,
        "rank": f.r,
        "chs": [[e for e in bits(c)] for c in f.chs],
    }
    return json.dumps(doc) + "\n"


def chfamily_from_json(text: str) -> CHFamily:
    doc = read_document(text, "family", {"n": INT, "rank": INT, "chs": ROWS})
    n = doc["n"]
    return chfamily(n, doc["rank"], element_masks(doc["chs"], n, "member"))
