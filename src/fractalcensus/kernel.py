"""Ground-truth matroid oracle over explicit basis lists.

A matroid lives on ground set {0..n-1} with every basis stored as a bitmask.
This module is deliberately definition-driven: ranks come from scanning
bases, circuits from minimal dependent sets, hyperplanes from closed sets of
corank one.  Higher layers construct matroids through combinatorial formulas
and use these oracles as the independent check, so nothing here may assume
any structure beyond the basis-exchange axiom.

Every subset oracle reads one cached table: the int8 rank of all 2^n
subsets, built from the bases by two sweeps.  Independence is rank equal to
size; circuits, hyperplanes, cyclic flats and the sparse-paving
predicates are masked comparisons or lookups on it.  The exchange gate
:func:`make_matroid` checks the axiom literally, but by table lookup: one
vectorised lookup per (basis, element) pair instead of a scan over basis
pairs, so its cost is set by 2^n, not by the number of bases.  Minors are
read off the same table: the rank function of M \\ D / C is r(X | C) - r(C),
so :meth:`Matroid.minor` slices the parent's table instead of rebuilding one
from the surviving bases.

Desk-scale bound: ground sets are capped at 24 elements (masks stay inside a
machine word).  The rank table has 2^n entries and is intended for n well
below the cap; at the cap it is 16 MB and about a second to build.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .bitset import _subset_sizes, elements_of, mask_from, subset_masks

MAX_GROUND = 24


class MatroidError(Exception):
    """Base class for kernel validation failures."""


class EmptyBases(MatroidError):
    pass


class NonEquicardinal(MatroidError):
    pass


class ExchangeViolation(MatroidError):
    """Witness: bases b1, b2 and x in b1-b2 with no valid exchange."""

    def __init__(self, b1: int, b2: int, x: int):
        self.b1, self.b2, self.x = b1, b2, x
        super().__init__(
            f"exchange fails for bases {sorted(elements_of(b1))} and "
            f"{sorted(elements_of(b2))} at element {x}"
        )


class RankOutOfRange(MatroidError):
    pass


class SizeOverflow(MatroidError):
    pass


class OutOfRange(MatroidError):
    pass


class RankZero(MatroidError):
    pass


class OverlappingSets(MatroidError):
    pass


class MalformedDocument(MatroidError):
    pass


@dataclass(frozen=True)
class SetFamily:
    """A finite family of subsets of {0..n-1}, each subset a bitmask."""

    n: int
    members: tuple[int, ...]

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self._member_set

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)


@dataclass(frozen=True)
class RankedFlat:
    flat: int
    rank: int


class Matroid:
    """Immutable matroid given by ground-set size, rank and basis masks.

    Direct construction trusts its input; use :func:`make_matroid` for
    anything that has not already been proven to satisfy basis exchange.
    """

    __slots__ = ("n", "r", "bases", "_cache")

    def __init__(self, n: int, r: int, bases: tuple[int, ...]):
        self.n = n
        self.r = r
        self.bases = bases
        self._cache: dict = {}

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matroid)
            and self.n == other.n
            and self.r == other.r
            and self.bases == other.bases
        )

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.bases))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, r={self.r}, bases={len(self.bases)})"

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- rank --------------------------------------------------------------

    def rank_of(self, subset: int) -> int:
        """Rank of a subset: the largest overlap with any basis."""
        if subset < 0 or subset > self.full_mask:
            raise OutOfRange(f"subset {subset:#x} not within ground set")
        return max((subset & b).bit_count() for b in self.bases)

    def _rank_table(self) -> "np.ndarray":
        """Rank of every subset of the ground set, as a flat int8 array.

        A down sweep from the bases gives every subset of a basis its size
        and leaves -1 on the rest; an up sweep then spreads the rank of x as
        the largest independent set inside x.  Both sweeps are n vectorized
        passes over the 2^n table.  X is independent iff its entry equals
        |X|, so this one cached table answers every subset query.
        """
        got = self._cache.get("tab")
        if got is None:
            got = np.full(1 << self.n, -1, dtype=np.int8)
            got[list(self.bases)] = self.r
            for e in range(self.n):
                rv = got.reshape(-1, 2, 1 << e)
                np.maximum(rv[:, 0, :], rv[:, 1, :] - 1, out=rv[:, 0, :])
            for e in range(self.n):
                rv = got.reshape(-1, 2, 1 << e)
                np.maximum(rv[:, 1, :], rv[:, 0, :], out=rv[:, 1, :])
            self._cache["tab"] = got
        return got

    # -- circuits, hyperplanes, flats ---------------------------------------

    def circuits(self) -> SetFamily:
        """Minimal dependent sets, ascending by mask."""
        got = self._cache.get("circuits")
        if got is None:
            indep = self._rank_table() == _subset_sizes(self.n)
            minimal = ~indep
            for e in range(self.n):
                step = 1 << e
                mv = minimal.reshape(-1, 2, step)
                mv[:, 1, :] &= indep.reshape(-1, 2, step)[:, 0, :]
            got = SetFamily(self.n, tuple(np.flatnonzero(minimal).tolist()))
            self._cache["circuits"] = got
        return got

    def _flat_sweep(self, cyclic: bool) -> "np.ndarray":
        """Mask over all 2^n subsets of the flats, or of the cyclic flats.

        X is a flat when every element outside X raises its rank, and a
        flat is cyclic when no element of X lowers the rank on removal (its
        restriction has no coloop).  One vectorised pass per element reads
        both conditions off the rank table.
        """
        rank = self._rank_table()
        keep = np.ones(1 << self.n, dtype=bool)
        for e in range(self.n):
            step = 1 << e
            rv = rank.reshape(-1, 2, step)
            kv = keep.reshape(-1, 2, step)
            rises = rv[:, 1, :] > rv[:, 0, :]
            kv[:, 0, :] &= rises
            if cyclic:
                kv[:, 1, :] &= ~rises
        return keep

    def hyperplanes(self) -> SetFamily:
        """Flats of rank r-1 (maximal proper flats)."""
        if self.r == 0:
            raise RankZero("rank-0 matroid has no hyperplanes")
        got = self._cache.get("hyperplanes")
        if got is None:
            flat = self._flat_sweep(cyclic=False) & (self._rank_table() == self.r - 1)
            got = SetFamily(self.n, tuple(np.flatnonzero(flat).tolist()))
            self._cache["hyperplanes"] = got
        return got

    def circuit_hyperplanes(self) -> tuple[int, ...]:
        """Circuits that are simultaneously hyperplanes, ascending.

        These are the r-sets X of rank r - 1 with r(X - e) = r - 1 for every
        e in X (each proper subset is independent, so X is a circuit) and
        r(X + e) = r for every e outside X (X is closed): one lookup per
        (candidate, element) pair.
        """
        rank = self._rank_table()
        r = self.r
        cand = np.flatnonzero((_subset_sizes(self.n) == r) & (rank == r - 1))
        elem = 1 << np.arange(self.n)
        want = np.where(cand[:, None] & elem, r - 1, r)
        hits = cand[(rank[cand[:, None] ^ elem] == want).all(axis=1)]
        return tuple(hits.tolist())

    def cyclic_flats(self) -> list[RankedFlat]:
        """Closed sets whose restriction has no coloop, by rank then mask."""
        got = self._cache.get("cyclic_flats")
        if got is None:
            rt = self._rank_table()
            flats = np.flatnonzero(self._flat_sweep(cyclic=True)).tolist()
            got = sorted(
                (RankedFlat(f, int(rt[f])) for f in flats),
                key=lambda rf: (rf.rank, rf.flat),
            )
            self._cache["cyclic_flats"] = got
        return list(got)

    # -- minors, duality, components ----------------------------------------

    def minor(self, delete: int, contract: int) -> "Matroid":
        """Delete and contract disjoint subsets, then relabel to {0..n'-1}.

        The minor's rank function is r(X | C) - r(C) (Oxley, *Matroid
        Theory*, 3.1), so its rank table is a slice of this one: bits of D
        fixed at 0, bits of C at 1.  Bases are the full-rank r'-sets of the
        slice, ascending.  Relabelling is order-preserving on the surviving
        elements, and the minor keeps the sliced table cached.
        """
        full = self.full_mask
        if delete < 0 or delete > full or contract < 0 or contract > full:
            raise OutOfRange("minor arguments outside ground set")
        if delete & contract:
            raise OverlappingSets(
                f"delete and contract share elements "
                f"{sorted(elements_of(delete & contract))}"
            )
        rank = self._rank_table()
        # axis j of the (2,)*n view holds element n-1-j
        pick = tuple(
            0 if delete >> e & 1 else 1 if contract >> e & 1 else slice(None)
            for e in reversed(range(self.n))
        )
        sub = np.reshape(rank.reshape((2,) * self.n)[pick], -1) - rank[contract]
        n2 = self.n - (delete | contract).bit_count()
        size = _subset_sizes(n2)
        r2 = int(sub[-1])
        bases = np.flatnonzero((sub == r2) & (size == r2))
        got = Matroid(n2, r2, tuple(bases.tolist()))
        got._cache["tab"] = sub
        return got

    def delete(self, e: int) -> "Matroid":
        return self.minor(1 << e, 0)

    def contract(self, e: int) -> "Matroid":
        return self.minor(0, 1 << e)

    def dual(self) -> "Matroid":
        full = self.full_mask
        return Matroid(
            self.n, self.n - self.r, tuple(sorted(full ^ b for b in self.bases))
        )

    def components(self) -> tuple[int, ...]:
        """Partition of the ground set into connected components (as masks).

        Two elements are connected when some circuit contains both; loops
        are singleton circuits, coloops lie in no circuit, and both end up
        as singleton blocks.
        """
        parent = list(range(self.n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for c in self.circuits():
            es = elements_of(c)
            for e in es[1:]:
                ra, rb = find(es[0]), find(e)
                if ra != rb:
                    parent[rb] = ra
        blocks: dict[int, int] = {}
        for e in range(self.n):
            root = find(e)
            blocks[root] = blocks.get(root, 0) | (1 << e)
        return tuple(sorted(blocks.values()))

    # -- isomorphism --------------------------------------------------------

    def _degrees(self) -> tuple[tuple[int, ...], list[list[int]]]:
        """Basis degrees and pair degrees from one incidence product.

        With inc the (bases x n) 0/1 incidence array, entry (e, f) of
        inc^T inc counts the bases holding both e and f: the diagonal is
        each element's basis degree, the off-diagonal its pair degrees.
        """
        got = self._cache.get("deg")
        if got is None:
            arr = np.array(self.bases, dtype=np.uint32)
            inc = arr[:, None] >> np.arange(self.n, dtype=np.uint32) & 1
            gram = inc.T @ inc
            deg = tuple(np.diagonal(gram).tolist())
            np.fill_diagonal(gram, 0)
            got = deg, gram.tolist()
            self._cache["deg"] = got
        return got

    def basis_degrees(self) -> tuple[int, ...]:
        return self._degrees()[0]

    def _pair_degrees(self) -> list[list[int]]:
        return self._degrees()[1]

    def _profiles(self) -> list[tuple]:
        got = self._cache.get("profiles")
        if got is None:
            deg, pd = self._degrees()
            got = [
                (deg[e], tuple(sorted(pd[e][f] for f in range(self.n) if f != e)))
                for e in range(self.n)
            ]
            self._cache["profiles"] = got
        return got

    def is_isomorphic(self, other: "Matroid") -> bool:
        """Permutation isomorphism via pruned backtracking.

        Pruning layers: (n, r, basis count), then the multiset of
        per-element profiles (basis degree and sorted pair degrees, so the
        basis-degree multiset is covered too), then a backtracking search
        that keeps partial maps pair-degree-consistent and finally checks
        that relabelling by the map gives the other's bases.  Tests validate
        the pruning against an unpruned full-permutation scan on small
        ground sets.
        """
        if (self.n, self.r, len(self.bases)) != (
            other.n,
            other.r,
            len(other.bases),
        ):
            return False
        if self.bases == other.bases:
            return True
        n = self.n
        prof_m = self._profiles()
        prof_n = other._profiles()
        if sorted(prof_m) != sorted(prof_n):
            return False
        pd_m = self._pair_degrees()
        pd_n = other._pair_degrees()
        cand = [
            [j for j in range(n) if prof_n[j] == prof_m[i]] for i in range(n)
        ]
        order = sorted(range(n), key=lambda i: (len(cand[i]), i))
        mapping = [-1] * n
        used = [False] * n
        placed: list[int] = []

        def extend(pos: int) -> bool:
            if pos == n:
                return relabel(self, mapping) == other
            i = order[pos]
            row_m = pd_m[i]
            for j in cand[i]:
                if used[j]:
                    continue
                row_n = pd_n[j]
                ok = True
                for i2 in placed:
                    if row_m[i2] != row_n[mapping[i2]]:
                        ok = False
                        break
                if not ok:
                    continue
                mapping[i] = j
                used[j] = True
                placed.append(i)
                if extend(pos + 1):
                    return True
                placed.pop()
                used[j] = False
                mapping[i] = -1
            return False

        return extend(0)

    # -- sparse paving ------------------------------------------------------

    def is_sparse_paving(self) -> bool:
        """True when every (r-1)-set is independent and every (r+1)-set spans.

        The first says M is paving, the second that its dual is (Oxley,
        *Matroid Theory*, 2.1); at r = 0 or r = n both hold vacuously.
        """
        rank = self._rank_table()
        size = _subset_sizes(self.n)
        return bool(
            (rank[size == self.r - 1] == self.r - 1).all()
            and (rank[size == self.r + 1] == self.r).all()
        )


# -- constructors -----------------------------------------------------------


def _exchange_witness(m: Matroid) -> tuple[int, int, int] | None:
    """First (b1, b2, x) in sorted order where basis exchange fails, or None.

    For a basis B1 and x in B1 let Y be the y outside B1 with B1 - x + y a
    basis.  Exchange fails at (B1, x) for some B2 exactly when a basis
    avoids Y + x, i.e. when r(E - Y - x) = r.  ``_rank_table`` computes
    r(X) = max |X & B| for any equicardinal family, so an r-set has rank r
    only when it is a basis, and one table answers both the membership
    lookups for Y and the rank test.
    """
    rank = m._rank_table()
    arr = np.array(m.bases, dtype=np.int32)
    elem = np.left_shift(1, np.arange(m.n), dtype=np.int32)
    inb = (arr[:, None] & elem) != 0  # (basis, x): x in the basis
    drop = arr[:, None] & ~elem  # B1 - x
    avoid = np.where(inb, elem, np.int32(0))  # grows to Y + x, one y at a time
    for y in range(m.n):
        # B1 - x + y is an r-set only for x in B1 and y outside it
        swap = (rank[drop | elem[y]] == m.r) & inb & ~inb[:, y : y + 1]
        np.bitwise_or(avoid, elem[y], out=avoid, where=swap)
    fail = inb & (rank[m.full_mask & ~avoid] == m.r)
    rows = np.flatnonzero(fail.any(axis=1))
    if not len(rows):
        return None
    i = rows[0]
    # the same witness as a pairwise scan: first b2, then first x in b1 - b2
    hits = (arr[:, None] & avoid[i]) == 0
    hits &= fail[i]
    j = int(np.flatnonzero(hits.any(axis=1))[0])
    x = int(np.argmax(hits[j]))
    return int(arr[i]), int(arr[j]), x


def make_matroid(n: int, bases: Iterable[int]) -> Matroid:
    """Validate basis masks against the exchange axiom and build a Matroid.

    This is the axiom gate: every construction in the package that is not
    itself proven correct must come through here.  The check is one rank
    table over all 2^n subsets plus one lookup per (basis, element) pair,
    so its cost is set by 2^n rather than by the number of bases; the
    returned Matroid keeps that table cached.
    """
    if n < 0 or n > MAX_GROUND:
        raise SizeOverflow(f"ground set size {n} outside [0, {MAX_GROUND}]")
    cleaned = sorted(set(bases))
    if not cleaned:
        raise EmptyBases("a matroid needs at least one basis")
    full = (1 << n) - 1
    for b in cleaned:
        if b < 0 or b > full:
            raise OutOfRange(f"basis {b:#x} not within ground set of size {n}")
    r = cleaned[0].bit_count()
    for b in cleaned:
        if b.bit_count() != r:
            raise NonEquicardinal(
                f"bases {sorted(elements_of(cleaned[0]))} and "
                f"{sorted(elements_of(b))} have different sizes"
            )
    m = Matroid(n, r, tuple(cleaned))
    witness = _exchange_witness(m)
    if witness is not None:
        raise ExchangeViolation(*witness)
    return m


def uniform(r: int, n: int) -> Matroid:
    if n < 0 or n > MAX_GROUND:
        raise SizeOverflow(f"ground set size {n} outside [0, {MAX_GROUND}]")
    if r < 0 or r > n:
        raise RankOutOfRange(f"rank {r} outside [0, {n}]")
    return Matroid(n, r, tuple(subset_masks(n, r)))


def direct_sum(m1: Matroid, m2: Matroid) -> Matroid:
    if m1.n + m2.n > MAX_GROUND:
        raise SizeOverflow(
            f"direct sum would have {m1.n + m2.n} > {MAX_GROUND} elements"
        )
    shifted = [b2 << m1.n for b2 in m2.bases]
    bases = tuple(sorted(b1 | s for b1 in m1.bases for s in shifted))
    return Matroid(m1.n + m2.n, m1.r + m2.r, bases)


def relabel(m: Matroid, perm: Sequence[int]) -> Matroid:
    """Apply the bijection e -> perm[e] to the ground set.

    The basis array is mapped whole, one vectorised pass per element; the
    passes keep memory at one array the size of the basis list.
    """
    if sorted(perm) != list(range(m.n)):
        raise OutOfRange("relabelling is not a permutation of the ground set")
    arr = np.array(m.bases, dtype=np.int64)
    img = np.zeros_like(arr)
    for e, f in enumerate(perm):
        img |= (arr >> e & 1) << f
    return Matroid(m.n, m.r, tuple(np.sort(img).tolist()))


def is_excluded_minor(m: Matroid, member: Callable[[Matroid], bool]) -> bool:
    """True when m is outside the class but every single-element minor is in.

    ``member`` must be the membership predicate of a minor-closed class.
    """
    if member(m):
        return False
    for e in range(m.n):
        if not member(m.delete(e)):
            return False
        if not member(m.contract(e)):
            return False
    return True


# -- serialization ------------------------------------------------------------


def matroid_to_json(m: Matroid) -> str:
    """Interchange form: sorted element lists, bases in lexicographic order."""
    rows = sorted(list(elements_of(b)) for b in m.bases)
    doc = {"n": m.n, "rank": m.r, "bases": rows}
    return json.dumps(doc, separators=(", ", ": ")) + "\n"


def matroid_from_json(text: str) -> Matroid:
    try:
        doc = json.loads(text)
        n = int(doc["n"])
        rank = int(doc["rank"])
        rows = [[int(e) for e in row] for row in doc["bases"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedDocument(f"not a matroid document: {exc}") from exc
    # range checks come before any shift, so a huge index costs nothing
    if n < 0 or n > MAX_GROUND:
        raise SizeOverflow(f"ground set size {n} outside [0, {MAX_GROUND}]")
    for row in rows:
        for e in row:
            if not 0 <= e < n:
                raise OutOfRange(f"element {e} outside ground set of size {n}")
    masks = [mask_from(row) for row in rows]
    for row, mask in zip(rows, masks):
        if mask.bit_count() != len(row):
            raise MalformedDocument(f"basis row {row} repeats an element")
    m = make_matroid(n, masks)
    if m.r != rank:
        raise RankOutOfRange(
            f"declared rank {rank} disagrees with basis size {m.r}"
        )
    return m
