"""Ground-truth matroid oracle over one stored basis array.

A matroid lives on ground set {0..n-1} with every basis a bitmask, and
all of them held in one sorted read-only uint32 array that every consumer
reads whole; ``Matroid.bases`` is its tuple view.  This module is
deliberately definition-driven: ranks come from scanning bases, circuits
from minimal dependent sets, hyperplanes from closed sets of corank one.
Higher layers construct matroids through combinatorial formulas and use
these oracles as the independent check, so nothing here may assume any
structure beyond the basis-exchange axiom.

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
from typing import Callable, Iterable, NamedTuple, Sequence

from ._lazy import np
from .bitset import _subset_sizes, elements_of, mask_from, subset_index

MAX_GROUND = 24
# rank-table passes over bits below _FOLD_BITS run on transposed chunks of
# 2^_FOLD_CHUNK_BITS rows (256 KB), which stay in cache
_FOLD_BITS = 4
_FOLD_CHUNK_BITS = 14


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


class RankedFlat(NamedTuple):
    flat: int
    rank: int


class Matroid:
    """Immutable matroid given by ground-set size, rank and basis masks.

    The basis masks are copied into one read-only uint32 array,
    :attr:`basis_array`, ascending; :attr:`bases` is its tuple of Python
    ints.  Direct construction trusts its input (a sequence of basis masks,
    ascending and distinct); use :func:`make_matroid` for anything that has
    not already been proven to satisfy basis exchange.
    """

    __slots__ = ("n", "r", "_bases", "_cache")

    def __init__(self, n: int, r: int, bases: Sequence[int]):
        self.n = n
        self.r = r
        self._bases = np.array(bases, dtype=np.uint32)
        self._bases.flags.writeable = False
        self._cache: dict = {}

    @property
    def basis_array(self) -> "np.ndarray":
        """The bases as one sorted read-only uint32 array."""
        return self._bases

    @property
    def bases(self) -> tuple[int, ...]:
        """The bases as a tuple of Python ints, ascending."""
        return tuple(self._bases.tolist())

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matroid)
            and self.n == other.n
            and self.r == other.r
            and np.array_equal(self._bases, other._bases)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.r, self._bases.tobytes()))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, r={self.r}, bases={len(self._bases)})"

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

        The pass for bit e works in runs of 2^e entries, which are short for
        the low bits, so those passes run on transposed chunks of the table,
        where the low bits lead the index.  Passes of one sweep commute, so
        the table is the plain per-bit sweep's.
        """
        got = self._cache.get("tab")
        if got is None:
            n = self.n
            low = min(n, _FOLD_BITS)
            got = np.full(1 << n, -1, dtype=np.int8)
            got[self._bases] = self.r
            _sweep_down(got, range(low, n))
            blocks = got.reshape(-1, 1 << low)
            lead = min(n - low, _FOLD_CHUNK_BITS)
            for start in range(0, len(blocks), 1 << lead):
                chunk = blocks[start : start + (1 << lead)]
                # folded[j, i] = chunk[i, j]: bit e < low is bit lead + e
                folded = chunk.T.copy()
                _sweep_down(folded.reshape(-1), range(lead, lead + low))
                _sweep_up(folded.reshape(-1), range(lead, lead + low))
                chunk[:] = folded.T
            _sweep_up(got, range(low, n))
            self._cache["tab"] = got
        return got

    # -- circuits, hyperplanes, flats ---------------------------------------

    def circuits(self) -> tuple[int, ...]:
        """Minimal dependent sets as masks, ascending."""
        indep = self._rank_table() == _subset_sizes(self.n)
        minimal = ~indep
        for e in range(self.n):
            step = 1 << e
            mv = minimal.reshape(-1, 2, step)
            mv[:, 1, :] &= indep.reshape(-1, 2, step)[:, 0, :]
        return tuple(np.flatnonzero(minimal).tolist())

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

    def hyperplanes(self) -> tuple[int, ...]:
        """Flats of rank r-1 (maximal proper flats) as masks, ascending."""
        if self.r == 0:
            raise RankZero("rank-0 matroid has no hyperplanes")
        flat = self._flat_sweep(cyclic=False) & (self._rank_table() == self.r - 1)
        return tuple(np.flatnonzero(flat).tolist())

    def circuit_hyperplanes(self) -> tuple[int, ...]:
        """Circuits that are simultaneously hyperplanes, ascending.

        These are the r-sets X of rank r - 1 with r(X - e) = r - 1 for every
        e in X (each proper subset is independent, so X is a circuit) and
        r(X + e) = r for every e outside X (X is closed): one lookup per
        (candidate, element) pair.
        """
        rank = self._rank_table()
        r = self.r
        cand = subset_index(self.n, r)
        cand = cand[rank[cand] == r - 1]
        elem = 1 << np.arange(self.n)
        want = np.where(cand[:, None] & elem, r - 1, r)
        hits = cand[(rank[cand[:, None] ^ elem] == want).all(axis=1)]
        return tuple(hits.tolist())

    def cyclic_flats(self) -> list[RankedFlat]:
        """Closed sets whose restriction has no coloop, by rank then mask."""
        rt = self._rank_table()
        flats = np.flatnonzero(self._flat_sweep(cyclic=True)).tolist()
        return sorted(
            (RankedFlat(f, int(rt[f])) for f in flats),
            key=lambda rf: (rf.rank, rf.flat),
        )

    # -- minors, duality, components ----------------------------------------

    def minor(self, delete: int, contract: int) -> "Matroid":
        """Delete and contract disjoint subsets, then relabel to {0..n'-1}.

        The minor's rank function is r(X | C) - r(C) (Oxley, *Matroid
        Theory*, 3.1), so its rank table is a slice of this one: bits of D
        fixed at 0, bits of C at 1.  Bases are the full-rank r'-sets of the
        slice, gathered over the r'-subset index.  Relabelling is
        order-preserving on the surviving elements, and the minor keeps the
        sliced table cached.
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
        r2 = int(sub[-1])
        cand = subset_index(n2, r2)
        got = Matroid(n2, r2, cand[sub[cand] == r2])
        got._cache["tab"] = sub
        return got

    def delete(self, e: int) -> "Matroid":
        return self.minor(1 << e, 0)

    def contract(self, e: int) -> "Matroid":
        return self.minor(0, 1 << e)

    def dual(self) -> "Matroid":
        # x -> full ^ x reverses the order, so the reversed image is ascending
        return Matroid(self.n, self.n - self.r, (self.full_mask ^ self._bases)[::-1])

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

    def _gram(self) -> "np.ndarray":
        """Basis degrees and pair degrees from one incidence product.

        With inc the (bases x n) 0/1 incidence array, entry (e, f) of
        inc^T inc counts the bases holding both e and f: the diagonal is
        each element's basis degree, the off-diagonal its pair degrees.  The
        product runs in float64, which is exact here: every count is at most
        C(24, 12) < 2^53.  Cached read-only as int64; a catalog keeps
        thousands of these, so no Python-int copy of it is cached.
        """
        got = self._cache.get("gram")
        if got is None:
            inc = self._bases[:, None] >> np.arange(self.n, dtype=np.uint32) & 1
            inc = inc.astype(np.float64)
            got = (inc.T @ inc).astype(np.int64)
            got.flags.writeable = False
            self._cache["gram"] = got
        return got

    def _profiles(self) -> list[tuple]:
        """Per element: basis degree and ascending pair degrees to the others."""
        got = self._cache.get("profiles")
        if got is None:
            gram = self._gram()
            # the -1 diagonal sorts first in every row, so dropping column 0
            # leaves each element's pair degrees to the others, ascending
            rows = np.where(np.eye(self.n, dtype=bool), -1, gram)
            rows.sort(axis=1)
            deg = np.diagonal(gram).tolist()
            got = list(zip(deg, map(tuple, rows[:, 1:].tolist())))
            self._cache["profiles"] = got
        return got

    def _invariant(self) -> tuple:
        """Rank, basis count and sorted element profiles: relabelling only
        permutes the profiles, so isomorphic matroids share this key.  Each
        profile starts with its basis degree, so that multiset is covered."""
        return (self.r, len(self._bases), tuple(sorted(self._profiles())))

    def is_isomorphic(self, other: "Matroid") -> bool:
        """Permutation isomorphism via pruned backtracking.

        Pruning layers: (n, r, basis count), then :meth:`_invariant`, then a
        backtracking search that keeps partial maps pair-degree-consistent
        and finally checks that relabelling by the map gives the other's
        bases.  Tests validate the pruning against an unpruned
        full-permutation scan on small ground sets.
        """
        if (self.n, self.r, len(self._bases)) != (
            other.n,
            other.r,
            len(other._bases),
        ):
            return False
        if np.array_equal(self._bases, other._bases):
            return True
        n = self.n
        if self._invariant() != other._invariant():
            return False
        prof_m = self._profiles()
        prof_n = other._profiles()
        # pair degrees; the search never reads the diagonal, since an element
        # already placed is never the one being placed
        pd_m = self._gram().tolist()
        pd_n = other._gram().tolist()
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
        r = self.r
        return bool(
            (rank[subset_index(self.n, r - 1)] == r - 1).all()
            and (rank[subset_index(self.n, r + 1)] == r).all()
        )


def _sweep_down(table: "np.ndarray", bits: range) -> None:
    """In place, t[x] = max(t[x], t[x | e] - 1) for each bit e of ``bits``."""
    for e in bits:
        rv = table.reshape(-1, 2, 1 << e)
        np.maximum(rv[:, 0, :], rv[:, 1, :] - 1, out=rv[:, 0, :])


def _sweep_up(table: "np.ndarray", bits: range) -> None:
    """In place, t[x | e] = max(t[x | e], t[x]) for each bit e of ``bits``."""
    for e in bits:
        rv = table.reshape(-1, 2, 1 << e)
        np.maximum(rv[:, 1, :], rv[:, 0, :], out=rv[:, 1, :])


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
    arr = m.basis_array
    elem = np.uint32(1) << np.arange(m.n, dtype=np.uint32)
    inb = (arr[:, None] & elem) != 0  # (basis, x): x in the basis
    drop = arr[:, None] & ~elem  # B1 - x
    avoid = np.where(inb, elem, np.uint32(0))  # grows to Y + x, one y at a time
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
    m = Matroid(n, r, cleaned)
    witness = _exchange_witness(m)
    if witness is not None:
        raise ExchangeViolation(*witness)
    return m


def uniform(r: int, n: int) -> Matroid:
    if n < 0 or n > MAX_GROUND:
        raise SizeOverflow(f"ground set size {n} outside [0, {MAX_GROUND}]")
    if r < 0 or r > n:
        raise RankOutOfRange(f"rank {r} outside [0, {n}]")
    return Matroid(n, r, subset_index(n, r))


def direct_sum(m1: Matroid, m2: Matroid) -> Matroid:
    if m1.n + m2.n > MAX_GROUND:
        raise SizeOverflow(
            f"direct sum would have {m1.n + m2.n} > {MAX_GROUND} elements"
        )
    # m2's bits are the high ones, so the row-major sums come out ascending
    bases = (m2.basis_array[:, None] << m1.n | m1.basis_array).ravel()
    return Matroid(m1.n + m2.n, m1.r + m2.r, bases)


def relabel(m: Matroid, perm: Sequence[int]) -> Matroid:
    """Apply the bijection e -> perm[e] to the ground set.

    The basis array is mapped whole, one vectorised pass per element; the
    passes keep memory at one array the size of the basis list.
    """
    if sorted(perm) != list(range(m.n)):
        raise OutOfRange("relabelling is not a permutation of the ground set")
    arr = m.basis_array
    img = np.zeros_like(arr)
    for e, f in enumerate(perm):
        img |= (arr >> e & 1) << f
    return Matroid(m.n, m.r, np.sort(img))


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
    return json.dumps(doc) + "\n"


def _is_int(value) -> bool:
    return type(value) is int  # a JSON true or false decodes to bool, an int subclass


# the shapes of document fields, named as their error details name them
INT = "an integer"
ROWS, PICKS = "a list of integer lists", "a list of integers and strings"
_SHAPES = {
    INT: _is_int,
    ROWS: lambda v: type(v) is list
    and all(type(row) is list and all(map(_is_int, row)) for row in v),
    PICKS: lambda v: type(v) is list and all(_is_int(p) or type(p) is str for p in v),
}


def read_document(text: str, kind: str, fields: dict[str, str]) -> dict:
    """The JSON object in ``text``, each field shape-checked, none coerced."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # syntax, digit limit, depth
        raise MalformedDocument(f"not a {kind} document: {exc}") from exc
    if type(doc) is not dict:
        raise MalformedDocument(f"not a {kind} document: not a JSON object")
    for key, shape in fields.items():
        if key not in doc:
            raise MalformedDocument(f"not a {kind} document: {key!r}")
        if not _SHAPES[shape](doc[key]):
            raise MalformedDocument(f"not a {kind} document: {key!r} is not {shape}")
    return doc


def check_elements(elements: Iterable[int], n: int) -> None:
    """Range check, run before any ``1 << e`` so a huge index costs nothing."""
    for e in elements:
        if not 0 <= e < n:
            raise OutOfRange(f"element {e} outside ground set of size {n}")


def element_masks(rows: list[list[int]], n: int, what: str) -> list[int]:
    """Row masks once every element passed the range check; no repeats."""
    check_elements((e for row in rows for e in row), n)
    masks = [mask_from(row) for row in rows]
    for row, mask in zip(rows, masks):
        if mask.bit_count() != len(row):
            raise MalformedDocument(f"{what} {row} repeats an element")
    return masks


def matroid_from_json(text: str) -> Matroid:
    doc = read_document(text, "matroid", {"n": INT, "rank": INT, "bases": ROWS})
    n, rank = doc["n"], doc["rank"]
    if n < 0 or n > MAX_GROUND:
        raise SizeOverflow(f"ground set size {n} outside [0, {MAX_GROUND}]")
    m = make_matroid(n, element_masks(doc["bases"], n, "basis row"))
    if m.r != rank:
        raise RankOutOfRange(f"declared rank {rank} disagrees with basis size {m.r}")
    return m
