"""Benchmark workloads: the CLI invocations of one pass and their references.

A workload turns a seed into a list of ``Invocation``s (one *pass*).  Every
invocation carries a check that compares the CLI's exit code and output
with a reference the benchmark knows independently of the package: frozen
values recorded at the seed commit, or values computed here from the
generated inputs.  Nothing in this module imports ``fractalcensus``.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

# acceptance criterion 10's frozen pk rows (k = 3): n -> (m_count, x_count)
PK_FROZEN = {8: (42, 39), 9: (62, 74), 10: (90, 233), 11: (126, 398), 12: (176, 970)}
PK_RANGE = (8, 9)
# `gamma sk --k 2 --t 6..10` at the seed commit: n -> m_count (upper bounds)
SK_GAMMA_FROZEN = {
    12: 295, 13: 345, 14: 406, 15: 467, 16: 540, 17: 613, 18: 699, 19: 785, 20: 885,
}
# `sk census --n 11 --k 6 --mode exact` at the seed commit
SK_CENSUS = (11, 6, 508)

GAMMA_HEADER = "n,m_count,m_mode,x_count,x_mode,gamma_num,gamma_den,gamma"

# Check signature: (exit code, stdout, stderr) -> None when correct, else why not.
Check = Callable[[int, bytes, bytes], "str | None"]


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]
    check: Check


# -- generic checks ---------------------------------------------------------------


def _clean_stderr(stderr: bytes) -> str | None:
    if b"Traceback" in stderr:
        return "traceback on stderr"
    return None


def expect_json(expected: dict) -> Check:
    def check(code: int, out: bytes, err: bytes) -> str | None:
        if code != 0:
            return f"exit {code}: {err[-300:]!r}"
        try:
            got = json.loads(out)
        except ValueError:
            return f"stdout is not JSON: {out[:200]!r}"
        if got != expected:
            return f"output differs from reference: {out[:200]!r}"
        return _clean_stderr(err)

    return check


def expect_error(name: str) -> Check:
    """Exit 1, nothing on stdout, one JSON error object naming ``name``."""

    def check(code: int, out: bytes, err: bytes) -> str | None:
        if code != 1:
            return f"expected exit 1, got {code}"
        if out:
            return "stdout not empty on error"
        if b"Traceback" in err:
            return "traceback on stderr"
        try:
            doc = json.loads(err)
        except ValueError:
            return f"stderr is not one JSON object: {err[:200]!r}"
        if doc.get("error") != name or "detail" not in doc:
            return f"expected a {name} error, got {err[:200]!r}"
        return None

    return check


def check_help(code: int, out: bytes, err: bytes) -> str | None:
    if code != 0 or not out.startswith(b"usage: fractalcensus"):
        return f"--help: exit {code}, stdout {out[:80]!r}"
    return _clean_stderr(err)


SETUP_INVOCATION = Invocation("setup", ("--help",), check_help)


# -- gamma tables -------------------------------------------------------------------


def _check_gamma_rows(out: bytes, expected: dict[int, tuple[int, int, str, str]]) -> str | None:
    """Rows must match (m, x, m_mode, x_mode) and carry the exact ratio
    x / (m + x) both as a reduced fraction and as a 12-digit decimal."""
    lines = out.decode().split("\n")
    if lines[0] != GAMMA_HEADER or lines[-1] != "":
        return "gamma CSV header or trailing newline wrong"
    rows = lines[1:-1]
    if [int(r.split(",")[0]) for r in rows] != sorted(expected):
        return "gamma CSV rows cover the wrong sizes"
    for row in rows:
        n, m, m_mode, x, x_mode, num, den, dec = row.split(",")
        if (int(m), int(x), m_mode, x_mode) != expected[int(n)]:
            return f"gamma row for n = {n} differs from reference: {row}"
        exact = Fraction(int(x), int(m) + int(x))
        if (int(num), int(den)) != (exact.numerator, exact.denominator):
            return f"gamma fraction not x/(m+x) in lowest terms: {row}"
        _, _, frac_part = dec.partition(".")
        if len(frac_part) != 12 or abs(Fraction(Decimal(dec)) - exact) > Fraction(1, 2 * 10**12):
            return f"gamma decimal is not the 12-digit rounding: {row}"
    return None


def expect_gamma(expected: dict[int, tuple[int, int, str, str]]) -> Check:
    def check(code: int, out: bytes, err: bytes) -> str | None:
        if code != 0:
            return f"exit {code}: {err[-300:]!r}"
        return _check_gamma_rows(out, expected) or _clean_stderr(err)

    return check


def pk_sweep(rng: random.Random, workdir: Path) -> list[Invocation]:
    lo, hi = PK_RANGE
    pk_expected = {n: (PK_FROZEN[n][0], PK_FROZEN[n][1], "exact", "lower") for n in range(lo, hi + 1)}
    sk_expected = {n: (m, 1 if n == 12 else 0, "upper", "lower") for n, m in SK_GAMMA_FROZEN.items()}
    return [
        Invocation("gamma_pk", ("gamma", "pk", "--k", "3", "--n", f"{lo}..{hi}"), expect_gamma(pk_expected)),
        Invocation("gamma_sk", ("gamma", "sk", "--k", "2", "--t", "6..10"), expect_gamma(sk_expected)),
    ]


# -- spike-minor census ---------------------------------------------------------------


def sk_catalog(rng: random.Random, workdir: Path) -> list[Invocation]:
    n, k, count = SK_CENSUS

    def check(code: int, out: bytes, err: bytes) -> str | None:
        if code != 0:
            return f"exit {code}: {err[-300:]!r}"
        if out != f"{count}\n".encode():
            return f"census printed {out[:80]!r}, reference {count}"
        return _clean_stderr(err)

    return [Invocation("sk_census", ("sk", "census", "--n", str(n), "--k", str(k), "--mode", "exact"), check)]


# -- matroid files ------------------------------------------------------------------------

# Sparse paving documents (n, rank, circuit-hyperplanes).  Basis counts run
# from about 110 to about 350, so the exchange gate goes from a small to a
# large share of each invocation next to process start-up.
SP_SLOTS = ((9, 4, 6), (10, 3, 5), (10, 5, 8), (11, 4, 8), (11, 3, 8), (12, 3, 8), (13, 3, 10), (14, 3, 12))
# (t, number of picks) for spikes written by `spike build`
SPIKE_SLOTS = ((5, 3), (5, 2))
# Indices into SP_SLOTS: relabelled copies (isomorphic) and same-size
# families with other circuit-hyperplane degrees (not isomorphic).
ISO_TRUE_SLOTS = (2, 3, 6)
ISO_FALSE_SLOTS = (1, 4)
# Indices into SP_SLOTS of documents made invalid by dropping two bases.
INVALID_SLOTS = (0, 2, 3, 5, 7)


def _mask(elements) -> int:
    out = 0
    for e in elements:
        out |= 1 << e
    return out


def _elements(mask: int) -> list[int]:
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def _ch_family(rng: random.Random, n: int, r: int, count: int) -> list[int]:
    """``count`` random r-sets pairwise meeting in at most r - 2 elements:
    the circuit-hyperplanes of a sparse paving matroid."""
    while True:
        chosen: list[int] = []
        for _ in range(200 * count):
            cand = _mask(rng.sample(range(n), r))
            if all((cand & c).bit_count() <= r - 2 for c in chosen):
                chosen.append(cand)
                if len(chosen) == count:
                    return chosen


def _sparse_paving_bases(n: int, r: int, chs: list[int]) -> list[int]:
    drop = set(chs)
    return [m for m in (_mask(c) for c in combinations(range(n), r)) if m not in drop]


def _ch_degrees(n: int, chs: list[int]) -> list[int]:
    return sorted(sum(c >> e & 1 for c in chs) for e in range(n))


def _write_doc(path: Path, n: int, r: int, bases: list[int], rng: random.Random) -> None:
    rows = [_elements(b) for b in bases]
    rng.shuffle(rows)
    doc = {"n": n, "rank": r, "bases": rows}
    path.write_text(json.dumps(doc, separators=(", ", ": ")) + "\n", encoding="utf-8")


def _doc_json(n: int, r: int, bases) -> dict:
    return {"n": n, "rank": r, "bases": sorted(_elements(b) for b in set(bases))}


def _dual(n: int, r: int, bases: list[int]) -> dict:
    full = (1 << n) - 1
    return _doc_json(n, n - r, [full ^ b for b in bases])


def _minor_args(rng: random.Random, n: int, bases: list[int]) -> tuple[int, int]:
    """An independent contraction set and a deletion set that together
    keep the rank, so the minor's bases are a plain filter of the bases."""
    base = rng.choice(bases)
    inside, outside = _elements(base), [e for e in range(n) if not base >> e & 1]
    contract = _mask(rng.sample(inside, 1))
    delete = _mask(rng.sample(outside, min(2, len(outside) - 1)))
    return delete, contract


def _minor(n: int, r: int, bases: list[int], delete: int, contract: int) -> dict:
    keep = [e for e in range(n) if not (delete | contract) >> e & 1]
    squeezed = []
    for b in bases:
        if b & contract == contract and not b & delete:
            rest = b & ~contract
            squeezed.append(_mask(i for i, e in enumerate(keep) if rest >> e & 1))
    return _doc_json(len(keep), r - contract.bit_count(), squeezed)


def _drop_exchange_pair(rng: random.Random, n: int, bases: list[int]) -> list[int]:
    """Drop two bases B1 and B2 = B1 - x + y so the rest breaks exchange.

    With S = B1 - x, the bases A = S + a and C = S - d + x + y survive, and
    A - a + c is B1 or B2 for both c in C - A = {x, y}; the pair is chosen
    so such a and d exist.  B1 comes from the top of the sorted order so the
    gate's scan meets the violation late and its cost varies little.
    """
    ordered = sorted(bases)
    bset = set(bases)
    top = ordered[-max(1, len(ordered) // 20):]
    while True:
        b1 = rng.choice(top)
        x = rng.choice(_elements(b1))
        y = rng.choice([e for e in range(n) if not b1 >> e & 1])
        b2 = b1 ^ (1 << x) ^ (1 << y)
        if b2 not in bset:
            continue
        s = b1 ^ (1 << x)
        has_a = any(s | 1 << a in bset for a in range(n) if not (b1 | b2) >> a & 1)
        has_d = any((s ^ 1 << d) | 1 << x | 1 << y in bset for d in _elements(s))
        if has_a and has_d:
            return [b for b in bases if b not in (b1, b2)]


def _spike_picks(rng: random.Random, t: int, count: int) -> list[str]:
    picks: list[int] = []
    while len(picks) < count:
        p = rng.randrange(1 << t)
        if all((p ^ q).bit_count() >= 2 for q in picks):
            picks.append(p)
    return ["".join("1" if p >> i & 1 else "0" for i in range(t)) for p in picks]


@dataclass(frozen=True)
class SpikeBuild:
    """A `spike build` run during set-up; its output feeds the pass."""

    invocation: Invocation
    path: Path


def _check_spike(t: int, picks: list[str]) -> Check:
    def check(code: int, out: bytes, err: bytes) -> str | None:
        if code != 0:
            return f"exit {code}: {err[-300:]!r}"
        try:
            doc = json.loads(out)
        except ValueError:
            return f"stdout is not JSON: {out[:200]!r}"
        if (doc.get("t"), doc.get("picks"), doc.get("n"), doc.get("rank")) != (t, sorted(picks), 2 * t, t):
            return f"spike document header wrong: {out[:120]!r}"
        if any(len(row) != t for row in doc["bases"]):
            return "spike basis of the wrong size"
        return _clean_stderr(err)

    return check


def spike_builds(rng: random.Random, workdir: Path) -> list[SpikeBuild]:
    builds = []
    for i, (t, count) in enumerate(SPIKE_SLOTS):
        picks = _spike_picks(rng, t, count)
        argv = ("spike", "build", "--t", str(t), "--picks", ",".join(picks))
        builds.append(SpikeBuild(Invocation(f"spike_build_{i}", argv, _check_spike(t, picks)), workdir / f"spike{i}.json"))
    return builds


def _element_list(mask: int) -> str:
    return ",".join(map(str, _elements(mask)))


def _file_invocations(name: str, path: Path, n: int, r: int, bases: list[int], rng: random.Random) -> list[Invocation]:
    delete, contract = _minor_args(rng, n, bases)
    return [
        Invocation(f"validate_{name}", ("matroid", "validate", "--file", str(path)),
                   expect_json({"ok": True, "n": n, "rank": r, "bases": len(bases)})),
        Invocation(f"dual_{name}", ("matroid", "dual", "--file", str(path)), expect_json(_dual(n, r, bases))),
        Invocation(f"minor_{name}", ("matroid", "minor", "--file", str(path), "--delete", _element_list(delete), "--contract", _element_list(contract)),
                   expect_json(_minor(n, r, bases, delete, contract))),
    ]


def matroid_files(rng: random.Random, workdir: Path) -> list[Invocation]:
    """Write the seeded documents under ``workdir`` and return the pass.

    Spike documents must already be in ``workdir`` (see ``spike_builds``).
    """
    out: list[Invocation] = []
    families = []
    for i, (n, r, count) in enumerate(SP_SLOTS):
        chs = _ch_family(rng, n, r, count)
        bases = _sparse_paving_bases(n, r, chs)
        families.append((n, r, chs, bases))
        path = workdir / f"sp{i}.json"
        _write_doc(path, n, r, bases, rng)
        out += _file_invocations(f"sp{i}", path, n, r, bases, rng)
    for i, (t, _) in enumerate(SPIKE_SLOTS):
        path = workdir / f"spike{i}.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        bases = [_mask(row) for row in doc["bases"]]
        out += _file_invocations(f"spike{i}", path, 2 * t, t, bases, rng)
    for i in ISO_TRUE_SLOTS:
        n, r, chs, bases = families[i]
        perm = list(range(n))
        rng.shuffle(perm)
        copy = [_mask(perm[e] for e in _elements(b)) for b in bases]
        path = workdir / f"iso_true{i}.json"
        _write_doc(path, n, r, copy, rng)
        out.append(Invocation(f"iso_true_{i}", ("matroid", "iso", "--a", str(workdir / f"sp{i}.json"), "--b", str(path)),
                              expect_json({"isomorphic": True})))
    for i in ISO_FALSE_SLOTS:
        n, r, chs, bases = families[i]
        # circuit-hyperplanes are an isomorphism invariant, so families whose
        # per-element circuit-hyperplane degrees differ give non-isomorphic matroids
        while True:
            other = _ch_family(rng, n, r, len(chs))
            if _ch_degrees(n, other) != _ch_degrees(n, chs):
                break
        path = workdir / f"iso_false{i}.json"
        _write_doc(path, n, r, _sparse_paving_bases(n, r, other), rng)
        out.append(Invocation(f"iso_false_{i}", ("matroid", "iso", "--a", str(workdir / f"sp{i}.json"), "--b", str(path)),
                              expect_json({"isomorphic": False})))
    for i in INVALID_SLOTS:
        n, r, chs, bases = families[i]
        path = workdir / f"invalid{i}.json"
        _write_doc(path, n, r, _drop_exchange_pair(rng, n, bases), rng)
        out.append(Invocation(f"invalid_{i}", ("matroid", "validate", "--file", str(path)), expect_error("ExchangeViolation")))
    return out


WORKLOADS: dict[str, Callable[[random.Random, Path], list[Invocation]]] = {
    "pk_sweep": pk_sweep,
    "sk_catalog": sk_catalog,
    "matroid_files": matroid_files,
}
