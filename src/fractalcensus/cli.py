"""Command-line front end.

Subcommands mirror the library surface: matroid file utilities, the sparse
paving census and excluded-minor search, spike construction and
verification, the spike-minor censuses, boundary-ratio tables, and slope
fits.  Validation failures, and a FRACTAL_THREADS that is not a positive
integer, exit 1 with a JSON error object on stderr; usage errors exit 2.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

# One OpenBLAS thread unless the user exported a count: the package's only
# BLAS call (the float64 degree product in kernel) gains nothing from a
# pool, whose start-up costs every process tens of milliseconds and CPU on
# a second core. FRACTAL_THREADS is the parallelism, and forked workers
# inherit this setting. It must precede numpy's load: the modules below bind
# numpy lazily, and `main` loads it once the arguments have parsed.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .biasedlift import (
    TooLarge,
    bottom_solution_counts,
    census_sk_exact,
    census_sk_strata,
    sk_excluded_minor_classes,
    sk_verify_mode,
    spike_from_spec,
    spike_spec,
    spikespec_from_json,
    spikespec_to_json,
    strata_csv,
    verify_sk_excluded_minor,
)
from ._caps import SLOPE_K, SLOPE_TOP
from .gamma import gamma_csv, gamma_pk_table, gamma_sk_table, slope_fit
from .bitset import mask_from
from ._lazy import load_numpy
from .kernel import MatroidError, check_elements, matroid_from_json, matroid_to_json
from .parallel import BadThreadCount
from .sparsepaving import (
    census_csv,
    census_pk,
    chfamily_to_json,
    collar_solution_counts,
    sp_excluded_minors,
)

_GAMMA_NOTE = (
    "x-counts are restricted-search lower bounds: the excluded-minor search "
    "runs over the constructive families only, so each ratio is a floor on "
    "the true boundary share."
)


def _range_arg(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in {text!r}")
    if hi_i < lo_i:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo_i, hi_i + 1)


class BadElementList(MatroidError):
    """An element list is not comma-separated integers."""


class UnreadableFile(MatroidError):
    """An input file could not be read as text."""


class UnwritableFile(MatroidError):
    """An output file could not be written."""


def _element_mask(text: str, n: int) -> int:
    # ASCII digits only: int() would also read "1_0", " 1" and fullwidth digits
    parts = text.split(",") if text else []
    if not all(re.fullmatch(r"[+-]?[0-9]+", part) for part in parts):
        raise BadElementList(f"expected comma-separated elements, got {text!r}")
    elements = [int(part) for part in parts]
    check_elements(elements, n)
    return mask_from(elements)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableFile(f"cannot read {path}: {exc}") from exc


def _picks_arg(text: str) -> list[str]:
    return [p for p in text.split(",") if p]


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UnwritableFile(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _print_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")


# -- handlers -------------------------------------------------------------------


def _run_matroid_validate(args) -> int:
    m = matroid_from_json(_read(args.file))
    _print_json({"ok": True, "n": m.n, "rank": m.r, "bases": len(m.basis_array)})
    return 0


def _run_matroid_iso(args) -> int:
    a = matroid_from_json(_read(args.a))
    b = matroid_from_json(_read(args.b))
    _print_json({"isomorphic": a.is_isomorphic(b)})
    return 0


def _run_matroid_minor(args) -> int:
    m = matroid_from_json(_read(args.file))
    got = m.minor(_element_mask(args.delete, m.n), _element_mask(args.contract, m.n))
    _emit(matroid_to_json(got), args.out)
    return 0


def _run_matroid_dual(args) -> int:
    m = matroid_from_json(_read(args.file))
    _emit(matroid_to_json(m.dual()), args.out)
    return 0


def _run_sp_census(args) -> int:
    _emit(census_csv(census_pk(args.n, args.k)), args.out)
    return 0


def _run_sp_exminors(args) -> int:
    docs = [json.loads(chfamily_to_json(f)) for f in sp_excluded_minors(args.n, args.k)]
    _emit(json.dumps(docs) + "\n", args.out)
    return 0


def _run_spike_build(args) -> int:
    """Emit one document carrying both the spec and its matroid.

    The spec half feeds ``spike verify``, the matroid half feeds the
    ``matroid`` utilities, so a built file works with either.
    """
    spec = spike_spec(args.t, args.picks)
    doc = json.loads(spikespec_to_json(spec))
    doc.update(json.loads(matroid_to_json(spike_from_spec(spec))))
    _emit(json.dumps(doc) + "\n", args.out)
    return 0


def _run_spike_verify(args) -> int:
    spec = spikespec_from_json(_read(args.file))
    mode = sk_verify_mode(spec.t, args.mode)
    ok = verify_sk_excluded_minor(spec, args.k, mode=mode)
    _print_json(
        {"excluded_minor": ok, "mode": mode, **json.loads(spikespec_to_json(spec))}
    )
    return 0 if ok else 1


def _run_sk_census(args) -> int:
    if args.mode == "exact":
        _emit(f"{census_sk_exact(args.n, args.k)}\n", args.out)
    else:
        _emit(strata_csv(census_sk_strata(args.n, args.k)), args.out)
    return 0


def _run_sk_exminors(args) -> int:
    specs = sk_excluded_minor_classes(args.t, args.k)
    docs = [json.loads(spikespec_to_json(spec)) for spec in specs]
    _emit(json.dumps(docs) + "\n", args.out)
    return 0


def _run_gamma_pk(args) -> int:
    _emit(gamma_csv(gamma_pk_table(args.k, args.n)), args.out)
    return 0


def _run_gamma_sk(args) -> int:
    _emit(gamma_csv(gamma_sk_table(args.k, args.t)), args.out)
    return 0


_SERIES = {"eqn1": collar_solution_counts, "eqn2": bottom_solution_counts}


def _run_slope(args) -> int:
    if args.k > SLOPE_K or args.range[-1] > SLOPE_TOP:
        raise TooLarge(
            f"{args.source} series capped at k = {SLOPE_K} and size {SLOPE_TOP}"
        )
    series = list(zip(args.range, _SERIES[args.source](args.range, args.k)))
    window = None
    if args.window is not None:
        window = (args.window.start, args.window.stop - 1)
    est = slope_fit(series, window=window)
    _print_json(
        {
            "source": args.source,
            "k": args.k,
            "exponent": est.exponent,
            "window": [est.window[0], est.window[1]],
            "residual": est.residual,
        }
    )
    return 0


# -- parser ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractalcensus",
        description="Censuses, excluded minors and boundary ratios for sparse "
        "paving and spike-minor matroid classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    matroid = sub.add_parser("matroid", help="matroid file utilities")
    msub = matroid.add_subparsers(dest="subcommand", required=True)
    v = msub.add_parser("validate", help="check basis exchange on a matroid file")
    v.add_argument("--file", required=True)
    v.set_defaults(run=_run_matroid_validate)
    i = msub.add_parser("iso", help="isomorphism test between two matroid files")
    i.add_argument("--a", required=True)
    i.add_argument("--b", required=True)
    i.set_defaults(run=_run_matroid_iso)
    mi = msub.add_parser("minor", help="delete and contract elements")
    mi.add_argument("--file", required=True)
    mi.add_argument("--delete", default="", help="comma-separated elements")
    mi.add_argument("--contract", default="", help="comma-separated elements")
    mi.add_argument("--out")
    mi.set_defaults(run=_run_matroid_minor)
    d = msub.add_parser("dual", help="dual matroid")
    d.add_argument("--file", required=True)
    d.add_argument("--out")
    d.set_defaults(run=_run_matroid_dual)

    sp = sub.add_parser("sp", help="sparse paving census and excluded minors")
    spsub = sp.add_subparsers(dest="subcommand", required=True)
    c = spsub.add_parser("census", help="isomorphism-class counts as CSV")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--out")
    c.set_defaults(run=_run_sp_census)
    e = spsub.add_parser("exminors", help="excluded-minor witness families as JSON")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--out")
    e.set_defaults(run=_run_sp_exminors)

    spk = sub.add_parser("spike", help="spike construction and verification")
    spksub = spk.add_subparsers(dest="subcommand", required=True)
    b = spksub.add_parser(
        "build", help="spike document (spec plus matroid) from pick vectors"
    )
    b.add_argument("--t", type=int, required=True)
    b.add_argument(
        "--picks", type=_picks_arg, default=[], help="comma-separated 0/1 strings"
    )
    b.add_argument("--out")
    b.set_defaults(run=_run_spike_build)
    vf = spksub.add_parser("verify", help="excluded-minor check for a spike file")
    vf.add_argument("--file", required=True)
    vf.add_argument("--k", type=int, required=True)
    vf.add_argument("--mode", choices=("auto", "full", "structural"), default="auto")
    vf.set_defaults(run=_run_spike_verify)

    sk = sub.add_parser("sk", help="spike-minor class census and excluded minors")
    sksub = sk.add_subparsers(dest="subcommand", required=True)
    c = sksub.add_parser("census", help="exact count or strata CSV")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--mode", choices=("exact", "strata"), default="exact")
    c.add_argument("--out")
    c.set_defaults(run=_run_sk_census)
    e = sksub.add_parser("exminors", help="excluded-minor spike classes as JSON")
    e.add_argument("--t", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--out")
    e.set_defaults(run=_run_sk_exminors)

    g = sub.add_parser(
        "gamma",
        help="boundary-ratio tables",
        description="Boundary-ratio tables. " + _GAMMA_NOTE,
    )
    gsub = g.add_subparsers(dest="subcommand", required=True)
    gp = gsub.add_parser(
        "pk", help="sparse paving ratios", description=_GAMMA_NOTE
    )
    gp.add_argument("--k", type=int, required=True)
    gp.add_argument("--n", type=_range_arg, required=True, metavar="LO..HI")
    gp.add_argument("--out")
    gp.set_defaults(run=_run_gamma_pk)
    gs = gsub.add_parser(
        "sk", help="spike-minor ratios", description=_GAMMA_NOTE
    )
    gs.add_argument("--k", type=int, required=True)
    gs.add_argument("--t", type=_range_arg, required=True, metavar="LO..HI")
    gs.add_argument("--out")
    gs.set_defaults(run=_run_gamma_sk)

    s = sub.add_parser("slope", help="growth-exponent fit for a count series")
    s.add_argument("--source", choices=("eqn1", "eqn2"), required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--range", type=_range_arg, required=True, metavar="LO..HI")
    s.add_argument("--window", type=_range_arg, metavar="LO..HI")
    s.set_defaults(run=_run_slope)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # every command that gets here computes: load numpy now, so its import is
    # paid once, before any work or pool fork, and never by --help or a usage
    # error
    load_numpy()
    try:
        return args.run(args)
    except (MatroidError, BadThreadCount) as exc:
        doc = {"error": type(exc).__name__, "detail": str(exc)}
        sys.stderr.write(json.dumps(doc) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
