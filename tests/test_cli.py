"""Command-line dispatch, exit codes, and output formats."""
import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fractalcensus
from fractalcensus import _caps, cli
from fractalcensus.cli import main
from fractalcensus.kernel import (
    MatroidError,
    matroid_from_json,
    matroid_to_json,
    uniform,
)
from fractalcensus.biasedlift import (
    spike,
    spike_spec,
    spikespec_from_json,
    spikespec_to_json,
)
from fractalcensus.sparsepaving import chfamily_from_json


@pytest.fixture
def u24_file(tmp_path):
    path = tmp_path / "u24.json"
    path.write_text(matroid_to_json(uniform(2, 4)), encoding="utf-8")
    return str(path)


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["sp", "census", "--n", "8"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["gamma", "pk", "--k", "1", "--n", "8-10"])
    assert err.value.code == 2


def test_matroid_validate(u24_file, capsys):
    assert main(["matroid", "validate", "--file", u24_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"ok": True, "n": 4, "rank": 2, "bases": 6}


def test_matroid_validate_rejects(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, "rank": 2, "bases": [[0, 1], [2, 3]]}', encoding="utf-8")
    assert main(["matroid", "validate", "--file", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ExchangeViolation"


def test_matroid_iso_and_dual(u24_file, tmp_path, capsys):
    assert main(["matroid", "iso", "--a", u24_file, "--b", u24_file]) == 0
    assert json.loads(capsys.readouterr().out) == {"isomorphic": True}
    out = tmp_path / "dual.json"
    assert main(["matroid", "dual", "--file", u24_file, "--out", str(out)]) == 0
    assert matroid_from_json(out.read_text(encoding="utf-8")) == uniform(2, 4)


def test_matroid_minor(u24_file, capsys):
    assert (
        main(["matroid", "minor", "--file", u24_file, "--delete", "0", "--contract", "1"])
        == 0
    )
    got = matroid_from_json(capsys.readouterr().out)
    assert got == uniform(1, 2)


def test_sp_census_csv(capsys):
    assert main(["sp", "census", "--n", "8", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n,k,m,count"
    assert out.splitlines()[1] == "8,2,0,9"


def test_sp_exminors_json(capsys):
    assert main(["sp", "exminors", "--n", "8", "--k", "3"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert isinstance(docs, list) and docs
    assert set(docs[0]) == {"n", "rank", "chs"}


def test_spike_build_matches_library(capsys):
    assert main(["spike", "build", "--t", "4", "--picks", "0000,1100"]) == 0
    out = capsys.readouterr().out
    assert matroid_from_json(out) == spike(4, [0, 0b0011])
    doc = json.loads(out)
    assert doc["t"] == 4 and doc["picks"] == ["0000", "1100"]


def test_spike_build_then_verify(tmp_path, capsys):
    built = tmp_path / "s.json"
    argv = ["spike", "build", "--t", "6", "--picks", "000000,110011,111100"]
    assert main(argv + ["--out", str(built)]) == 0
    capsys.readouterr()
    assert main(["spike", "verify", "--file", str(built), "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["excluded_minor"] is True
    assert main(["matroid", "validate", "--file", str(built)]) == 0


def test_malformed_documents_exit_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, "rank": 2}', encoding="utf-8")
    assert main(["matroid", "validate", "--file", str(bad)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "MalformedDocument"
    assert main(["spike", "verify", "--file", str(bad), "--k", "2"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "MalformedDocument"
    bad.write_text(
        '{"n": 4, "rank": 2, "bases": [[0, 0, 1], [0, 2], [1, 2]]}', encoding="utf-8"
    )
    assert main(["matroid", "validate", "--file", str(bad)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "MalformedDocument"


def _exit_one(argv, capsys) -> dict:
    """The JSON error document of a CLI run that must exit 1."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    return json.loads(captured.err)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "command, text",
    [
        ("spike verify --k 2", '{"t": 4, "picks": [null]}'),
        ("spike verify --k 2", '{"t": 4.7, "picks": [3.9, "0000"]}'),
        ("spike verify --k 2", '{"t": 4, "picks": "0011"}'),
        ("spike verify --k 2", '{"t": 4, "picks": [[1], "0000"]}'),
        ("matroid validate", '{"n": 3.5, "rank": 1, "bases": [[0.9], [true], [2]]}'),
        ("matroid validate", '{"n": 3, "rank": 1, "bases": ["0", "1", "2"]}'),
        ("matroid dual", '{"n": true, "rank": 1, "bases": [[0]]}'),
        ("matroid validate", "[" * 100_000),
    ],
)
def test_documents_of_the_wrong_json_type_exit_cleanly(
    command, text, threads, tmp_path, capsys
):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    argv = [*command.split(), "--file", str(path)]
    with mock.patch.dict(os.environ, {"FRACTAL_THREADS": threads}):
        assert _exit_one(argv, capsys)["error"] == "MalformedDocument"


def test_bad_element_lists_exit_cleanly(u24_file, capsys):
    argv = ["matroid", "minor", "--file", u24_file]
    assert _exit_one(argv + ["--delete", "x"], capsys)["error"] == "BadElementList"
    assert _exit_one(argv + ["--delete", "-1"], capsys)["error"] == "OutOfRange"
    assert _exit_one(argv + ["--contract", "4"], capsys)["error"] == "OutOfRange"
    # int() would read "1_0" as 10, and " 1" or a fullwidth or Arabic-Indic 1 as 1
    bad = ["1_0", "0_1", " 1", "1 ", "\uff11", "0,\uff11", "\u0661", "+-1", "1,,2"]
    for text in bad:
        assert _exit_one(argv + ["--delete", text], capsys)["error"] == "BadElementList"


@pytest.mark.parametrize(
    "delete, contract, want",
    [("", "", uniform(2, 4)), ("+0", "01", uniform(1, 2)), ("-0", "", uniform(2, 3))],
)
def test_element_lists_read_signed_ascii_integers(
    delete, contract, want, u24_file, capsys
):
    argv = ["matroid", "minor", "--file", u24_file]
    assert main(argv + ["--delete", delete, "--contract", contract]) == 0
    assert matroid_from_json(capsys.readouterr().out) == want


def test_missing_files_exit_cleanly(u24_file, tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    argv = ["matroid", "validate", "--file", missing]
    assert _exit_one(argv, capsys)["error"] == "UnreadableFile"
    argv = ["matroid", "iso", "--a", missing, "--b", u24_file]
    assert _exit_one(argv, capsys)["error"] == "UnreadableFile"
    argv = ["matroid", "iso", "--a", u24_file, "--b", missing]
    assert _exit_one(argv, capsys)["error"] == "UnreadableFile"


def test_spike_verify_exit_codes(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"t": 6, "picks": ["000000", "001111", "110011"]}', encoding="utf-8"
    )
    assert main(["spike", "verify", "--file", str(spec), "--k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["excluded_minor"] is True and doc["mode"] == "full"
    member = tmp_path / "member.json"
    member.write_text('{"t": 6, "picks": ["000000"]}', encoding="utf-8")
    assert main(["spike", "verify", "--file", str(member), "--k", "2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["excluded_minor"] is False


def test_sk_census_modes(capsys):
    assert main(["sk", "census", "--n", "2", "--k", "0"]) == 0
    assert capsys.readouterr().out == "4\n"
    assert main(["sk", "census", "--n", "8", "--k", "1", "--mode", "strata"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n,k,category,r,m,count,mode"
    assert main(["sk", "census", "--n", "7", "--k", "1", "--mode", "strata"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OddSize"


def test_sk_exminors_json(capsys):
    assert main(["sk", "exminors", "--t", "6", "--k", "2"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert docs == [{"t": 6, "picks": ["000000", "110011", "111100"]}]


def test_gamma_pk_anchor(capsys):
    assert main(["gamma", "pk", "--k", "1", "--n", "6..6"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "6,12,exact,1,lower,1,13,0.076923076923"


def test_gamma_sk_table(capsys):
    assert main(["gamma", "sk", "--k", "2", "--t", "6..7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 3  # header plus sizes 12, 13, 14
    assert lines[1].startswith("12,")


def test_gamma_help_states_lower_bound(capsys):
    with pytest.raises(SystemExit) as err:
        main(["gamma", "--help"])
    assert err.value.code == 0
    assert "lower bounds" in capsys.readouterr().out


@pytest.mark.parametrize(
    "source, k, sizes, exponent",
    [("eqn1", 3, (60, 120), 9), ("eqn2", 5, (50, 200), 24)],
)
def test_slope_json(source, k, sizes, exponent, capsys):
    # each source reads its own series: the other's exponent is far off
    # (about 2 for eqn2 at k = 3, 33 for eqn1 at k = 5)
    argv = ["slope", "--source", source, "--k", str(k), "--range", "%d..%d" % sizes]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["source"] == source
    assert abs(doc["exponent"] - exponent) < 1.0
    assert doc["window"] == list(sizes)


def test_slope_zero_count_is_degenerate_at_once(capsys):
    # eqn1 has no solution at n = 2k + 3, and the series is one DP row
    start = time.perf_counter()
    argv = ["slope", "--source", "eqn1", "--k", "9", "--range", "20..1000"]
    assert _exit_one(argv, capsys)["error"] == "DegenerateSeries"
    assert time.perf_counter() - start < 5


def test_out_writes_file(tmp_path):
    out = tmp_path / "census.csv"
    assert main(["sp", "census", "--n", "6", "--k", "1", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("n,k,m,count\n")
    assert text.endswith("\n")


def test_huge_element_rejected_before_shift(tmp_path, capsys):
    # range check comes before 1 << e, so the detail stays short
    bad = tmp_path / "huge.json"
    bad.write_text('{"n": 4, "rank": 1, "bases": [[400000000]]}', encoding="utf-8")
    argv = ["matroid", "validate", "--file", str(bad)]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OutOfRange"
    assert "400000000" in err["detail"] and len(err["detail"]) < 200
    bad.write_text('{"n": 400, "rank": 1, "bases": [[0]]}', encoding="utf-8")
    assert _exit_one(argv, capsys)["error"] == "SizeOverflow"


def test_unwritable_out_exits_cleanly(u24_file, tmp_path, capsys):
    target = str(tmp_path / "missing-dir" / "x.json")
    for argv in (
        ["matroid", "dual", "--file", u24_file],
        ["spike", "build", "--t", "4", "--picks", "0011,1100"],
        ["sp", "exminors", "--n", "8", "--k", "3"],
        ["sk", "exminors", "--t", "6", "--k", "2"],
    ):
        assert _exit_one(argv + ["--out", target], capsys)["error"] == "UnwritableFile"


# each list command over its sizes at one bound, empty lists included (sk
# exminors --t 7 --k 2, sp exminors --n 5 --k 3); from k = 4 the sizes stop
# at the cap, and at k = 6 below it (t = 17 alone takes over 20 s)
_LIST_RUNS = [
    *(("sp exminors --n {} --k %d" % k, range(5, 13)) for k in (1, 2, 3)),
    ("sp exminors --n {} --k 4", range(6, 10)),
    ("sk exminors --t {} --k 2", range(6, 10)),
    ("sk exminors --t {} --k 3", range(8, 61)),
    ("sk exminors --t {} --k 4", range(10, 14)),
    ("sk exminors --t {} --k 5", range(12, 16)),
    ("sk exminors --t {} --k 6", range(14, 17)),
    ("sk exminors --t {} --k 7", range(16, 18)),
]


@pytest.mark.parametrize("template, sizes", _LIST_RUNS, ids=[t for t, _ in _LIST_RUNS])
def test_list_documents_are_json_dumps_of_their_records(
    template, sizes, tmp_path, capsys
):
    # written one record at a time, a list document keeps json.dumps's bytes
    # for the decoded list, on stdout and in --out; the --out run reuses the
    # records of the stdout run, since the writer is what is under test
    sp = template.startswith("sp")
    name = "sp_excluded_minors" if sp else "sk_excluded_minor_classes"
    out = tmp_path / "list.json"
    texts = []
    with mock.patch.object(cli, name, functools.cache(getattr(cli, name))):
        for size in sizes:
            argv = template.format(size).split()
            assert main(argv) == 0
            texts.append(capsys.readouterr().out)
            assert texts[-1] == json.dumps(json.loads(texts[-1])) + "\n"
            assert main(argv + ["--out", str(out)]) == 0
            assert out.read_text(encoding="utf-8") == texts[-1]
    assert any(text != "[]\n" for text in texts)


@pytest.mark.parametrize(
    "argv, error",
    [
        (["sk", "exminors", "--t", "851", "--k", "3"], "TooLarge"),
        (["sp", "exminors", "--n", "17", "--k", "3"], "BoundTooLarge"),
    ],
)
def test_refused_list_command_leaves_no_out_file(argv, error, tmp_path, capsys):
    out = tmp_path / "none.json"
    assert _exit_one(argv + ["--out", str(out)], capsys)["error"] == error
    assert not out.exists()


def test_list_document_peak_memory_stays_below_its_size(tmp_path):
    # the records are written as their own JSON, not decoded into one list
    # and encoded again as a whole document (which peaked at five times the
    # file); the untraced first run fills the caches of this half-size
    argv = ["sk", "exminors", "--t", "150", "--k", "3", "--out", str(tmp_path / "f")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "f").stat().st_size


@pytest.mark.parametrize(
    "argv",
    [
        ["sp", "census", "--n", "-3", "--k", "2"],
        ["sp", "census", "--n", "6", "--k", "-1"],
        ["slope", "--source", "eqn1", "--k", "-2", "--range", "1..10"],
        ["slope", "--source", "eqn1", "--k", "-1", "--range", "1..10"],
        ["sp", "exminors", "--n", "-5", "--k", "2"],
        ["sk", "exminors", "--t", "-5", "--k", "3"],
        ["sk", "exminors", "--t", "10", "--k", "-1"],
        ["slope", "--source", "eqn1", "--k", "3", "--range=-5..40"],
        ["slope", "--source", "eqn2", "--k", "3", "--range=-5..40"],
        ["slope", "--source", "eqn2", "--k", "-1", "--range", "1..10"],
        ["spike", "build", "--t", "-3"],
        # {spike} is a t = 8 spike file: 16 elements, past full verification's
        # 14, which full mode used to check before the bound
        ["spike", "verify", "--file", "{spike}", "--k", "-1", "--mode", "structural"],
        ["spike", "verify", "--file", "{spike}", "--k", "-1", "--mode", "full"],
    ],
)
def test_negative_sizes_and_bounds_exit_cleanly(argv, tmp_path, capsys):
    spike_file = tmp_path / "spike.json"
    spike_file.write_text(spikespec_to_json(spike_spec(8, [])), encoding="utf-8")
    argv = [word.replace("{spike}", str(spike_file)) for word in argv]
    assert _exit_one(argv, capsys)["error"] == "OutOfRange"


# each capped CLI route: its README "Size caps" label (None where another
# route's row stands for it), the table row that caps it, an argv template
# ({n} a size, {t} = n // 2 a half-size), its error, and the (bound, size)
# runs past the row's keys, each size inside every limit
_STRATA_T = {k: n for k, n in _caps.STRATA_N.items() if k >= 2}
_SLOPE = {_caps.SLOPE_K: _caps.SLOPE_TOP}
_CAPPED_ROUTES = [
    (
        "`sp census`",
        _caps.SP_CENSUS_N,
        "sp census --n {n} --k {k}",
        "BoundTooLarge",
        [(7, 8)],
    ),
    (
        "`sp exminors`",
        _caps.SP_EXMINORS_N,
        "sp exminors --n {n} --k {k}",
        "BoundTooLarge",
        [(5, 8)],
    ),
    (
        None,
        _caps.SP_EXMINORS_N,
        "gamma pk --k {k} --n 8..{n}",
        "BoundTooLarge",
        [(5, 8)],
    ),
    (
        "strata rows",
        _caps.STRATA_N,
        "sk census --n {n} --k {k} --mode strata",
        "TooLarge",
        [(7, 14)],
    ),
    # the last row is past the cap: refused before the first is built
    (None, _STRATA_T, "gamma sk --k {k} --t 6..{t}", "TooLarge", [(7, 14)]),
    (None, _STRATA_T, "gamma sk --k {k} --t {t}..{t}", "TooLarge", []),
    # k + 1 picks past the 8-index permutation tables
    (
        "`sk exminors`",
        _caps.SK_EXMINORS_T,
        "sk exminors --t {n} --k {k}",
        "TooLarge",
        [(8, 18), (9, 20), (10, 22)],
    ),
    ("`gamma sk`", _caps.GAMMA_SK_T, "gamma sk --k {k} --t 6..{n}", "TooLarge", []),
    (
        "`slope` eqn1",
        _SLOPE,
        "slope --source eqn1 --k {k} --range 60..{n}",
        "TooLarge",
        [(18, 300)],
    ),
    (
        "`slope` eqn2",
        _SLOPE,
        "slope --source eqn2 --k {k} --range 50..{n}",
        "TooLarge",
        [(18, 200)],
    ),
]


def _past_cap_cases():
    """One size past each limit of the table, and each bound past a row."""
    for _, row, template, error, past_keys in _CAPPED_ROUTES:
        runs = [(k, cap + 1, cap) for k, cap in row.items() if cap is not None]
        runs += [(k, n, max(row)) for k, n in past_keys]
        for k, n, limit in runs:
            argv = template.format(k=k, n=n, t=n // 2)
            yield pytest.param(argv.split(), error, limit, id=argv)


@pytest.mark.parametrize("argv, error, limit", _past_cap_cases())
def test_measured_caps_refuse_the_next_size_at_once(argv, error, limit, capsys):
    # one size past the largest measured to finish in 60 s and 1 GB (or past
    # the seed's limit); the detail names the limit the table holds, so a
    # routine that kept its own number fails here
    start = time.perf_counter()
    doc = _exit_one(argv, capsys)
    assert time.perf_counter() - start < 1
    assert doc["error"] == error
    assert re.search(rf"\b{limit}\b", doc["detail"])


def test_readme_size_caps_table_matches_the_cap_table():
    # one README row per limit; a "≤ m" row covers every key up to m, and m
    # must be a key
    rows = {
        label: {k: n for k, n in row.items() if n is not None}
        for label, row, *_ in _CAPPED_ROUTES
        if label is not None
    }
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Size caps\n")[1]
    shown = {}
    for line in section.split("\n## ")[0].splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        row = rows.get(cells[0])
        if not line.startswith("|") or row is None:
            continue
        top = int(cells[1].removeprefix("≤ "))
        assert top in row, line
        keys = [k for k in row if k <= top] if cells[1].startswith("≤") else [top]
        for k in keys:
            assert (cells[0], k) not in shown, line
            shown[cells[0], k] = int(re.search(r"[0-9]+$", cells[2]).group())
    assert shown == {
        (label, k): n for label, row in rows.items() for k, n in row.items()
    }


def _refused_under_address_limit(argv: list[str], gigabytes: int) -> str:
    """Error name of a CLI child run under an address-space limit, which must
    exit 1 within 1 s with one JSON line: a regression that builds something
    huge fails in the child, not here."""
    probe = (
        "import resource, sys, time\n"
        f"limit = {gigabytes} << 30\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from fractalcensus.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.perf_counter() - start < 1)\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True,
        text=True,
        env=_env("1"),
    )
    assert done.returncode == 1
    assert done.stdout == "True\n"
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
    return json.loads(done.stderr)["error"]


@pytest.mark.parametrize("form", ["verify", "build"])
def test_huge_spike_half_size_is_refused_before_any_shift(form, tmp_path):
    # 1 << t at t = 2^40 would ask for 128 GB
    t = 1 << 40
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({"t": t, "picks": []}), encoding="utf-8")
    argv = {
        "verify": ["spike", "verify", "--k", "3", "--file", str(doc)],
        "build": ["spike", "build", "--t", str(t)],
    }[form]
    assert _refused_under_address_limit(argv, 3) == "TooLarge"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["gamma", "pk", "--k", "3", "--n", f"8..{1 << 40}"], "BoundTooLarge"),
        (["gamma", "sk", "--k", "2", "--t", "6..100000000"], "TooLarge"),
        (["gamma", "sk", "--k", "2", "--t", f"6..{1 << 40}"], "TooLarge"),
    ],
)
def test_huge_gamma_ranges_are_refused_before_any_row(argv, error):
    # the range's last size is checked before a list or set of it is built
    assert _refused_under_address_limit(argv, 2) == error


@pytest.mark.parametrize(
    "argv",
    [
        ["sk", "census", "--n", "8", "--k", "3"],
        ["gamma", "pk", "--k", "2", "--n", "6..7"],
        ["gamma", "sk", "--k", "2", "--t", "6..7"],
    ],
)
def test_sweeps_leave_numpy_ma_unimported(argv):
    # importing numpy.ma costs a CLI process 16-19 ms; np.unique and np.isin
    # pull it in, so the sweeps must not call them
    probe = (
        "import sys\n"
        "from fractalcensus.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True,
        text=True,
        env=_env("1"),
    )
    assert done.stderr.split() == ["0", "False"]


def test_package_import_leaves_numpy_unloaded():
    # the kernel names load on first use, so the CLI can pin numpy's BLAS
    # threads before numpy loads
    probe = (
        "import sys, fractalcensus\n"
        "print('numpy' in sys.modules)\n"
        "from fractalcensus import kernel\n"
        "print(all(getattr(fractalcensus, name) is getattr(kernel, name)\n"
        "          for name in fractalcensus.__all__))\n"
        "try:\n"
        "    fractalcensus.no_such_name\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_env("1")
    )
    assert done.stdout.split() == ["False", "True", "AttributeError"]
    assert len(fractalcensus.__all__) == 6


@pytest.mark.parametrize("exported, seen", [(None, "1"), ("2", "2")])
def test_cli_runs_one_blas_thread(exported, seen):
    # one OpenBLAS thread unless the user exported a count, and a
    # one-worker sweep never loads the process pool
    probe = (
        "import os, sys\n"
        "from fractalcensus.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1\n"
        "print(code, os.environ['OPENBLAS_NUM_THREADS'],\n"
        "      'concurrent.futures' in sys.modules, tasks, file=sys.stderr)\n"
    )
    env = _env("1")
    env.pop("OPENBLAS_NUM_THREADS", None)  # importing cli here set it
    if exported is not None:
        env["OPENBLAS_NUM_THREADS"] = exported
    done = subprocess.run(
        [sys.executable, "-c", probe, "sk", "census", "--n", "8", "--k", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    code, blas, pool, tasks = done.stderr.split()
    assert (code, blas, pool) == ("0", seen, "False")
    if exported is None:
        assert tasks == "1"  # no BLAS pool thread beside the main one


_NUMPY_PROBE = (
    "import gc, sys\n"
    "from fractalcensus import cli\n"
    "def loaded():\n"
    "    return any(name.startswith('numpy.') for name in sys.modules)\n"
    "def frozen():\n"
    "    return gc.get_freeze_count() > 0\n"
    "run = cli._run_matroid_validate\n"
    "def validate(args):\n"
    "    print('probe: handler', loaded(), gc.isenabled(), frozen(), file=sys.stderr)\n"
    "    return run(args)\n"
    "cli._run_matroid_validate = validate\n"
    "try:\n"
    "    code = cli.main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print('probe: exit', code, loaded(), frozen(), file=sys.stderr)\n"
)


@pytest.mark.parametrize(
    "argv, seen",
    [
        (["--help"], ["exit 0 False False"]),
        (["sp", "census", "--n", "8"], ["exit 2 False False"]),
        (["gamma", "pk", "--k", "1", "--n", "8-10"], ["exit 2 False False"]),
        (
            ["matroid", "validate", "--file"],
            ["handler True True True", "exit 0 True True"],
        ),
    ],
)
def test_numpy_loads_only_for_commands_that_compute(argv, seen, u24_file):
    # every module binds numpy lazily and main loads it after parsing, so
    # --help and usage errors run none of numpy's code, and a command loads
    # it before its handler runs; one eager `import numpy` fails the first two.
    # The load freezes the heap and hands the handler a running collector.
    if argv[-1] == "--file":
        argv = argv + [u24_file]
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *argv],
        capture_output=True,
        text=True,
        env=_env("1"),
    )
    lines = done.stderr.splitlines()
    assert [line[7:] for line in lines if line.startswith("probe: ")] == seen


# numpy's modules among the objects the collector still walks: gc.get_objects()
# lists the collected generations, never the frozen one
_UNFROZEN_NUMPY = (
    "import gc, sys, types\n"
    "def unfrozen_numpy():\n"
    "    return sum(isinstance(o, types.ModuleType)\n"
    "               and o.__name__.partition('.')[0] == 'numpy'\n"
    "               for o in gc.get_objects())\n"
)


def test_load_numpy_freezes_once_and_keeps_the_collector_state():
    # a caller with the collector off keeps it off; numpy's modules are
    # frozen with the rest, so the freeze came after the load; a second call
    # leaves the live objects made since then unfrozen
    probe = _UNFROZEN_NUMPY + (
        "from fractalcensus import _lazy\n"
        "gc.disable()\n"
        "_lazy.load_numpy()\n"
        "count = gc.get_freeze_count()\n"
        "print(gc.isenabled(), count > 0, unfrozen_numpy())\n"
        "keep = [[] for _ in range(1000)]\n"
        "_lazy.load_numpy()\n"
        "print(gc.isenabled(), gc.get_freeze_count() == count)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_env("1")
    )
    assert done.stdout.splitlines() == ["False True 0", "False True"]


def test_main_freezes_once_with_numpy_frozen(u24_file):
    # the first main loads numpy and freezes; the second finds it loaded
    probe = _UNFROZEN_NUMPY + (
        "from fractalcensus import cli\n"
        "keep = []\n"
        "for _ in range(2):\n"
        "    cli.main(['matroid', 'validate', '--file', sys.argv[1]])\n"
        "    keep.append([[] for _ in range(1000)])\n"
        "    print(gc.get_freeze_count(), unfrozen_numpy(), gc.isenabled())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, u24_file],
        capture_output=True,
        text=True,
        env=_env("1"),
    )
    out = done.stdout.splitlines()
    first, second = out[1].split(), out[3].split()
    assert int(first[0]) > 0 and first[1:] == ["0", "True"]
    assert second == first


def test_failed_numpy_load_turns_the_collector_back_on(tmp_path):
    # a numpy whose import raises: the collector runs again and nothing froze
    fake = tmp_path / "numpy"
    fake.mkdir()
    (fake / "__init__.py").write_text("raise ImportError('no numpy here')\n")
    probe = (
        "import gc\n"
        "from fractalcensus import _lazy\n"
        "try:\n"
        "    _lazy.load_numpy()\n"
        "except ImportError as exc:\n"
        "    print(exc, gc.isenabled(), gc.get_freeze_count())\n"
    )
    env = _env("1")
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert done.stdout == "no numpy here True 0\n"


def test_cli_import_loads_every_module():
    # bench/tracerun.py rebinds traced functions only in the modules that
    # `import fractalcensus.cli` has loaded, so cli keeps importing them all;
    # what the import adds is read as a difference, so a module that a site
    # hook loaded first is not counted
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import fractalcensus.cli\n"
        "print(*set(sys.modules) - before)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_env("1")
    )
    added = set(done.stdout.split())
    for module in ("kernel", "sparsepaving", "biasedlift", "gamma", "parallel"):
        assert f"fractalcensus.{module}" in added
    # the records are NamedTuples: dataclasses, and the inspect it pulls in,
    # cost every process several milliseconds
    assert not added & {"dataclasses", "inspect"}


def _env(threads: str) -> dict:
    # a child environment that imports this checkout's package
    src = str(Path(fractalcensus.__file__).resolve().parents[1])
    env = dict(os.environ, FRACTAL_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# int() would read "1_0" as 10 and an Arabic-Indic 2 as 2
@pytest.mark.parametrize("threads", ["abc", "0", "-1", "1_0", "\u0662"])
def test_bad_thread_count_exits_one(threads):
    argv = ["sp", "exminors", "--n", "6", "--k", "1"]
    done = subprocess.run(
        [sys.executable, "-m", "fractalcensus.cli", *argv],
        capture_output=True,
        text=True,
        env=_env(threads),
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert json.loads(done.stderr)["error"] == "BadThreadCount"


# ------------------------------------------------------------------ fuzz
#
# Every subcommand's argument grammar, with sizes and bounds drawn only
# where a run finishes well under a second (sp census k <= 4, sp exminors
# and gamma pk k <= 3 below ten elements, gamma sk k <= 4 up to t = 10).
# Bounds past a cap are drawn too: they exit 1 before any work.


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    docs = {
        "u24": matroid_to_json(uniform(2, 4)),
        "invalid": '{"n": 4, "rank": 2, "bases": [[0, 1], [2, 3]]}',
        "malformed": '{"n": 4, "rank": 2}',
    }
    for name, text in docs.items():
        (root / f"{name}.json").write_text(text, encoding="utf-8")
    (root / "binary.json").write_bytes(b"\xff\xfe")
    build = ["spike", "build", "--t", "4", "--picks", "0000,1100"]
    assert main([*build, "--out", str(root / "spike.json")]) == 0
    names = (*docs, "binary", "spike", "missing")
    return [str(root / f"{name}.json") for name in names], str(root)


def _or_malformed(valid, malformed):
    # one token in ten is malformed, so most runs get past the parser
    if not isinstance(malformed, st.SearchStrategy):
        malformed = st.sampled_from(malformed)
    return st.integers(0, 9).flatmap(lambda i: malformed if i == 0 else valid)


# any JSON value: every type a document field could hold by mistake
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text("01x"),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("nt", max_size=2), inner, max_size=2),
    max_leaves=5,
)


def _document_texts():
    # matroid, family and spike documents, any value of which may be
    # replaced by a JSON value of any type
    def mostly(values):
        return _or_malformed(values, _JSON)

    rows = mostly(st.lists(mostly(st.lists(mostly(st.integers(-1, 5)), max_size=4))))
    size = mostly(st.integers(0, 5))
    pick = mostly(st.integers(0, 31) | st.text("01", min_size=3, max_size=5))
    picks = mostly(st.lists(pick, max_size=3))
    return st.one_of(
        st.fixed_dictionaries({"n": size, "rank": size, "bases": rows}),
        st.fixed_dictionaries({"n": size, "rank": size, "chs": rows}),
        st.fixed_dictionaries({"t": mostly(st.integers(3, 5)), "picks": picks}),
    ).map(json.dumps)


def _int_arg(lo: int, hi: int, *capped: int):
    ints = st.integers(lo, hi)
    if capped:
        ints |= st.sampled_from(capped)
    return _or_malformed(ints.map(str), ["x", "", "1.5"])


def _range_arg(lo: int, hi: int):
    pair = st.tuples(st.integers(lo, hi), st.integers(0, 2)).map(
        lambda p: f"{p[0]}..{min(p[0] + p[1], hi)}"
    )
    return _or_malformed(pair, ["3..1", "1-3", "a..b", "5"])


def _spike_args(t: int):
    # picks of about t characters, so some builds are well-formed
    pick = st.text("012", min_size=max(t - 1, 0), max_size=max(t + 1, 0))
    picks = st.lists(pick, max_size=3).map(",".join)
    return picks.map(lambda p: ["--t", str(t), "--picks", p])


def _command(words: str, *flags):
    # flags are (name, values) pairs; a drawn None leaves the flag out
    def join(values):
        argv = words.split()
        for (name, _), value in zip(flags, values):
            if value is not None:
                argv += [name, value]
        return argv

    return st.tuples(*(values for _, values in flags)).map(join)


def _grammar(files: list[str], root: str, drawn: str):
    file = st.sampled_from(files) | st.just(drawn)
    out = ("--out", st.sampled_from([None, None, f"{root}/out.txt", f"{root}/no/x"]))
    elems = st.lists(st.integers(-1, 5).map(str), max_size=3).map(",".join)
    elems = _or_malformed(elems, ["x", "1,,2"])
    spike_build = st.tuples(
        _command("spike build", out), st.integers(-1, 6).flatmap(_spike_args)
    ).map(lambda parts: parts[0] + parts[1])
    return st.one_of(
        _command("matroid validate", ("--file", file)),
        _command("matroid iso", ("--a", file), ("--b", file)),
        _command(
            "matroid minor",
            ("--file", file),
            ("--delete", elems),
            ("--contract", elems),
            out,
        ),
        _command("matroid dual", ("--file", file), out),
        _command("sp census", ("--n", _int_arg(-2, 12)), ("--k", _int_arg(-1, 4)), out),
        _command(
            "sp exminors", ("--n", _int_arg(-2, 9)), ("--k", _int_arg(-1, 3, 5)), out
        ),
        spike_build,
        _command(
            "spike verify",
            ("--file", file),
            ("--k", _int_arg(-1, 3)),
            ("--mode", st.sampled_from(["auto", "full", "structural", "fast"])),
        ),
        _command(
            "sk census",
            ("--n", _int_arg(-1, 11)),
            ("--k", _int_arg(-1, 7)),
            ("--mode", st.sampled_from(["exact", "strata"])),
            out,
        ),
        _command(
            "sk exminors", ("--t", _int_arg(-1, 12)), ("--k", _int_arg(-1, 8)), out
        ),
        _command(
            "gamma pk", ("--k", _int_arg(-1, 3, 5)), ("--n", _range_arg(-2, 9)), out
        ),
        _command(
            "gamma sk", ("--k", _int_arg(-1, 4, 7)), ("--t", _range_arg(-1, 10)), out
        ),
        _command(
            "slope",
            ("--source", st.sampled_from(["eqn1", "eqn2"])),
            ("--k", _int_arg(-2, 4)),
            ("--range", _range_arg(-2, 16)),
            ("--window", st.none() | _range_arg(-2, 16)),
        ),
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_contract_fuzz(fuzz_files, data):
    files, root = fuzz_files
    drawn = Path(root) / "drawn.json"
    text = data.draw(_document_texts())
    drawn.write_text(text, encoding="utf-8")
    for reader in (matroid_from_json, chfamily_from_json, spikespec_from_json):
        try:
            reader(text)
        except MatroidError:
            pass
    argv = data.draw(_grammar(files, root, str(drawn)))
    threads = data.draw(st.sampled_from(["1", "2", "0", "abc"]))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"FRACTAL_THREADS": threads}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2
                code = 2
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 1 and argv[:2] == ["spike", "verify"] and not err:
        # a spike that is not an excluded minor: the verdict, on stdout
        assert json.loads(out)["excluded_minor"] is False
    elif code == 1:
        assert out == ""
        assert len(err.splitlines()) == 1
        assert set(json.loads(err)) == {"error", "detail"}
