"""Command-line dispatch, exit codes, and output formats."""
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fractalcensus
from fractalcensus.cli import main
from fractalcensus.kernel import matroid_from_json, matroid_to_json, uniform
from fractalcensus.biasedlift import spike


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


def _exit_one(argv, capsys) -> str:
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    return json.loads(captured.err)["error"]


def test_bad_element_lists_exit_cleanly(u24_file, capsys):
    argv = ["matroid", "minor", "--file", u24_file]
    assert _exit_one(argv + ["--delete", "x"], capsys) == "BadElementList"
    assert _exit_one(argv + ["--delete", "-1"], capsys) == "OutOfRange"
    assert _exit_one(argv + ["--contract", "4"], capsys) == "OutOfRange"


def test_missing_files_exit_cleanly(u24_file, tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    argv = ["matroid", "validate", "--file", missing]
    assert _exit_one(argv, capsys) == "UnreadableFile"
    argv = ["matroid", "iso", "--a", missing, "--b", u24_file]
    assert _exit_one(argv, capsys) == "UnreadableFile"
    argv = ["matroid", "iso", "--a", u24_file, "--b", missing]
    assert _exit_one(argv, capsys) == "UnreadableFile"


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


def test_slope_json(capsys):
    assert main(["slope", "--source", "eqn1", "--k", "3", "--range", "60..120"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["source"] == "eqn1"
    assert abs(doc["exponent"] - 9) < 1.0
    assert doc["window"] == [60, 120]


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
    assert _exit_one(argv, capsys) == "SizeOverflow"


def test_unwritable_out_exits_cleanly(u24_file, tmp_path, capsys):
    target = str(tmp_path / "missing-dir" / "x.json")
    argv = ["matroid", "dual", "--file", u24_file, "--out", target]
    assert _exit_one(argv, capsys) == "UnwritableFile"
    argv = ["spike", "build", "--t", "4", "--picks", "0011,1100", "--out", target]
    assert _exit_one(argv, capsys) == "UnwritableFile"


@pytest.mark.parametrize(
    "argv",
    [
        ["sp", "census", "--n", "-3", "--k", "2"],
        ["sp", "census", "--n", "6", "--k", "-1"],
        ["slope", "--source", "eqn1", "--k", "-2", "--range", "1..10"],
        ["slope", "--source", "eqn1", "--k", "-1", "--range", "1..10"],
        ["sp", "exminors", "--n", "-5", "--k", "2"],
    ],
)
def test_negative_sizes_and_bounds_exit_cleanly(argv, capsys):
    assert _exit_one(argv, capsys) == "OutOfRange"


def test_gamma_sk_keeps_strata_bound_cap(capsys):
    argv = ["gamma", "sk", "--k", "7", "--t", "6..7"]
    assert _exit_one(argv, capsys) == "TooLarge"


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "sk", "--k", "2", "--t", "256..256"],
        ["sk", "census", "--n", "512", "--k", "2", "--mode", "strata"],
    ],
)
def test_strata_size_cap(argv, capsys):
    assert _exit_one(argv, capsys) == "TooLarge"


def test_sp_census_size_cap(capsys):
    argv = ["sp", "census", "--n", "257", "--k", "2"]
    assert _exit_one(argv, capsys) == "BoundTooLarge"


@pytest.mark.parametrize("t, k", [(18, 8), (20, 9), (22, 10)])
def test_sk_exminors_bound_cap(t, k, capsys):
    # k + 1 picks past the 8-index permutation tables
    argv = ["sk", "exminors", "--t", str(t), "--k", str(k)]
    assert _exit_one(argv, capsys) == "TooLarge"


@pytest.mark.parametrize(
    "argv",
    [
        ["sp", "exminors", "--n", "8", "--k", "5"],
        ["gamma", "pk", "--k", "5", "--n", "8..8"],
    ],
)
def test_exminor_sweep_bound_cap(argv, capsys):
    assert _exit_one(argv, capsys) == "BoundTooLarge"


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
    assert len(fractalcensus.__all__) == 7


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


def test_cli_import_loads_every_module():
    # bench/tracerun.py rebinds traced functions only in the modules that
    # `import fractalcensus.cli` has loaded, so cli keeps importing them all
    probe = "import sys, fractalcensus.cli\nprint(*sys.modules)\n"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_env("1")
    )
    loaded = set(done.stdout.split())
    for module in ("kernel", "sparsepaving", "biasedlift", "gamma", "parallel"):
        assert f"fractalcensus.{module}" in loaded


def _env(threads: str) -> dict:
    # a child environment that imports this checkout's package
    src = str(Path(fractalcensus.__file__).resolve().parents[1])
    env = dict(os.environ, FRACTAL_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("threads", ["abc", "0", "-1"])
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
    return st.integers(0, 9).flatmap(
        lambda i: st.sampled_from(malformed) if i == 0 else valid
    )


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


def _grammar(files: list[str], root: str):
    file = st.sampled_from(files)
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
    argv = data.draw(_grammar(*fuzz_files))
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
