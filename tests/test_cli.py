"""Command-line dispatch, exit codes, and output formats."""
import json

import pytest

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
