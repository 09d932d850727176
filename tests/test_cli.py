"""Command-line front end: dispatch, exit codes, reports, determinism, batch."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E1_DOC, SUBSIDY_DOC
from iotax.cli import main

CLEAR_DOC = {"A": [[1.0, 2.0], [2.0, 4.0]], "b": [1.0, 1.0]}


@pytest.fixture
def e1_path(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(E1_DOC))
    return path


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_tax_perfect_report(tmp_path, e1_path, capsys):
    out = tmp_path / "report.json"
    code = main(["tax-perfect", "--economy", str(e1_path), "--scale-b", "1.0",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pi"] == [0.5, 0.5]
    assert report["p"] == [0.5, 0.5]
    assert report["delta"] == [0.25, 0.25]
    stdout = capsys.readouterr().out
    assert "industry" in stdout


def test_check_tax_rejects_markup_failure(tmp_path, e1_path, capsys):
    pi_path = _write(tmp_path, "pi.json", [0.9, 0.1])
    code = main(["check-tax", "--economy", str(e1_path), "--pi", str(pi_path)])
    assert code == 2
    assert "markup" in capsys.readouterr().out


def test_check_tax_accepts(tmp_path, e1_path):
    pi_path = _write(tmp_path, "pi.json", [0.5, 0.5])
    code = main(["check-tax", "--economy", str(e1_path), "--pi", str(pi_path)])
    assert code == 0


def test_clear_raw_instance(tmp_path, capsys):
    doc = _write(tmp_path, "clear.json", CLEAR_DOC)
    out = tmp_path / "clear_report.json"
    code = main(["clear", "--economy", str(doc), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["R"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report["I"] == [2]
    assert report["J"] == [1]
    assert report["verified"] is True
    assert [row["ok"] for row in report["rows"]] == [True, True]
    assert report["rows"][0]["demand"] == pytest.approx(0.5, abs=1e-9)


def test_clear_accepts_a_tiny_exact_price(tmp_path):
    doc = _write(tmp_path, "tiny.json", {"A": [[0.5, 0.5], [1e-14, 0.5]], "b": [2, 1]})
    out = tmp_path / "tiny_report.json"
    assert main(["clear", "--economy", str(doc), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verified"] is True
    assert report["p"][0] / report["p"][1] == pytest.approx(2e-14, rel=1e-9)


def test_clear_reads_the_economy_once(tmp_path, e1_path, monkeypatch):
    # An economy plus --pi gives the report of the raw document with
    # b = (1 - pi) o x, and the economy file is read and parsed once.
    import iotax.model

    reads = []
    read_text = iotax.model._read_text
    monkeypatch.setattr(iotax.model, "_read_text",
                        lambda path, *a: reads.append(Path(path)) or read_text(path, *a))
    via_pi = tmp_path / "via_pi.json"
    pi_path = _write(tmp_path, "pi.json", [0.5, 0.5])
    assert main(["clear", "--economy", str(e1_path), "--pi", str(pi_path),
                 "--out", str(via_pi)]) == 0
    assert reads.count(e1_path) == 1
    raw = _write(tmp_path, "raw.json", {"A": E1_DOC["A"], "b": [1.0, 1.0]})
    direct = tmp_path / "direct.json"
    assert main(["clear", "--economy", str(raw), "--out", str(direct)]) == 0
    assert via_pi.read_text() == direct.read_text()


def test_clear_with_user_solution(tmp_path):
    doc = _write(tmp_path, "clear.json", CLEAR_DOC)
    z_path = _write(tmp_path, "z.json", [0.0, 0.25])
    out = tmp_path / "clear_report.json"
    code = main(["clear", "--economy", str(doc), "--z", str(z_path), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["p"] == [0.0, 1.0]
    assert report["p_u"] == [2.0, 1.0]


def test_default_command_is_report(tmp_path, e1_path):
    out = tmp_path / "default.json"
    code = main(["--economy", str(e1_path), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["command"] == "report"
    assert report["excess_supply"] == 0.0
    assert report["productive"] is True


def test_report_mixed_regime_includes_subsidies(tmp_path):
    path = _write(tmp_path, "subsidy.json", SUBSIDY_DOC)
    out = tmp_path / "subsidy_report.json"
    code = main(["report", "--economy", str(path), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["regime"] == "mixed"
    assert [1, 0.125] in report["subsidies"]
    assert report["excess_supply"] == pytest.approx(0.0, abs=1e-12)


def test_subsidies_command(tmp_path, capsys):
    path = _write(tmp_path, "subsidy.json", SUBSIDY_DOC)
    code = main(["subsidies", "--economy", str(path)])
    assert code == 0
    assert "industry 1: 0.125" in capsys.readouterr().out


def test_subsidies_rejected_when_none_needed(tmp_path, e1_path, capsys):
    code = main(["subsidies", "--economy", str(e1_path)])
    assert code == 2
    assert "no industry needs subsidies" in capsys.readouterr().err


def test_validate_rejects_unbalanced(tmp_path):
    path = _write(tmp_path, "bad.json", dict(E1_DOC, c=[2.0, 2.0]))
    assert main(["validate", "--economy", str(path)]) == 2


def test_validate_accepts_balanced(e1_path):
    assert main(["validate", "--economy", str(e1_path)]) == 0


def test_classify_command(tmp_path, e1_path, capsys):
    z_path = _write(tmp_path, "z.json", {"z": [3.0, 2.0]})
    code = main(["classify", "--economy", str(e1_path), "--z", str(z_path)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "[2]" in stdout  # industry 2 in I
    assert "[1]" in stdout  # industry 1 in J


def test_missing_economy_flag_is_input_error(capsys):
    assert main(["validate"]) == 1
    assert "required" in capsys.readouterr().err


def test_missing_file_is_input_error(tmp_path, capsys):
    assert main(["validate", "--economy", str(tmp_path / "nope.json")]) == 1


def test_missing_required_vector_flag(tmp_path, e1_path, capsys):
    assert main(["check-tax", "--economy", str(e1_path)]) == 1
    assert "--pi" in capsys.readouterr().err


def test_malformed_document_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["validate", "--economy", str(path)]) == 1


def test_byte_identical_reports(tmp_path, e1_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["report", "--economy", str(e1_path), "--out", str(out1)]) == 0
    assert main(["report", "--economy", str(e1_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_scenario_through_cli(tmp_path):
    matrix = tmp_path / "econ.csv"
    matrix.write_text("0,0.5\n0.5,0\n")
    sidecar = tmp_path / "econ.json"
    sidecar.write_text(json.dumps({k: v for k, v in E1_DOC.items() if k != "A"}))
    assert main(["validate", "--economy", str(matrix)]) == 0


def test_batch_mode(tmp_path, capsys):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    _write(scenarios, "one.json", E1_DOC)
    _write(scenarios, "two.json", dict(E1_DOC, c=[2.0, 2.0]))  # unbalanced
    out_dir = tmp_path / "reports"
    code = main(["validate", "--batch", str(scenarios), "--out", str(out_dir)])
    assert code == 2  # worst exit across scenarios
    stdout = capsys.readouterr().out
    assert "one.json (exit 0)" in stdout
    assert "two.json (exit 2)" in stdout
    assert (out_dir / "one.report.json").exists()
    assert (out_dir / "two.report.json").exists()


def test_module_entry_point(tmp_path, e1_path):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "iotax", "validate", "--economy", str(e1_path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "productive: True" in result.stdout


def test_twelve_significant_digits(tmp_path):
    doc = _write(tmp_path, "e2.json",
                 {"A": [[0.2, 0.3], [0.4, 0.1]], "x": [10.0, 10.0],
                  "c": [5.0, 5.0], "e": [0.0, 0.0], "i": [0.0, 0.0]})
    out = tmp_path / "e2_report.json"
    assert main(["tax-perfect", "--economy", str(doc), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["p"][0] == pytest.approx(4.0 / 7.0, abs=1e-11)
    assert report["p"][0] == float(f"{report['p'][0]:.12g}")


@pytest.mark.parametrize("case", [
    "nan-z-subsidies", "nan-z-classify", "non-numeric-pi", "non-utf8-document",
    "directory-economy", "out-in-missing-directory", "batch-out-is-a-file", "short-pi-clear",
    "unparseable-tol", "removed-damping-flag",
])
def test_boundary_errors_exit_1_with_one_line(tmp_path, e1_path, capsys, case):
    nan_z = _write(tmp_path, "z.json", [float("nan"), 1.0])
    word_pi = _write(tmp_path, "pi.json", [0.5, "half"])
    short_pi = _write(tmp_path, "short_pi.json", [0.5])
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps(E1_DOC).encode() + b" \xe9")
    argv = {
        "nan-z-subsidies": ["subsidies", "--economy", e1_path, "--z", nan_z],
        "nan-z-classify": ["classify", "--economy", e1_path, "--z", nan_z],
        "non-numeric-pi": ["check-tax", "--economy", e1_path, "--pi", word_pi],
        "non-utf8-document": ["validate", "--economy", latin1],
        "directory-economy": ["validate", "--economy", tmp_path],
        "out-in-missing-directory": ["validate", "--economy", e1_path,
                                     "--out", tmp_path / "missing" / "report.json"],
        "batch-out-is-a-file": ["validate", "--batch", tmp_path, "--out", e1_path],
        # A length-1 rate vector must not broadcast over every industry.
        "short-pi-clear": ["clear", "--economy", e1_path, "--pi", short_pi],
        # Command-line errors get the same one line instead of the usage text.
        "unparseable-tol": ["validate", "--economy", e1_path, "--tol", "abc"],
        "removed-damping-flag": ["validate", "--economy", e1_path, "--damping", "0.5"],
    }[case]
    assert main([str(arg) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    if case == "short-pi-clear":
        assert "length 1, expected 2" in captured.err
    if case == "unparseable-tol":
        assert "invalid float value: 'abc'" in captured.err


# Balanced, irreducible and productive, but eliminating industry 0 leaves
# industry 1 an outflow of 1e-400, which is 0.0 in floating point.
UNDERFLOW_DOC = {"A": [[0.0, 0.5, 5e-201], [5e-201, 0.5, 0.0], [0.0, 0.5, 0.0]],
                 "x": [1.0, 1.0, 1.0], "c": [0.5, 0.5, 0.5],
                 "e": [0.0, 0.0, 0.0], "i": [0.0, 0.0, 0.0]}
# A row sum above one: A z overflows at z near the largest double.
WIDE_DOC = {"A": [[0.6, 0.6], [0.1, 0.1]], "x": [10.0, 10.0], "c": [-2.0, 8.0],
            "e": [0.0, 0.0], "i": [0.0, 0.0]}


@pytest.mark.parametrize("case", ["overflowing-cost", "underflowing-elimination"])
def test_numeric_breakdowns_exit_2_with_one_line(tmp_path, capsys, case):
    if case == "overflowing-cost":
        argv = ["classify", "--economy", _write(tmp_path, "wide.json", WIDE_DOC),
                "--z", _write(tmp_path, "z.json", [1.79e308, 1.79e308])]
        message = "overflows"
    else:
        argv = ["report", "--economy", _write(tmp_path, "under.json", UNDERFLOW_DOC)]
        message = "underflowed"
    assert main([str(arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("rejected: ") and message in captured.err


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: iotax") and "--tol TOL" in captured.out
    assert captured.err == ""


# Malformed inputs for the property test below.  Every draw is wrong in a
# way the CLI must reject; valid neighbours (a numeric string such as "1",
# a boolean inside a list) are left out because numpy reads them as numbers.
_NUMBER = st.floats(allow_nan=False, allow_infinity=False, width=32)
_WORD = st.text(alphabet="abcdxyz", min_size=1, max_size=4)
_NOT_NUMBER = st.none() | _WORD | st.dictionaries(_WORD, _NUMBER, max_size=2)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_BAD_ANY = st.one_of(  # wrong for a vector and for a matrix
    _NOT_NUMBER,
    _NUMBER,
    st.tuples(_NUMBER, _NON_FINITE | _NOT_NUMBER).map(list),
)
_BAD_VECTOR = st.one_of(
    _BAD_ANY,
    st.lists(_NUMBER, max_size=4).filter(lambda v: len(v) != 2),
    st.lists(st.lists(_NUMBER, min_size=1, max_size=2), min_size=2, max_size=2),
)
_BAD_MATRIX = st.one_of(
    _BAD_ANY,
    st.lists(_NUMBER, max_size=4),
    st.lists(st.lists(_NUMBER, min_size=2, max_size=2), max_size=4).filter(lambda m: len(m) != 2),
    st.just([[0.0, 0.5], [0.5]]),
    _NON_FINITE.map(lambda v: [[0.0, v], [0.5, 0.0]]),
    st.floats(max_value=-1e-6, allow_infinity=False).map(lambda v: [[0.0, v], [0.5, 0.0]]),
)
_BAD_OUTPUT = st.tuples(st.floats(max_value=0.0, allow_infinity=False), st.just(2.0)).map(list)
_NO_VECTOR_COMMANDS = ["validate", "tax-perfect", "classify", "subsidies", "report"]


def _malformed_argv(data, tmp: Path) -> list[str]:
    economy = tmp / "economy.json"
    economy.write_text(json.dumps(E1_DOC))
    kind = data.draw(st.sampled_from(
        ["document", "field", "vector", "flag", "scale", "path", "out"]))
    if kind == "document":
        economy.write_bytes(data.draw(
            st.binary(max_size=40) | st.text(max_size=40).map(str.encode)))
        command = data.draw(st.sampled_from(_NO_VECTOR_COMMANDS + ["clear"]))
        return [command, "--economy", str(economy)]
    if kind == "field":
        key = data.draw(st.sampled_from(["A", "x", "c", "e", "i"]))
        value = data.draw({"A": _BAD_MATRIX, "x": _BAD_VECTOR | _BAD_OUTPUT}.get(key, _BAD_VECTOR))
        economy.write_text(json.dumps(dict(E1_DOC, **{key: value})))
        return [data.draw(st.sampled_from(_NO_VECTOR_COMMANDS)), "--economy", str(economy)]
    if kind == "vector":
        command, flag = data.draw(st.sampled_from([
            ("subsidies", "--z"), ("classify", "--z"), ("tax-sustainable", "--z"),
            ("check-tax", "--pi"), ("classify", "--pi"), ("clear", "--pi")]))
        vector = tmp / "vector.json"
        vector.write_bytes(data.draw(st.one_of(
            _BAD_VECTOR.map(lambda v: json.dumps(v).encode()),
            st.text(alphabet="abcxyz{}[]:,\" ", max_size=12).map(str.encode),
            st.binary(max_size=12).map(lambda raw: b"\xff" + raw),
        )))
        return [command, "--economy", str(economy), flag, str(vector)]
    if kind == "flag":
        # Values argparse parses but the solver rejects, values argparse
        # cannot parse, and flags it does not know.
        option = data.draw(st.one_of(
            (st.floats(max_value=0.0) | st.just(math.nan)).map(lambda v: f"--tol={v!r}"),
            st.sampled_from(["--tol=abc", "--scale-b=x", "--tol=", "--scale-b=1,5"]),
            st.sampled_from(["--max-iter=10", "--damping=0.5", "--verbose"]),
            _WORD.map(lambda word: f"--no-{word}"),
        ))
        command = data.draw(st.sampled_from(_NO_VECTOR_COMMANDS))
        return [command, "--economy", str(economy), option]
    if kind == "scale":
        # E1 admits scale constants in the open interval (0, 2).
        value = data.draw(st.floats(max_value=0.0) | st.floats(min_value=2.0) | st.just(math.nan))
        command = data.draw(st.sampled_from(["tax-perfect", "report"]))
        return [command, "--economy", str(economy), f"--scale-b={value!r}"]
    if kind == "path":
        command = data.draw(st.sampled_from(_NO_VECTOR_COMMANDS + ["clear"]))
        target = data.draw(st.sampled_from([tmp, tmp / "missing.json"]))
        return [command, "--economy", str(target)]
    command = data.draw(st.sampled_from(["validate", "tax-perfect", "classify", "report"]))
    return [command, "--economy", str(economy), "--out", str(tmp / "missing" / "out.json")]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_malformed_input_gets_one_line_typed_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = _malformed_argv(data, Path(tmp))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (1, 2), argv
    assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()
