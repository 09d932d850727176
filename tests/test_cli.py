"""Command-line front end: dispatch, exit codes, reports, determinism, batch."""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E1_DOC, SUBSIDY_DOC, random_irreducible_productive
from iotax import SolverConfig, analyze_matrix, demand_regime, load_economy
from iotax import cli
from iotax.cli import main
from iotax.errors import DomainError, ParseError

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


@pytest.mark.parametrize("fraction", [1e-8, 1e-14])
def test_report_clears_exactly_at_a_small_scale(tmp_path, fraction):
    # A small --scale-b puts every rate pi = 1 - scale_b (A x) / x near 1, so
    # forming the retained value (1 - pi) o x from the rates cancels; the
    # constructed system still clears exactly: (1 - pi) o x = scale_b (A x).
    rng = np.random.default_rng(5)
    out = tmp_path / "report.json"
    for n in (4, 10, 30):
        for _ in range(13):
            A = random_irreducible_productive(rng, n)
            f = rng.uniform(0.5, 1.5, size=n)
            x = np.linalg.solve(np.eye(n) - A, f)
            path = _write(tmp_path, "economy.json", {"A": A.tolist(), "x": x.tolist(),
                                                     "c": f.tolist(), "e": [0.0] * n,
                                                     "i": [0.0] * n})
            scale = fraction * float(np.min(x / (A @ x)))
            assert main(["report", "--economy", str(path), f"--scale-b={scale!r}",
                         "--out", str(out)]) == 0
            assert abs(json.loads(out.read_text())["excess_supply"]) <= 1e-12


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


def test_cold_start_loads_neither_optimize_nor_sparse(e1_path):
    # NNLS (scipy.optimize), the strong-component labelling (scipy.sparse)
    # and the QP's LAPACK solve (scipy.linalg) are imported on first use;
    # neither importing the CLI nor a report on a balanced economy may load
    # them.
    import subprocess
    import sys

    import iotax

    script = """
import contextlib, io, json, sys
import iotax, iotax.cli

def deferred():
    return sorted(m for m in sys.modules if m.startswith(("scipy.optimize", "scipy.sparse")))

imported = deferred()
with contextlib.redirect_stdout(io.StringIO()):
    code = iotax.cli.main(["report", "--economy", sys.argv[1]])
print(json.dumps({"import": imported, "report": deferred(), "code": code,
                  "linalg": "scipy.linalg" in sys.modules}))
"""
    src = str(Path(iotax.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", script, str(e1_path)], capture_output=True,
                            text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert loaded == {"import": [], "report": [], "code": 0, "linalg": False}


def _every_command(tmp_path, e1_path):
    """Argument lists of every command but clear on an irreducible
    mixed-regime economy of 20 industries (more than one leaf of the price
    elimination), then of clear on a raw document, on an economy with --pi
    and on an instance whose restricted price chain is reducible, written to
    ``tmp_path`` with the flags' files."""
    rng = np.random.default_rng(12)
    A = random_irreducible_productive(rng, 20)
    f = rng.uniform(0.5, 1.5, size=20)
    f[3] = -0.05  # industry 4 runs on subsidies
    x = np.linalg.solve(np.eye(20) - A, f)
    assert np.all(x > 0)
    economy = _write(tmp_path, "economy.json", {"A": A.tolist(), "x": x.tolist(), "c": f.tolist(),
                                                "e": [0.0] * 20, "i": [0.0] * 20})
    generator = np.linalg.solve(np.eye(20) - A, rng.uniform(0.2, 1.0, size=20))  # z > A z
    w = A @ generator
    pi = _write(tmp_path, "pi.json", (1.0 - 0.5 * float(np.min(x / w)) * w / x).tolist())
    z = _write(tmp_path, "z.json", generator.tolist())
    extra = {"check-tax": ["--pi", str(pi)], "classify": ["--z", str(z)]}
    commands = [[command, "--economy", str(economy), *extra.get(command, [])]
                for command in ("report", "validate", "tax-perfect", "check-tax", "classify",
                                "subsidies")]
    clear_pi = _write(tmp_path, "clear_pi.json", [0.5, 0.5])
    clears = [["clear", "--economy", str(_write(tmp_path, "clear.json", CLEAR_DOC))],
              ["clear", "--economy", str(e1_path), "--pi", str(clear_pi)],
              ["clear", "--economy", str(_write(tmp_path, "reducible.json", REDUCIBLE_CLEAR_DOC))]]
    return commands, clears


# Clears rows 1 and 2, whose restricted price chain holds two closed classes.
REDUCIBLE_CLEAR_DOC = {"A": [[0.5, 0.0, 0.2], [0.0, 0.5, 0.2], [0.0, 0.0, 0.5]],
                       "b": [1.0, 1.0, 3.0]}


_RUN_COMMANDS = """
import contextlib, io, json, sys
from pathlib import Path
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # every import of scipy now raises ImportError
import iotax.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m])

def run(argvs):
    for argv in argvs:
        out = Path(sys.argv[3]) / f"{len(results)}.json"
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            code = iotax.cli.main(argv + ["--out", str(out)])
        results.append([code, text.getvalue(), out.read_text() if out.exists() else None])

results = []
commands, clears = json.loads(sys.argv[2])
run(commands)
loaded = scipy_modules()
run(clears)
print(json.dumps({"results": results, "scipy": loaded, "after_clear": scipy_modules()}))
"""


def test_every_command_runs_without_scipy(tmp_path, e1_path, monkeypatch):
    # Every command runs on NumPy alone: with scipy unimportable in a fresh
    # interpreter, exit codes, output text and --out files are those of an
    # unblocked run, which loads no scipy module either, clear included.
    import subprocess
    import sys

    import iotax
    from iotax import equilibrium

    commands, clears = _every_command(tmp_path, e1_path)
    labelled = []
    label = equilibrium.connected_components
    monkeypatch.setattr(equilibrium, "connected_components",
                        lambda *a: labelled.append(1) or label(*a))
    assert main(clears[2]) == 0 and labelled  # the reducible chain is labelled
    src = str(Path(iotax.__file__).resolve().parent.parent)
    runs = {}
    for mode in ("blocked", "unblocked"):
        out = tmp_path / mode
        out.mkdir()
        result = subprocess.run(
            [sys.executable, "-c", _RUN_COMMANDS, mode, json.dumps([commands, clears]), str(out)],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr
        runs[mode] = json.loads(result.stdout)
    blocked, unblocked = runs["blocked"], runs["unblocked"]
    assert blocked["results"] == unblocked["results"]
    assert [code for code, _, _ in blocked["results"]] == [0] * 9
    assert blocked["scipy"] == unblocked["scipy"] == []
    assert blocked["after_clear"] == unblocked["after_clear"] == []


def _run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call(tmp_path, e1_path):
    # In one process, flags given and then left out, an unparseable value
    # and an unknown flag leave nothing behind: every call's exit code,
    # output and --out bytes equal those of a call on a freshly built parser.
    commands, clears = _every_command(tmp_path, e1_path)
    economy = commands[0][2]
    e1 = str(e1_path)
    argvs = [
        ["tax-perfect", "--economy", e1, "--scale-b", "1.0", "--out"],
        [*commands[3], "--out"],  # check-tax --pi
        [*commands[4], "--out"],  # classify --z
        [*clears[1], "--tol", "1e-8", "--out"],  # clear --pi
        ["tax-perfect", "--economy", e1],
        ["check-tax", "--economy", economy],  # --pi left out: an error, not the last --pi
        ["report", "--economy", economy, "--out"],
        ["report", "--economy", e1, "--tol", "abc"],
        ["report", "--economy", e1, "--bogus", "--out"],
        ["--economy", e1, "--out"],
    ]
    runs = {}
    for mode in ("cached", "fresh"):
        cli.build_parser.cache_clear()
        parser = cli.build_parser()
        state = repr(vars(parser))
        results = []
        for k, argv in enumerate(argvs):
            if mode == "fresh":
                cli.build_parser.cache_clear()
            out = tmp_path / f"{mode}-{k}.json"
            if argv[-1] == "--out":
                argv = [*argv, str(out)]
            code, stdout, stderr = _run_main(argv)
            results.append((code, stdout, stderr, out.read_bytes() if out.exists() else None))
        if mode == "cached":
            assert cli.build_parser() is parser
            assert repr(vars(parser)) == state
        runs[mode] = results
    assert runs["cached"] == runs["fresh"]
    codes = [code for code, *_ in runs["cached"]]
    assert codes == [0, 0, 0, 0, 0, 1, 0, 1, 1, 0]
    assert [out is not None for *_, out in runs["cached"]] == [True] * 4 + [False] * 2 + [
        True, False, False, True]
    assert runs["cached"][7][2] == "error: argument --tol: invalid float value: 'abc'\n"
    assert runs["cached"][8][2] == "error: unrecognized arguments: --bogus\n"


def test_parse_args_returns_a_fresh_namespace():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["check-tax", "--economy", "e.json", "--pi", "pi.json"])
    with pytest.raises(ParseError, match="invalid float value"):
        parser.parse_args(["--scale-b", "x"])
    second = parser.parse_args(["check-tax", "--economy", "e.json"])
    assert second is not first
    assert first.pi_path == Path("pi.json") and second.pi_path is None


def test_importing_the_cli_builds_no_parser():
    import subprocess
    import sys

    import iotax

    script = """
import contextlib, io, sys
import iotax.cli
built = [iotax.cli.build_parser.cache_info().currsize]
with contextlib.redirect_stderr(io.StringIO()):
    iotax.cli.main(["validate"])
built.append(iotax.cli.build_parser.cache_info().currsize)
print(built)
"""
    src = str(Path(iotax.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 1]"


def test_vanishing_outflow_is_one_error_line(tmp_path):
    # A balanced economy whose price chain has a subnormal outflow (1e-310):
    # one stderr line naming the underflow, no NumPy warning before it.  Run
    # in a fresh interpreter, where warnings print as they would for a user.
    import subprocess
    import sys

    eps = 1e-155
    A = 0.5 * np.array([[0.0, 1.0, eps], [eps, 1.0, 0.0], [0.0, 1.0, 0.0]])
    doc = _write(tmp_path, "economy.json", {"A": A.tolist(), "x": [1.0] * 3,
                                            "c": (1.0 - A.sum(axis=1)).tolist(),
                                            "e": [0.0] * 3, "i": [0.0] * 3})
    z = _write(tmp_path, "z.json", [1.0, 1.0, 1.0])
    result = subprocess.run(
        [sys.executable, "-m", "iotax", "classify", "--economy", str(doc), "--z", str(z)],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert "underflowed" in result.stderr


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


E1_UNBALANCED_DOC = dict(E1_DOC, c=[1.2, 1.0])  # balance residual 0.2 in industry 0


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_non_finite_or_non_positive_tol_is_rejected(tmp_path, capsys, tol):
    model = load_economy(E1_DOC)
    with pytest.raises(DomainError, match="positive and finite"):
        SolverConfig(tol=tol)
    with pytest.raises(DomainError, match="positive and finite"):
        analyze_matrix(model.A, tol=tol)
    with pytest.raises(DomainError, match="positive and finite"):
        demand_regime(model, tol)
    # An infinite --tol must not switch the balance gate off.
    doc = _write(tmp_path, "unbalanced.json", E1_UNBALANCED_DOC)
    for command in ("validate", "report", "tax-perfect"):
        assert main([command, "--economy", str(doc), f"--tol={tol!r}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: --tol must be positive and finite, got {tol}"]


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
