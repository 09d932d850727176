"""Command-line front end: dispatch, exit codes, reports, determinism, batch."""

import contextlib
import io
import json
import math
import multiprocessing
import os
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E1_DOC, SUBSIDY_DOC, random_irreducible_productive
from iotax import (
    ClearingConfig,
    ClearingProblem,
    SolverConfig,
    analyze_matrix,
    demand_regime,
    equilibrium_from_solution,
    load_economy,
    min_excess_solution,
    support_solution,
    verify_partial_clearing,
)
from iotax import cli
from iotax.cli import main
from iotax.errors import DomainError, NoEquilibriumError, ParseError

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


def test_check_tax_outside_the_range_of_a_singular_matrix(tmp_path, capsys):
    # A is singular, so the LU solve fails and the minimum-norm least-squares
    # fallback misses the gate: (1 - pi) o x = [5, 2] is not a multiple of
    # [1, 1], the range of A.
    economy = _write(tmp_path, "singular.json", {
        "A": [[0.3, 0.3], [0.3, 0.3]], "x": [10.0, 10.0], "c": [4.0, 4.0],
        "e": [0.0, 0.0], "i": [0.0, 0.0]})
    pi_path = _write(tmp_path, "pi.json", [0.5, 0.8])
    out = tmp_path / "check.json"
    code = main(["check-tax", "--economy", str(economy), "--pi", str(pi_path),
                 "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["sustainable"] is False and report["failed_stage"] == "solve"
    assert "not sustainable (solve)" in capsys.readouterr().out


def test_check_tax_on_a_singular_matrix(tmp_path):
    # (1 - pi) o x = [1, 1] lies in the range of A; the minimum-norm solution
    # z = [5/3, 5/3] satisfies z > A z.
    economy = _write(tmp_path, "singular.json", {
        "A": [[0.3, 0.3], [0.3, 0.3]], "x": [10.0, 10.0], "c": [4.0, 4.0],
        "e": [0.0, 0.0], "i": [0.0, 0.0]})
    pi_path = _write(tmp_path, "pi.json", [0.9, 0.9])
    out = tmp_path / "check.json"
    code = main(["check-tax", "--economy", str(economy), "--pi", str(pi_path),
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["sustainable"] is True


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


def _reference_clear(config):
    """The clear command as calls of the public clearing functions, each of
    which validates its inputs: the reference for the CLI, which validates
    once and calls the functions' cores."""
    A, b = cli._load_clearing(config)
    cfg = ClearingConfig(solver=config.solver, verify_tol=config.tol)
    report: dict = {"command": "clear"}
    lines: list[str] = []
    if config.z_path is not None:
        z = cli.load_vector(config.z_path)
    else:
        family = min_excess_solution(ClearingProblem(C=A, b=b), cfg)
        z = family.z
        report["objective"] = cli._round12(family.objective)
        report["full_clearing"] = family.full_clearing
        lines.append(f"minimal excess objective: {family.objective:.12g}"
                     + ("  (full clearing)" if family.full_clearing else ""))
    try:
        equilibrium = equilibrium_from_solution(A, b, z, cfg)
    except NoEquilibriumError:
        if config.z_path is not None:
            raise
        rows = np.flatnonzero(b - A @ z <= cfg.tol_eq * np.maximum(1.0, b))
        z = support_solution(A, b, rows)
        if z is None:
            raise
        equilibrium = equilibrium_from_solution(A, b, z, cfg)
    check = verify_partial_clearing(A, b, equilibrium, cfg.verify_tol)
    report.update({
        "z": cli._vec(equilibrium.z),
        "I": cli._indices(equilibrium.I_set),
        "J": cli._indices(equilibrium.J_set),
        "b_bar": cli._vec(equilibrium.b_bar),
        "p": cli._vec(equilibrium.p.p),
        "p_u": cli._vec(equilibrium.p_u),
        "R": cli._round12(equilibrium.R),
        "verified": bool(check),
        "rows": [{"industry": row.industry + 1, "demand": cli._round12(row.demand),
                  "bound": cli._round12(row.bound), "clears": row.in_I, "ok": row.ok}
                 for row in check.rows],
    })
    lines += [
        f"clearing rows I: {report['I']}   slack rows J: {report['J']}",
        f"prices p: {[f'{v:.12g}' for v in equilibrium.p.p]}",
        f"generalized prices p_u: {[f'{v:.12g}' for v in equilibrium.p_u]}",
        f"excess supply R: {equilibrium.R:.12g}",
        f"verified: {bool(check)}",
    ]
    return cli.EXIT_OK, report, lines


def _clear_calls(tmp_path) -> list[list[str]]:
    """clear on 210 instances drawn as the benchmark draws them (dense A of
    spectral radius 0.7, b = (1 - pi) o x, n = 2..8), every seventh also
    with a --z scaled to touch b; on every eighth document of the
    degenerate integer corpus (A in {0, 1, 2}, b in {1, 2, 3}, n = 2..6,
    every row and column nonzero); and through --pi and --tol."""
    rng = np.random.default_rng(18)
    docs = []
    for k in range(210):
        n = 2 + k % 7
        A = rng.uniform(0.0, 1.0, size=(n, n))
        A *= 0.7 / float(np.max(np.abs(np.linalg.eigvals(A))))
        x = np.linalg.solve(np.eye(n) - A, rng.uniform(0.5, 1.5, size=n))
        docs.append((A, (1.0 - rng.uniform(0.2, 0.6, size=n)) * x))
    corpus_rng = np.random.default_rng(7)
    corpus = []
    for n in range(2, 7):
        for _ in range(300):
            A = corpus_rng.integers(0, 3, size=(n, n))
            b = corpus_rng.integers(1, 4, size=n)
            if (A.sum(axis=0) > 0).all() and (A.sum(axis=1) > 0).all():
                corpus.append((A, b))
    assert len(corpus) == 1294
    docs += corpus[::8]
    calls = []
    for k, (A, b) in enumerate(docs):
        doc = _write(tmp_path, f"c{k}.json", {"A": A.tolist(), "b": b.tolist()})
        calls.append(["clear", "--economy", str(doc)])
        if k < 210 and k % 7 == 0:
            z = rng.uniform(0.0, 1.0, size=len(b))
            z /= float(np.max(A @ z / b))
            calls.append([*calls[-1], "--z", str(_write(tmp_path, f"z{k}.json", z.tolist()))])
    e1_pi = _write(tmp_path, "e1_pi.json", [0.5, 0.5])
    e1 = _write(tmp_path, "e1.json", E1_DOC)
    return calls + [["clear", "--economy", str(e1), "--pi", str(e1_pi)],
                    ["clear", "--economy", str(_write(tmp_path, "fix.json", CLEAR_DOC)),
                     "--tol", "1e-6"]]


def test_clear_matches_the_public_functions_bit_for_bit(tmp_path, monkeypatch):
    calls = _clear_calls(tmp_path)
    results = {}
    for mode in ("cli", "reference"):
        if mode == "reference":
            monkeypatch.setattr(cli, "_cmd_clear", _reference_clear)
        results[mode] = []
        for k, argv in enumerate(calls):
            out = tmp_path / f"{mode}-{k}.json"
            code, stdout, stderr = _run_main([*argv, "--out", str(out)])
            results[mode].append((code, stdout, stderr.replace(str(out), "OUT"),
                                  out.read_bytes() if out.exists() else None))
    assert results["cli"] == results["reference"]
    codes = [code for code, *_ in results["cli"]]
    assert codes.count(0) >= 100 and codes.count(2) >= 100 and set(codes) == {0, 2}


def test_clear_does_each_job_once(tmp_path, monkeypatch):
    # An exit-0 clear evaluates the demand system once at the prices it
    # reports (and never twice at the same prices), computes no simplex
    # parameters, and validates the matrix at most twice: once where it is
    # read and once as a ClearingProblem.
    import iotax.clearing
    import iotax.equilibrium
    import iotax.model

    demand_prices = []
    demand = iotax.equilibrium._demand
    for module in (iotax.equilibrium, iotax.clearing):
        monkeypatch.setattr(module, "_demand",
                            lambda A, b, p: demand_prices.append(p.tobytes()) or demand(A, b, p))
    alpha_calls = []
    monkeypatch.setattr(iotax.clearing, "alpha_from_solution",
                        lambda *a, **k: alpha_calls.append(1))
    matrix_calls = []
    as_matrix = iotax.model._as_float_matrix
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "iotax" and getattr(module, "_as_float_matrix", None) is as_matrix:
            monkeypatch.setattr(module, "_as_float_matrix",
                                lambda *a, **k: matrix_calls.append(1) or as_matrix(*a, **k))
    retried = []
    support = iotax.clearing._support
    monkeypatch.setattr(iotax.clearing, "_support",
                        lambda *a: retried.append(1) or support(*a))
    paths = set()
    for argv in _clear_calls(tmp_path):
        demand_prices.clear()
        matrix_calls.clear()
        retried.clear()
        out = tmp_path / "out.json"
        if _run_main([*argv, "--out", str(out)])[0] != 0:
            continue
        # Without the support retry, only the minimizer's z is tried; with
        # it, that z's demand test may have failed before the retry's.
        assert len(demand_prices) in ((1, 2) if retried else (1,))
        assert len(set(demand_prices)) == len(demand_prices)
        prices = np.array(json.loads(out.read_text())["p"])
        assert np.allclose(np.frombuffer(demand_prices[-1]), prices / prices.sum(),
                           rtol=1e-10, atol=1e-12)
        assert len(matrix_calls) <= 2
        paths.add((bool(retried), len(demand_prices)))
    assert not alpha_calls
    assert {(False, 1), (True, 1), (True, 2)} <= paths


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
    assert [[row["industry"], row["subsidy"]] for row in report["table"]] == report["subsidies"]
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


def test_subsidies_takes_z_from_the_rates(tmp_path, capsys):
    # With --pi the generating vector is the z the rates sustain, as in
    # classify: rates that fail the markup condition are rejected, and z > A z
    # at sustainable rates leaves no industry in need of subsidies.
    path = _write(tmp_path, "mixed.json", {"A": [[0, 0.5], [0.9, 0]], "x": [2, 1],
                                           "c": [1.5, -0.8], "e": [0, 0], "i": [0, 0]})
    for rates, message in (([0.3, 0.3], "markup condition z_i > (A z)_i fails at industries [0]"),
                           ([0.75, 0.1], "no industry needs subsidies")):
        pi = _write(tmp_path, "pi.json", rates)
        assert main(["subsidies", "--economy", str(path), "--pi", str(pi)]) == 2
        assert message in capsys.readouterr().err


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


def test_out_rewrites_a_longer_file_to_the_bytes_of_a_fresh_write(tmp_path, capsys):
    doc = _write(tmp_path, "clear.json", CLEAR_DOC)
    fresh, stale = tmp_path / "fresh.json", tmp_path / "stale.json"
    assert main(["clear", "--economy", str(doc), "--out", str(fresh)]) == 0
    stale.write_bytes(b"x" * (3 * fresh.stat().st_size))
    assert main(["clear", "--economy", str(doc), "--out", str(stale)]) == 0
    assert stale.read_bytes() == fresh.read_bytes()
    # Every file of a batch output directory, scenarios that fail included.
    capsys.readouterr()
    scenarios = _mixed_batch(tmp_path)
    first = _batch_outputs(scenarios, tmp_path / "first", capsys)
    rewritten = tmp_path / "rewritten"
    rewritten.mkdir()
    for name, data in first[3].items():
        (rewritten / name).write_bytes(data + b" " * 4096)
    assert _batch_outputs(scenarios, rewritten, capsys) == first


def test_out_to_a_device_or_fifo_is_written_without_truncation(tmp_path, e1_path):
    fresh = tmp_path / "fresh.json"
    assert main(["report", "--economy", str(e1_path), "--out", str(fresh)]) == 0
    doc = _write(tmp_path, "clear.json", CLEAR_DOC)
    assert main(["clear", "--economy", str(doc), "--out", os.devnull]) == 0
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        code = main(["report", "--economy", str(e1_path), "--out", str(fifo)])
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert code == 0 and received == [fresh.read_bytes()]


def test_a_new_out_file_gets_the_mode_of_write_text(tmp_path, e1_path):
    out, reference = tmp_path / "out.json", tmp_path / "reference.json"
    umask = os.umask(0o027)
    try:
        assert main(["validate", "--economy", str(e1_path), "--out", str(out)]) == 0
        reference.write_text("{}\n", encoding="utf-8")
    finally:
        os.umask(umask)
    assert out.stat().st_mode == reference.stat().st_mode
    assert out.stat().st_mode & 0o777 == 0o640


def test_csv_scenario_through_cli(tmp_path):
    matrix = tmp_path / "econ.csv"
    matrix.write_text("0,0.5\n0.5,0\n")
    sidecar = tmp_path / "econ.json"
    sidecar.write_text(json.dumps({k: v for k, v in E1_DOC.items() if k != "A"}))
    assert main(["validate", "--economy", str(matrix)]) == 0


@given(st.lists(st.tuples(st.floats(allow_nan=True, allow_infinity=True), st.integers(),
                          st.booleans(), st.sampled_from(["I", "J", ""])),
                min_size=1, max_size=5))
def test_table_cells_are_formatted_as_by_format_spec(cells):
    # Floats to 12 significant digits, ints and bools in decimal (True is 1),
    # strings as themselves, each right-aligned in 14 columns.
    rows = [{"x": x, "k": k, "flag": flag, "class": label} for x, k, flag, label in cells]
    expected = ["  ".join(f"{name:>14}" for name in rows[0])]
    expected += ["  ".join(f"{value:>14.12g}" if isinstance(value, float) else f"{value:>14}"
                           for value in row.values()) for row in rows]
    assert cli._table_lines(rows) == expected


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
def test_rounded_vectors_keep_twelve_significant_digits(values):
    assert cli._vec(np.array(values)) == [float(f"{v:.12g}") for v in values]


# Strings that an encoder splitting at item seams could mistake for one.
_TRICKY_TEXT = st.lists(st.sampled_from(['"', "\\", "\n", "é", "中", "\U0001f600", "},", "],", "{", "[",
                                         ",\n    {", ": "]) | st.text(max_size=3),
                        max_size=4).map("".join)
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**200),
                    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e308]),
                    _TRICKY_TEXT)
_KEY = _TRICKY_TEXT | st.sampled_from(["pi", "p", "gap", "class"])
_FLAT = st.lists(_SCALAR, max_size=4) | st.dictionaries(_KEY, _SCALAR, max_size=4)
_TREE = st.recursive(
    _SCALAR | _FLAT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_KEY, children, max_size=5)
    | st.lists(st.dictionaries(_KEY, _SCALAR, max_size=4), max_size=4)  # like report's table
    | st.lists(st.lists(_SCALAR, max_size=3), max_size=4)  # like subsidies
    | st.lists(_FLAT, max_size=4),
    max_leaves=30)


@settings(max_examples=500, deadline=None)
@given(_TREE)
def test_writer_is_json_dumps_indented_with_sorted_keys(tree):
    assert cli._dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_out_is_the_indented_sorted_json_of_the_report(tmp_path, e1_path, capsys):
    commands, clears = _every_command(tmp_path, e1_path)
    sustainable = ["tax-sustainable", "--economy", str(tmp_path / "economy.json"),
                   "--z", str(tmp_path / "z.json")]
    argvs = [*commands, sustainable, *clears]
    assert {argv[0] for argv in argvs} == set(cli.COMMANDS)
    for k, argv in enumerate(argvs):
        out = tmp_path / f"out{k}.json"
        args = cli.build_parser().parse_args([*argv, "--out", str(out)])
        code, report = cli.run(cli._config_from_args(args, args.economy))
        assert code == 0, argv
        assert out.read_text(encoding="utf-8") == json.dumps(report, indent=2, sort_keys=True) + "\n"
    # Each file of a batch directory, a rejected scenario's included, is the
    # report that run() returns for its scenario alone.
    scenarios = _mixed_batch(tmp_path)
    out_dir = tmp_path / "batch"
    assert main(["report", "--batch", str(scenarios), "--out", str(out_dir)]) == 2
    written = sorted(out_dir.iterdir())
    assert [path.name for path in written] == ["a_e1.report.json", "b_unbalanced.report.json",
                                               "d_subsidy.report.json"]
    for path in written:
        stem = path.name.removesuffix(".report.json")
        _, report = cli.run(cli.ScenarioConfig(scenarios / f"{stem}.json"))
        assert path.read_text(encoding="utf-8") == json.dumps(report, indent=2, sort_keys=True) + "\n"
    capsys.readouterr()


def test_report_table_rows_are_the_rounded_vectors(tmp_path, e1_path, capsys):
    commands, _ = _every_command(tmp_path, e1_path)
    economy, z = str(tmp_path / "economy.json"), str(tmp_path / "z.json")
    argvs = [commands[0], ["tax-perfect", "--economy", economy],
             ["tax-sustainable", "--economy", economy, "--z", z],
             ["report", "--economy", str(_write(tmp_path, "subsidy.json", SUBSIDY_DOC))]]
    columns = {"pi": "pi", "price": "p", "delta": "delta", "Delta": "Delta",
               "final_product": "final_product"}
    for argv in argvs:
        args = cli.build_parser().parse_args(argv)
        code, report = cli.run(cli._config_from_args(args, args.economy))
        assert code == 0, argv
        assert len(report["table"]) == len(report["p"])
        for k, row in enumerate(report["table"]):
            assert row["industry"] == k + 1
            for column, vector in columns.items():
                assert row[column] == report[vector][k], (argv[0], k, column)
            assert row["gap"] == float(f"{row['gap']:.12g}")
    capsys.readouterr()


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


def _mixed_batch(tmp_path) -> Path:
    """A batch whose scenarios exit 0, 2 (unbalanced), 1 (not JSON) and 0."""
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    _write(scenarios, "a_e1.json", E1_DOC)
    _write(scenarios, "b_unbalanced.json", dict(E1_DOC, c=[2.0, 2.0]))
    (scenarios / "c_broken.json").write_text("{not json", encoding="utf-8")
    _write(scenarios, "d_subsidy.json", SUBSIDY_DOC)
    return scenarios


def _batch_outputs(scenarios, out_dir, capsys) -> tuple:
    code = main(["report", "--batch", str(scenarios), "--out", str(out_dir)])
    captured = capsys.readouterr()
    files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
    return code, captured.out, captured.err, files


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools that run_batch constructs."""
    import concurrent.futures

    made = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return made


def _forbid_pools(monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("run_batch constructed a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


@pytest.mark.skipif(sys.platform != "linux", reason="batch workers are forked on Linux only")
@pytest.mark.parametrize("cpus, workers", [(2, 2), (8, 4)])
def test_pooled_batch_matches_inline_batch(tmp_path, capsys, monkeypatch, pools, cpus, workers):
    # One worker per usable CPU up to the number of scenarios; standard
    # output, the --out files and the worst exit code are those of a run in
    # this process, and every worker is joined when main() returns.
    scenarios = _mixed_batch(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    pooled = _batch_outputs(scenarios, tmp_path / "pooled", capsys)
    assert pools == [workers]
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _forbid_pools(monkeypatch)
    inline = _batch_outputs(scenarios, tmp_path / "inline", capsys)
    assert pooled == inline
    code, out, err, files = inline
    assert code == 2 and err == ""
    assert [line for line in out.splitlines() if line.startswith("== ")] == [
        "== a_e1.json (exit 0) ==", "== b_unbalanced.json (exit 2) ==",
        "== c_broken.json (exit 1) ==", "== d_subsidy.json (exit 0) =="]
    assert sorted(files) == ["a_e1.report.json", "b_unbalanced.report.json",
                             "d_subsidy.report.json"]


@pytest.mark.skipif(sys.platform != "linux", reason="batch workers are forked on Linux only")
def test_a_dead_batch_worker_is_one_error_line(tmp_path, capsys, monkeypatch, pools):
    scenarios = _mixed_batch(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    run_scenario = cli._run_scenario

    def dying(config):
        if config.economy_path.name == "b_unbalanced.json":
            os._exit(3)
        return run_scenario(config)

    monkeypatch.setattr(cli, "_run_scenario", dying)
    code, out, err, _ = _batch_outputs(scenarios, tmp_path / "out", capsys)
    assert pools == [2]
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in out + err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("case", ["one-scenario", "one-cpu", "live-thread"])
def test_batch_runs_in_process_where_a_pool_cannot_help_or_fork_is_unsafe(
        tmp_path, capsys, monkeypatch, case):
    _forbid_pools(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if case == "one-cpu" else {0, 1},
                        raising=False)
    if case == "one-scenario":
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        _write(scenarios, "a_e1.json", E1_DOC)
    else:
        scenarios = _mixed_batch(tmp_path)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if case == "live-thread":
        thread.start()
    try:
        code, out, err, files = _batch_outputs(scenarios, tmp_path / "out", capsys)
    finally:
        release.set()
        if case == "live-thread":
            thread.join(timeout=10)
            assert not thread.is_alive()
    assert code == (0 if case == "one-scenario" else 2)
    assert err == "" and "== a_e1.json (exit 0) ==" in out
    assert "a_e1.report.json" in files


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
    label = equilibrium.closed_classes
    monkeypatch.setattr(equilibrium, "closed_classes",
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
