"""Batch command-line front end.

Loads scenario documents, dispatches to the analysis modules, and emits a
human-readable table on standard output plus an optional structured JSON
report (``--out``).  Identical inputs produce byte-identical structured
reports: all solvers are deterministic and numbers are rounded to 12
significant digits.

Exit codes: 0 success, 1 input errors (unreadable or malformed documents),
2 domain rejections (the requested object does not exist for this data,
e.g. a tax system that is not sustainable or a clearing solution without an
equilibrium).  Reports and tables number industries from 1, messages from 0.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import threading
from dataclasses import dataclass
from functools import cache, cached_property
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import clearing as clr
from . import taxation as tax
from .equilibrium import SolverConfig, _solve_price_balance, solve_price_balance
from .errors import AnalysisError, InputError, ParseError
from .matcheck import MatrixProfile, analyze_matrix
from .model import (
    DEFAULT_BALANCE_TOL,
    EconomyModel,
    RegimeKind,
    balance_residual,
    demand_regime,
    load_economy,
    _as_float_matrix,
    _as_float_vector,
    _check_tol,
    _read_json,
    _read_text,
)

COMMANDS = ("validate", "tax-sustainable", "tax-perfect", "check-tax",
            "classify", "subsidies", "clear", "report")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REJECTED = 2


@dataclass
class ScenarioConfig:
    """One scenario run: an economy (or raw clearing) document plus options."""

    economy_path: Path
    command: str = "report"
    z_path: Path | None = None
    pi_path: Path | None = None
    scale_b: float | None = None
    tol: float = DEFAULT_BALANCE_TOL
    out_path: Path | None = None

    @cached_property
    def solver(self) -> SolverConfig:
        return SolverConfig(tol=min(self.tol, 1e-12))


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _vec(arr) -> list[float]:
    return [_round12(v) for v in np.asarray(arr, dtype=float).tolist()]


def _indices(s) -> list[int]:
    return sorted(int(k) + 1 for k in s)


def load_vector(path: Path) -> np.ndarray:
    """Read a vector from JSON (array, or object with key z/pi/values) or plain text."""
    text = _read_text(path, "vector file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        try:
            doc = [float(tok) for tok in text.replace(",", " ").split()]
        except ValueError as exc:
            raise ParseError(f"{path}: not JSON and not a plain number list") from exc
    if isinstance(doc, dict):
        doc = next((doc[key] for key in ("z", "pi", "values") if key in doc), None)
    if not isinstance(doc, list):
        raise ParseError(f"{path}: expected a JSON array or an object with key z/pi/values")
    return _as_float_vector(doc, f"vector in {path}")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a ParseError, one line, not usage text.

    ``error`` raises without touching the parser, and ``parse_args`` builds
    a fresh Namespace per call, so one parser serves every call.
    """

    def error(self, message):
        raise ParseError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every
    later one, so a process that calls main() in a loop builds it once."""
    parser = _ArgumentParser(
        prog="iotax",
        description="Taxation systems, price equilibria, and market clearing "
                    "for input-output economies.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS, default="report",
                        help="analysis to run (default: report, the full pipeline)")
    parser.add_argument("--economy", type=Path, help="scenario document (JSON, or CSV matrix with JSON sidecar)")
    parser.add_argument("--z", dest="z_path", type=Path, help="generating vector for sustainable taxes or a clearing solution")
    parser.add_argument("--pi", dest="pi_path", type=Path, help="external tax-rate vector")
    parser.add_argument("--scale-b", type=float, default=None, help="tax scale constant (default: interval midpoint)")
    parser.add_argument("--tol", type=float, default=DEFAULT_BALANCE_TOL, help="balance/verification tolerance")
    parser.add_argument("--out", type=Path, default=None, help="write the structured JSON report here (a directory in batch mode)")
    parser.add_argument("--batch", type=Path, default=None, help="process every *.json scenario in a directory")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.batch is None and args.economy is None:
            raise ParseError("--economy PATH is required (or use --batch DIR)")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    else:
        code = (run_batch(args) if args.batch is not None
                else run(_config_from_args(args, args.economy))[0])
    if argv is None:  # invoked as a console script
        sys.exit(code)
    return code


def _config_from_args(args, economy_path: Path) -> ScenarioConfig:
    return ScenarioConfig(
        economy_path=economy_path,
        command=args.command,
        z_path=args.z_path,
        pi_path=args.pi_path,
        scale_b=args.scale_b,
        tol=args.tol,
        out_path=args.out,
    )


def run(config: ScenarioConfig) -> tuple[int, dict]:
    """Execute one scenario: print the human table (an error or rejection
    goes to standard error instead), write --out (an existing file is
    rewritten in place; a device or FIFO works too), return (code, report)."""
    code, report, lines, failed = _run_scenario(config)
    for line in lines:
        print(line, file=sys.stderr if failed else sys.stdout)
    return code, report


def _run_scenario(config: ScenarioConfig) -> tuple[int, dict, list[str], bool]:
    """Execute one scenario and write --out with :func:`_write_in_place`.

    Returns (code, report, lines, failed); when ``failed`` is true, the one
    line is the error or rejection message, and nothing was written unless
    writing --out itself failed part way.
    """
    try:
        code, report, lines = _execute(config)
    except InputError as exc:
        return EXIT_INPUT, {"error": str(exc)}, [f"error: {exc}"], True
    except AnalysisError as exc:
        return EXIT_REJECTED, {"error": str(exc)}, [f"rejected: {exc}"], True
    if config.out_path is not None:
        try:
            _write_in_place(config.out_path, (_dumps(report) + "\n").encode("utf-8"))
        except OSError as exc:
            return EXIT_INPUT, {"error": str(exc)}, [f"error: {exc}"], True
    return code, report, lines, False


def _write_in_place(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path``, created with mode 0o666 under the umask
    if missing, as ``Path.write_bytes`` would, but rewrite an existing file
    in place: opening without O_TRUNC and cutting a regular file to the new
    length afterwards keeps its blocks, which truncating first frees and
    reallocates.  A device or FIFO (``/dev/null``, a pipe) is written, never
    truncated."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


_SCALARS = frozenset({str, int, float, bool, type(None)})


@cache
def _encoder(newline: str) -> json.JSONEncoder:
    """The encoder that puts each item of a container on its own line,
    ``newline`` being the line break and indent before an item.  Without
    ``indent`` ``json`` encodes with its C encoder."""
    return json.JSONEncoder(sort_keys=True, separators=("," + newline, ": "))


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for a tree whose dict
    keys are strings: the same text, with most of it made by the C encoder,
    which ``json`` uses only when ``indent`` is None.

    A container whose items are all scalars is one C call whose item
    separator ends in the items' indent, plus its opener and closer lines.
    So is a list of such containers, all dicts or all lists (``report``'s
    ``table``, ``clear``'s ``rows``): the C text is split where one item
    closes and the next opens, which only the separator between them can
    match, because no encoded string holds a raw newline.  Only the rest
    recurses.
    """
    out: list[str] = []
    _dump(obj, "\n", out)
    return "".join(out)


def _brackets(obj) -> str:
    """"{}" for a nonempty dict of scalars, "[]" for a nonempty list or
    tuple of scalars, "" for anything else."""
    if type(obj) is dict:
        items, brackets = obj.values(), "{}"
    elif type(obj) is list or type(obj) is tuple:
        items, brackets = obj, "[]"
    else:
        return ""
    return brackets if items and {*map(type, items)} <= _SCALARS else ""


def _dump(obj, newline: str, out: list[str]) -> None:
    """Append the text of ``obj``, whose first line is already indented and
    whose later lines start with ``newline``, to ``out``."""
    inner = newline + "  "
    flat = _brackets(obj)
    if flat:
        text = _encoder(inner).encode(obj)
        out += flat[0], inner, text[1:-1], newline, flat[1]
        return
    if isinstance(obj, dict):
        brackets = "{}"
        entries = [(json.encoder.encode_basestring_ascii(key) + ": ", value)
                   for key, value in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        rows = {*map(_brackets, obj)}
        if len(rows) == 1 and "" not in rows:
            opener, closer = rows.pop()
            deep = inner + "  "
            text = _encoder(deep).encode(obj)[2:-2]
            out += ("[", inner, opener, deep,
                    text.replace(closer + "," + deep + opener,
                                 inner + closer + "," + inner + opener + deep),
                    inner, closer, newline, "]")
            return
        brackets = "[]"
        entries = [("", item) for item in obj]
    else:
        out.append(_encoder(newline).encode(obj))
        return
    out.append(brackets[0])
    separator = inner
    for prefix, value in entries:
        out += separator, prefix
        _dump(value, inner, out)
        separator = "," + inner
    out.append(newline + brackets[1] if entries else brackets[1])


def run_batch(args) -> int:
    """Run one scenario per *.json file in a directory and print their
    blocks in sorted order; returns the worst exit code.

    On Linux, with more than one usable CPU and more than one scenario and
    no other live Python thread, the scenarios run on forked worker
    processes, one per usable CPU up to the number of scenarios.  Each
    worker writes its own --out file and returns its exit code and lines,
    which are printed here in order as they arrive.  Otherwise the
    scenarios run one at a time in this process.  Standard output, the
    files and the exit code are the same either way.  A worker that dies
    gives one error line and exit 1.
    """
    directory = Path(args.batch)
    if not directory.is_dir():
        print(f"error: batch directory not found: {directory}", file=sys.stderr)
        return EXIT_INPUT
    paths = sorted(p for p in directory.glob("*.json"))
    if not paths:
        print(f"error: no *.json scenarios in {directory}", file=sys.stderr)
        return EXIT_INPUT
    out_dir = args.out
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create output directory {out_dir}: {exc}", file=sys.stderr)
            return EXIT_INPUT
    configs = []
    for path in paths:
        config = _config_from_args(args, path)
        config.out_path = (out_dir / f"{path.stem}.report.json") if out_dir else None
        configs.append(config)
    workers = _batch_workers(len(configs))
    if workers < 2:
        return _print_batch(paths, map(_batch_scenario, configs))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    # A forked worker flushes the standard streams it inherits when it exits.
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return _print_batch(paths, pool.map(_batch_scenario, configs))
    except BrokenProcessPool as exc:
        print(f"error: a batch worker process died: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _batch_workers(scenarios: int) -> int:
    """Worker processes for a batch: one per usable CPU up to ``scenarios``
    where forking is safe, else 1 (run in this process).

    Forked workers start with this process's modules loaded, where spawned
    ones would import NumPy and iotax again.  A fork copies only the calling
    thread, so a lock that another Python thread holds would stay held in
    the worker: with such a thread alive the batch runs in this process.
    """
    if sys.platform != "linux" or scenarios < 2 or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), scenarios)


def _batch_scenario(config: ScenarioConfig) -> tuple[int, list[str]]:
    code, _, lines, _ = _run_scenario(config)
    return code, lines


def _print_batch(paths: list[Path], results) -> int:
    """Print one block per scenario as ``results`` yields (code, lines);
    returns the worst code."""
    worst = EXIT_OK
    for path, (code, lines) in zip(paths, results):
        print(f"== {path.name} (exit {code}) ==")
        for line in lines:
            print(line)
        worst = max(worst, code)
    return worst


def _execute(config: ScenarioConfig) -> tuple[int, dict, list[str]]:
    handler = {
        "validate": _cmd_validate,
        "tax-sustainable": _cmd_tax_sustainable,
        "tax-perfect": _cmd_tax_perfect,
        "check-tax": _cmd_check_tax,
        "classify": _cmd_classify,
        "subsidies": _cmd_subsidies,
        "clear": _cmd_clear,
        "report": _cmd_report,
    }.get(config.command)
    if handler is None:
        raise ParseError(f"unknown command {config.command!r}")
    _check_tol(config.tol, "--tol")  # checked here so that a bad --tol fails every command
    return handler(config)


def _require(config: ScenarioConfig, attribute: str, flag: str) -> Path:
    value = getattr(config, attribute)
    if value is None:
        raise ParseError(f"command '{config.command}' requires {flag} PATH")
    return value


def _structural_summary(model: EconomyModel, profile: MatrixProfile,
                        tol: float) -> tuple[dict, list[str], bool]:
    residual = balance_residual(model)
    regime = demand_regime(model, tol)
    summary = {
        "n": model.n,
        "balance_residual_max": _round12(float(np.max(np.abs(residual)))),
        "regime": regime.kind.value,
        "regime_I": _indices(regime.I_set),
        "regime_J": _indices(regime.J_set),
        "irreducible": profile.irreducible,
        "spectral_radius": _round12(profile.spectral_radius),
        "productive": profile.productive,
    }
    lines = [
        f"industries: {model.n}",
        f"balance residual (max): {summary['balance_residual_max']:.12g}",
        f"demand regime: {regime.kind.value}"
        + (f"  (J = {summary['regime_J']})" if regime.kind is RegimeKind.MIXED else ""),
        f"spectral radius: {summary['spectral_radius']:.12g}"
        f"  irreducible: {profile.irreducible}  productive: {profile.productive}",
    ]
    return summary, lines, regime.kind is not RegimeKind.INVALID


def _table_lines(rows: list[dict]) -> list[str]:
    """A header and one line per row, each cell 14 wide: floats to 12
    significant digits, ints (bools as 0 and 1) in decimal, anything else
    as its str.  Every row has the first row's columns and cell types."""
    if not rows:
        return []
    columns = list(rows[0])
    row_format = "  ".join("%14.12g" if isinstance(value, float)
                           else "%14d" if isinstance(value, int) else "%14s"
                           for value in rows[0].values())
    cells = itemgetter(*columns)
    return (["  ".join("%14s" % name for name in columns)]
            + [row_format % cells(row) for row in rows])


def _cmd_validate(config: ScenarioConfig):
    model = load_economy(config.economy_path)
    summary, lines, valid = _structural_summary(model, analyze_matrix(model.A), config.tol)
    report = {"command": "validate", **summary}
    if not valid:
        lines.append("balance identity does not hold at the requested tolerance")
        return EXIT_REJECTED, report, lines
    return EXIT_OK, report, lines


def _tax_report(config: ScenarioConfig, model: EconomyModel, system: tax.TaxVector,
                subsidize: bool = False):
    """Report and table of a tax system, with the equilibrium prices for its
    z and, if ``subsidize``, the minimum subsidies for z in both.

    The report's vectors are rounded to 12 significant digits once, and its
    ``table`` rows take their rates, prices and value accounts from those
    rounded vectors; only each row's gap and subsidy are rounded there.
    The printed table formats the unrounded rows of
    :func:`taxation.industry_table` to 12 digits, which reads the same.
    """
    # model.A is validated on load, and every caller's system.z is positive.
    price = _solve_price_balance(model.A, system.z, config.solver)
    accounts = tax.value_accounts(model, price)
    classification = tax._classify(accounts)
    subsidies = tax.subsidy_requirements(model, system.z, price) if subsidize else None
    rows = tax.industry_table(model, system, price, accounts, classification, subsidies)
    columns = {"pi": _vec(system.pi), "p": _vec(price.p), "delta": _vec(accounts.delta),
               "Delta": _vec(accounts.Delta), "final_product": _vec(accounts.final_product)}
    report = {
        "command": config.command,
        "scale_b": _round12(system.scale_b),
        "provenance": system.provenance.value,
        "lambda_residual": _round12(price.lambda_residual),
        **columns,
        "classification_I": _indices(classification.I_set),
        "classification_J": _indices(classification.J_set),
        "signature": list(classification.signature),
        "table": [dict(row, pi=pi, price=p, delta=delta, Delta=Delta, final_product=final,
                       gap=_round12(row["gap"]), subsidy=_round12(row["subsidy"]))
                  for row, pi, p, delta, Delta, final in zip(rows, *columns.values())],
    }
    lines = [f"tax system ({system.provenance.value}), scale_b = {system.scale_b:.12g}"]
    lines += _table_lines(rows)
    if subsidies is not None:
        report["subsidies"], subsidy_lines = _subsidy_report(subsidies)
        lines += subsidy_lines
    return report, lines, price


def _subsidy_report(subsidies: list[tuple[int, float]]) -> tuple[list, list[str]]:
    """The report entry and lines of subsidy_requirements' amounts."""
    lines = ["minimum subsidies:"]
    lines += [f"  industry {k + 1}: {v:.12g}" for k, v in subsidies if v > 0]
    return [[k + 1, _round12(v)] for k, v in subsidies], lines


def _cmd_tax_perfect(config: ScenarioConfig):
    model = load_economy(config.economy_path)
    system = tax.perfect_tax(model, config.scale_b, tol=config.tol)
    report, lines, _ = _tax_report(config, model, system)
    return EXIT_OK, report, lines


def _cmd_tax_sustainable(config: ScenarioConfig):
    model = load_economy(config.economy_path)
    z = load_vector(_require(config, "z_path", "--z"))
    system = tax.sustainable_tax(model, z, config.scale_b)
    report, lines, _ = _tax_report(config, model, system)
    return EXIT_OK, report, lines


def _cmd_check_tax(config: ScenarioConfig):
    model = load_economy(config.economy_path)
    rates = load_vector(_require(config, "pi_path", "--pi"))
    result = tax.check_tax_sustainable(model, rates, config.solver)
    if not result.sustainable:
        report = {"command": "check-tax", "sustainable": False,
                  "failed_stage": result.failed_stage, "reason": result.reason}
        lines = [f"not sustainable ({result.failed_stage}): {result.reason}"]
        return EXIT_REJECTED, report, lines
    report = {
        "command": "check-tax",
        "sustainable": True,
        "z": _vec(result.z),
        "p": _vec(result.p.p),
        "lambda_residual": _round12(result.p.lambda_residual),
    }
    lines = ["sustainable: yes",
             f"recovered z: {[f'{v:.12g}' for v in result.z]}",
             f"equilibrium p: {[f'{v:.12g}' for v in result.p.p]}"]
    return EXIT_OK, report, lines


def _equilibrium_inputs(config: ScenarioConfig, model: EconomyModel) -> np.ndarray:
    """Generating vector for classify/subsidies: --pi, --z, or x (perfect)."""
    if config.pi_path is not None:
        rates = load_vector(config.pi_path)
        result = tax.check_tax_sustainable(model, rates, config.solver)
        if not result.sustainable:
            raise AnalysisError(f"tax system is not sustainable: {result.reason}")
        return result.z
    if config.z_path is not None:
        return load_vector(config.z_path)
    return model.x.copy()


def _cmd_classify(config: ScenarioConfig):
    model = load_economy(config.economy_path)
    z = _equilibrium_inputs(config, model)
    price = solve_price_balance(model.A, z, config.solver)
    accounts = tax.value_accounts(model, price)
    classification = tax._classify(accounts)
    report = {
        "command": "classify",
        "p": _vec(price.p),
        "gaps": _vec(classification.gaps),
        "I": _indices(classification.I_set),
        "J": _indices(classification.J_set),
        "signature": list(classification.signature),
    }
    lines = [
        f"I (value added <= final product): {report['I']}",
        f"J (value added >  final product): {report['J']}",
        f"signature (positive, negative, zero gaps): {classification.signature}",
    ]
    return EXIT_OK, report, lines


def _cmd_subsidies(config: ScenarioConfig):
    model = load_economy(config.economy_path)
    z = _equilibrium_inputs(config, model)
    price = solve_price_balance(model.A, z, config.solver)
    subsidies = tax.subsidy_requirements(model, z, price)
    entry, lines = _subsidy_report(subsidies)
    report = {"command": "subsidies", "p": _vec(price.p), "subsidies": entry}
    return EXIT_OK, report, lines


def _load_clearing(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """A raw document with keys A and b, or an economy plus --pi (b = (1-pi) o x)."""
    path = Path(config.economy_path)
    doc = _read_json(path) if path.suffix.lower() != ".csv" else None
    if doc is not None and "b" in doc and "A" in doc:
        A = _as_float_matrix(doc["A"], "A")
        return A, _as_float_vector(doc["b"], "b", A.shape[0])
    model = load_economy(path if doc is None else doc)
    rates = _as_float_vector(load_vector(_require(config, "pi_path", "--pi")), "pi", model.n)
    return np.asarray(model.A, dtype=float), (1.0 - rates) * model.x


def _cmd_clear(config: ScenarioConfig):
    """The report of :func:`clearing.solve_clearing` on the document's A and
    b and --z if given, with the minimal-excess objective without --z."""
    A, b = _load_clearing(config)
    z = load_vector(config.z_path) if config.z_path is not None else None
    cfg = clr.ClearingConfig(solver=config.solver, verify_tol=config.tol)
    result = clr.solve_clearing(A, b, z, cfg)
    equilibrium, check = result.equilibrium, result.check
    report: dict = {"command": "clear"}
    lines: list[str] = []
    if result.objective is not None:
        report["objective"] = _round12(result.objective)
        report["full_clearing"] = result.full_clearing
        lines.append(f"minimal excess objective: {result.objective:.12g}"
                     + ("  (full clearing)" if result.full_clearing else ""))
    report.update({
        "z": _vec(equilibrium.z),
        "I": _indices(equilibrium.I_set),
        "J": _indices(equilibrium.J_set),
        "b_bar": _vec(equilibrium.b_bar),
        "p": _vec(equilibrium.p.p),
        "p_u": _vec(equilibrium.p_u),
        "R": _round12(equilibrium.R),
        "verified": bool(check),
        "rows": [{"industry": row.industry + 1, "demand": _round12(row.demand),
                  "bound": _round12(row.bound), "clears": row.in_I, "ok": row.ok}
                 for row in check.rows],
    })
    lines += [
        f"clearing rows I: {report['I']}   slack rows J: {report['J']}",
        f"prices p: {[f'{v:.12g}' for v in equilibrium.p.p]}",
        f"generalized prices p_u: {[f'{v:.12g}' for v in equilibrium.p_u]}",
        f"excess supply R: {equilibrium.R:.12g}",
        f"verified: {bool(check)}",
    ]
    return EXIT_OK, report, lines


def _cmd_report(config: ScenarioConfig):
    """Full pipeline: validate, perfect tax, equilibrium, accounts,
    classification, subsidies under a mixed regime, and the exact-clearing
    confirmation (excess supply zero under the constructed system)."""
    model = load_economy(config.economy_path)
    profile = analyze_matrix(model.A)
    summary, lines, valid = _structural_summary(model, profile, config.tol)
    report = {"command": "report", **summary}
    if not valid:
        lines.append("balance identity does not hold; no further analysis")
        return EXIT_REJECTED, report, lines
    system = tax.perfect_tax(model, config.scale_b, profile=profile, tol=config.tol)
    tax_report, tax_lines, price = _tax_report(
        config, model, system, subsidize=summary["regime"] == RegimeKind.MIXED.value)
    tax_report.pop("command")
    report.update(tax_report)
    lines += tax_lines

    # Prices are scale-invariant in z, so the tax table's prices (z = x) are
    # the equilibrium prices of the clearing solution z = scale_b * x.  The
    # retained value (1 - pi) o x is formed as scale_b * (A x): forming
    # 1 - pi cancels when a rate is near 1.  The clearing cores need no
    # validation here: model.A is validated, z > 0, and b > 0 because a rate
    # that rounds to 1 is rejected.
    b = system.scale_b * (model.A @ model.x)
    z = system.scale_b * model.x
    cfg = clr.ClearingConfig()
    rows = clr._clearing_rows(model.A, b, z, cfg.tol_eq)
    equilibrium, _ = clr._equilibrium(model.A, b, z, rows, price, cfg)
    report["excess_supply"] = _round12(equilibrium.R)
    lines.append(f"excess supply under this system: {equilibrium.R:.12g}")
    return EXIT_OK, report, lines


if __name__ == "__main__":
    main()
