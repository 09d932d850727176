"""iotax benchmark: seeded CLI workloads with independent output checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's scenario files from the seed, computes the
oracles, then calls ``iotax.cli.main(argv)`` in this process in a closed
loop (one client, one call at a time) for about S seconds, in whole passes
over the workload's fixed scenario list.  Every output is checked against
oracles that do not use ``iotax``.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run,
measured in traced passes alternating with untraced ones.  The line before
it records the environment and the sample counts.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import oracles  # noqa: E402
import scenarios as gen  # noqa: E402
import tracing  # noqa: E402

# Fresh interpreters started per run to time `import iotax.cli`.
COLD_STARTS = 5
# Fewest passes of an end-to-end run, so that every call has a median of at
# least three samples even when one pass takes a third of the run.
MIN_PASSES = 3
# Call times are reported at the speed of a quiet host: each sample is
# divided by the slowdown that SpeedProbe measures around it, taken as its
# time over REFERENCE_S, about what it takes on an idle 2-vCPU x86-64 VM.
# Other tenants of a shared host slow everything by up to 2x for 10-30 s at
# a time, which moved wall-clock medians by up to 60% from seed to seed.
REFERENCE_S = 0.0013
PROBE_INTERVAL_S = 0.5
PROBE_SETTLE_S = 0.02
# Known defects of the program (ROADMAP items 2 and 3), counted in `failed`
# like any other failure but not marking the run incorrect: the price
# layer's wrong answer on blocks coupled by 1e-12, and `clear` exiting 2 on
# small instances where enumeration finds an equilibrium.
KNOWN_DEFECTS = {
    "blocks-1e-12-prices": "price forward error on blocks coupled by eps=1e-12",
    "clear-missed-equilibrium": "clear exits 2 although an equilibrium exists",
}


@dataclass
class Call:
    """One ``main(argv)`` call and the scenarios whose outputs it produces."""

    argv: list[str]
    expect: dict              # scenario name -> (Scenario, expected exit codes, out path)
    samples: list[float] = field(default_factory=list)   # seconds at quiet-host speed
    raw: list[float] = field(default_factory=list)       # wall seconds


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    known: dict = field(default_factory=dict)

    def record(self, name: str, problems: list[str], known: str | None) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if known is not None:
            self.known[known] = self.known.get(known, 0) + 1
        elif len(self.unexpected) < 20:
            self.unexpected.append(f"{name}: {'; '.join(problems)}")


def build_calls(workload: str, scenarios: list, directory: Path) -> list[Call]:
    out = directory / "out"
    out.mkdir()
    if workload == "batch-report":
        expect = {s.name: (s, {0}, out / f"{s.name}.report.json") for s in scenarios}
        return [Call(["report", "--batch", str(directory), "--out", str(out)], expect)]
    calls = []
    for s in scenarios:
        economy = directory / f"{s.meta.get('economy', s.name)}.json"
        target = out / f"{s.name}.json"
        argv = [s.command, "--economy", str(economy), "--out", str(target)]
        if s.pi is not None:
            argv += ["--pi", str(directory / f"{s.name}.pi.json")]
        if s.command == "clear":
            exists = s.meta.get("equilibrium")
            codes = {0, 2} if exists is None else ({0} if exists else {2})
        else:
            codes = {0}
        calls.append(Call(argv, {s.name: (s, codes, target)}))
    return calls


def compute_oracles(scenarios: list) -> dict:
    """Oracle prices per economy document; enumeration verdicts for small
    clearing instances are stored in the scenario's meta."""
    prices = {}
    for s in scenarios:
        if s.command == "clear":
            if s.n <= 8:
                s.meta["equilibrium"] = bool(oracles.enumerate_equilibria(s.doc["A"], s.doc["b"]))
            continue
        key = s.meta.get("economy", s.name)
        if key not in prices:
            prices[key] = oracles.oracle_prices(s.doc["A"], s.doc["x"])
    return prices


def invoke(cli, argv: list[str]) -> tuple[int | None, float, str]:
    """Run ``cli.main(argv)`` with captured output; returns (exit code or
    None if it raised, seconds, captured text)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback the CLI let escape
            code = None
            print(f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
    return code, elapsed, sink.getvalue()


def check(call: Call, code, text: str, prices: dict, tally: Tally) -> None:
    for name, (s, codes, path) in call.expect.items():
        problems = []
        known = None
        if code is None or "Traceback (most recent call last)" in text:
            problems.append("raised or printed a traceback")
        elif code not in codes:
            problems.append(f"exit {code}, expected {sorted(codes)}")
            if s.command == "clear" and code == 2 and s.meta.get("equilibrium"):
                known = "clear-missed-equilibrium"
        elif code == 0:
            try:
                out = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable output: {exc}")
            else:
                problems += check_output(s, out, prices)
                if problems and s.family == "blocks" and s.meta.get("eps") == 1e-12:
                    known = "blocks-1e-12-prices"
        tally.record(name, problems, known)


def check_output(s, out: dict, prices: dict) -> list[str]:
    try:
        if s.command == "clear":
            return oracles.check_clear(out, s.doc)
        reference = prices[s.meta.get("economy", s.name)]
        if s.command == "check-tax":
            return oracles.check_check_tax(out, s.doc, reference)
        return oracles.check_report(out, s.doc, reference)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


class SpeedProbe:
    """Times a fixed piece of work of the kinds the CLI spends its time on:
    JSON parsing, small matrix-vector products in a Python loop and one
    dense solve.  Its time over ``REFERENCE_S`` is how much slower than a
    quiet host the machine runs at that moment."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.doc = json.dumps({"A": rng.uniform(size=(30, 30)).tolist()})
        self.small = rng.uniform(size=(20, 20))
        self.dense = rng.uniform(size=(120, 120)) + 120.0 * np.eye(120)

    def slowdown(self) -> float:
        # Pool and BLAS threads of the call just made keep spinning for a
        # few milliseconds; they would slow the probe, not the next call.
        time.sleep(PROBE_SETTLE_S)
        return min(self._work() for _ in range(2)) / REFERENCE_S

    def _work(self) -> float:
        start = time.perf_counter()
        json.loads(self.doc)
        v = np.full(20, 0.05)
        for _ in range(300):
            v = self.small.T @ v
            v = v / v.sum()
        np.linalg.solve(self.dense, self.dense[:, :20])
        return time.perf_counter() - start


def run_pass(cli, calls: list[Call], prices: dict, tally: Tally, probe: SpeedProbe) -> float:
    """One pass; each call's sample is its wall time divided by the mean
    slowdown probed just before and just after it (a --batch call's sample
    is its wall time)."""
    results = []
    probes = [(time.perf_counter(), probe.slowdown())]
    start = time.perf_counter()
    for call in calls:
        if time.perf_counter() - probes[-1][0] >= PROBE_INTERVAL_S:
            probes.append((time.perf_counter(), probe.slowdown()))
        code, elapsed, text = invoke(cli, call.argv)
        results.append((call, code, text, elapsed, len(probes) - 1))
    probes.append((time.perf_counter(), probe.slowdown()))
    duration = time.perf_counter() - start
    for call, code, text, elapsed, k in results:
        call.raw.append(elapsed)
        # The --batch pool loads both vCPUs with its own threads, which the
        # single-threaded probe does not follow: probes around a batch read
        # 1.5-2x slowdowns on a host that ran the batch at its usual speed.
        pooled = call.argv[1] == "--batch"
        call.samples.append(elapsed if pooled else elapsed / ((probes[k][1] + probes[k + 1][1]) / 2.0))
        check(call, code, text, prices, tally)
    return duration


def cold_import_seconds(count: int) -> list[float]:
    """Wall times of fresh interpreters that import ``iotax.cli`` from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    check = ("import iotax.cli, pathlib, sys; "
             f"sys.exit(pathlib.Path(iotax.cli.__file__).resolve().parent != pathlib.Path({str(SRC / 'iotax')!r}))")
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", check], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": args.seed,
        "commit": commit(),
        "workload": args.workload,
        "trace": args.trace,
    }


def commit() -> str:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(cli, calls, prices, seconds: float, tally: Tally, probe: SpeedProbe) -> list[float]:
    """Whole passes while the next one is expected to fit in ``seconds``,
    and at least ``MIN_PASSES``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, calls, prices, tally, probe))
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + passes[-1] > seconds:
            return passes


def end_to_end(cli, calls, prices, args, tally: Tally) -> tuple[dict, dict]:
    cold_import_seconds(1)  # writes the bytecode caches; not timed
    # Cold starts on both sides of the loop, so that one burst of load on a
    # shared machine cannot slow all of them.  They stay in wall seconds:
    # starting an interpreter slows under load unlike the speed probe.
    setup = cold_import_seconds(COLD_STARTS // 2)
    passes = measure(cli, calls, prices, args.seconds, tally, SpeedProbe())
    setup += cold_import_seconds(COLD_STARTS - COLD_STARTS // 2)
    # A pass in which every call takes its median time over the passes.
    typical = [statistics.median(call.samples) for call in calls]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (sum(typical), "s"),
        "scenario_s_p50": (percentile(typical, 50), "s"),
        "scenario_s_p90": (percentile(typical, 90), "s"),
        "ok_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = [statistics.median(call.raw) for call in calls]
    info = {"calls_per_pass": len(calls), "pass_wall_seconds": [round(t, 4) for t in passes],
            "wall_seconds": {"pass_s": sum(raw),
                             "scenario_s_p50": percentile(raw, 50),
                             "scenario_s_p90": percentile(raw, 90)}}
    return metrics, info


def per_layer(cli, calls, prices, args, tally: Tally) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    probe = SpeedProbe()
    state = {"iterations": 0, "fwd_err": 0.0}
    lock = threading.Lock()  # --batch pool threads update `state` too
    local = threading.local()

    def on_load(result, a, kw):
        local.economy = Path(a[0]).stem

    def on_price(result, a, kw):
        reference = prices.get(getattr(local, "economy", None))
        if reference is not None and result.p.shape == reference.shape:
            error = oracles.price_error(result.p, reference)
            with lock:
                state["fwd_err"] = max(state["fwd_err"], error)

    def on_qp(result, a, kw):
        with lock:
            state["iterations"] += result.iterations

    hooks = {"model.load_economy": on_load,
             "equilibrium.solve_price_balance": on_price,
             "_qp.solve_qp": on_qp}
    untraced, traced_passes, windows, iterations = [], [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(cli, calls, prices, tally, probe))
        replaced = tracing.install(tracer, hooks)
        try:
            before = state["iterations"]
            lo = time.perf_counter()
            traced_passes.append(run_pass(cli, calls, prices, tally, probe))
            windows.append((lo, time.perf_counter()))
            iterations.append(state["iterations"] - before)
        finally:
            tracing.uninstall(replaced)
        if time.perf_counter() - start + untraced[-1] + traced_passes[-1] > args.seconds:
            break
    per_pass = [tracing.aggregate(tracer.spans, w) for w in windows]
    metrics = {}
    for target in tracing.TARGETS:
        prefix = tracing.metric_name(target)
        rows = [p["functions"][target] for p in per_pass]
        metrics[f"{prefix}.calls"] = (statistics.median(r["calls"] for r in rows), "count")
        metrics[f"{prefix}.total_s"] = (statistics.median(r["total_s"] for r in rows), "s")
        metrics[f"{prefix}.self_s"] = (statistics.median(r["self_s"] for r in rows), "s")
    metrics["qp.solve_qp.iterations"] = (statistics.median(iterations), "count")
    metrics["equilibrium.solve_price_balance.fwd_err_max"] = (state["fwd_err"], "ratio")
    metrics["cli.run_batch.overlap"] = (statistics.median(p["overlap"] for p in per_pass), "ratio")
    metrics["trace.overhead_s"] = (statistics.median(traced_passes) - statistics.median(untraced), "s")
    spans_file = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    spans_file.write_text(json.dumps({"windows": windows, "spans": tracer.spans}))
    info = {"passes": len(traced_passes), "untraced_passes": len(untraced),
            "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "iotax" / "cli.py").is_file():
        print(f"error: the iotax sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import iotax.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "iotax":
        print(f"error: imported iotax from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    directory = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        scenario_list = gen.generate(args.workload, args.seed)
        gen.write_workload(scenario_list, directory)
        prices = compute_oracles(scenario_list)
        calls = build_calls(args.workload, scenario_list, directory)
        smallest = min((s for s in scenario_list if s.pi is None), key=lambda s: s.n)
        invoke(cli, [smallest.command, "--economy", str(directory / f"{smallest.name}.json"),
                     "--out", str(directory / "out" / "warm-up.json")])
        tally = Tally()
        if args.trace:
            metrics, info = per_layer(cli, calls, prices, args, tally)
        else:
            metrics, info = end_to_end(cli, calls, prices, args, tally)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    info.update(environment(args))
    info["known_defects"] = {KNOWN_DEFECTS[k]: v for k, v in tally.known.items()}
    info["unexpected_failures"] = tally.unexpected
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
