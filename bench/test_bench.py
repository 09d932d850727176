"""Tests of the benchmark's own generators, oracles, checkers and tracer.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402


def _docs(workload, seed):
    return [(s.name, s.command, {k: v.tolist() for k, v in s.doc.items()},
             None if s.pi is None else s.pi.tolist())
            for s in scenarios.generate(workload, seed)]


@pytest.mark.parametrize("workload", ["report-dense", "price-slowmix", "batch-report"])
def test_generation_is_deterministic_per_seed(workload):
    assert _docs(workload, 7) == _docs(workload, 7)
    assert _docs(workload, 7) != _docs(workload, 8)


def test_clear_generation_is_deterministic_per_seed(tmp_path):
    first, again = (scenarios.generate("clear-partial", 3) for _ in range(2))
    assert [s.name for s in first] == [s.name for s in again]
    for a, b in zip(first, again):
        assert np.array_equal(a.doc["A"], b.doc["A"]) and np.array_equal(a.doc["b"], b.doc["b"])
    scenarios.write_workload(first[:3], tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{s.name}.json" for s in first[:3]]


def _random_stochastic(rng, n, eps=None):
    P = rng.uniform(0.0, 1.0, size=(n, n))
    if eps is not None:  # two nearly uncoupled blocks
        half = n // 2
        P[:half, half:] *= eps
        P[half:, :half] *= eps
    return P / P.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n,eps", [(2, None), (5, None), (8, None), (8, 1e-12)])
def test_gth_matches_exact_rational_elimination(n, eps):
    rng = np.random.default_rng(n)
    P = _random_stochastic(rng, n, eps)
    exact = np.array([float(v) for v in oracles.gth_exact(P)])
    approx = oracles.gth(P)
    assert np.max(np.abs(approx - exact) / exact) <= 1e-12
    assert np.max(np.abs(approx @ P - approx)) <= 1e-15


def test_oracle_prices_solve_the_price_balance_system():
    rng = np.random.default_rng(0)
    A = scenarios.dense_irreducible(rng, 6)
    z = rng.uniform(0.5, 1.5, size=6)
    p = oracles.oracle_prices(A, z)
    y = z / (A @ z)
    assert np.allclose((A * y[np.newaxis, :]).T @ p, p, rtol=0, atol=1e-15)


def test_enumeration_finds_the_criterion_9_fixture():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    b = np.array([1.0, 1.0])
    found = oracles.enumerate_equilibria(A, b, first=False)
    assert [I for I, _ in found] == [(1,)]
    assert np.allclose(found[0][1], [0.0, 0.25])


def test_clear_checker_accepts_the_fixture_and_flags_a_nonzero_slack_price():
    doc = {"A": np.array([[1.0, 2.0], [2.0, 4.0]]), "b": np.array([1.0, 1.0])}
    out = {"z": [0.0, 0.25], "p": [0.0, 1.0], "I": [2], "J": [1]}
    assert oracles.check_clear(out, doc) == []
    assert oracles.check_clear(dict(out, p=[0.1, 0.9]), doc)
    assert oracles.check_clear(dict(out, z=[0.0, 0.3]), doc)


def _report_for(doc, prices):
    A, x = doc["A"], doc["x"]
    w = A @ x
    b = float(np.min(x / w)) / 2.0
    return {"command": "report", "excess_supply": 0.0, "scale_b": b,
            "pi": (1.0 - b * w / x).tolist(), "p": prices.tolist()}


def test_report_checker_flags_a_perturbed_price_vector():
    rng = np.random.default_rng(5)
    doc = scenarios.balanced_economy(rng, scenarios.dense_irreducible(rng, 12), mixed=False)
    prices = oracles.oracle_prices(doc["A"], doc["x"])
    assert oracles.check_report(_report_for(doc, prices), doc, prices) == []
    perturbed = prices.copy()
    perturbed[3] *= 1.0 + 1e-6
    problems = oracles.check_report(_report_for(doc, perturbed), doc, prices)
    assert any("price forward error" in p for p in problems)


def test_tracer_nests_spans_and_computes_self_time():
    tracer = tracing.Tracer()
    inner = tracer.wrap("matcheck.is_irreducible", lambda: None)
    outer = tracer.wrap("matcheck.analyze_matrix", lambda: inner())
    outer()
    (child, parent_of_child, *_), (parent, root, *_) = tracer.spans
    assert parent_of_child == parent and root is None
    stats = tracing.aggregate(tracer.spans, (0.0, float("inf")))["functions"]
    entry = stats["matcheck.analyze_matrix"]
    assert entry["calls"] == 1
    assert entry["self_s"] == pytest.approx(
        entry["total_s"] - stats["matcheck.is_irreducible"]["total_s"])


def test_tracer_parents_batch_worker_spans_to_the_batch_span():
    tracer = tracing.Tracer()
    work = tracer.wrap("model.load_economy", lambda k: threading.get_ident())

    def batch():
        with ThreadPoolExecutor(max_workers=3) as pool:
            return list(pool.map(work, range(6)))

    tracer.wrap(tracing.BATCH, batch)()
    batch_span = next(s for s in tracer.spans if s[2] == tracing.BATCH)
    workers = [s for s in tracer.spans if s[2] == "model.load_economy"]
    assert len(workers) == 6 and all(s[1] == batch_span[0] for s in workers)
    overlap = tracing.aggregate(tracer.spans, (0.0, float("inf")))["overlap"]
    assert 0.0 < overlap
