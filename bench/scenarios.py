"""Seeded scenario generators for the four benchmark workloads.

Everything here uses numpy only, never ``iotax``: spectral radii come from
``numpy.linalg.eigvals`` (as in ``tests/conftest.py``) and balanced gross
output from a dense solve of ``(E - A) x = f``.  A workload is a fixed list
of :class:`Scenario` objects; :func:`write_workload` writes their documents
to disk before any timing starts, so the program under test sees only
files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("report-dense", "price-slowmix", "clear-partial", "batch-report")


@dataclass
class Scenario:
    """One scenario: the command to run, the arrays of its document, and
    what the oracles need to know about it."""

    name: str
    family: str
    command: str            # "report", "check-tax" or "clear"
    n: int
    doc: dict               # arrays of the document written as <name>.json
    pi: np.ndarray | None = None          # check-tax rates, written as <name>.pi.json
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------- matrices

def _scale_to_radius(A: np.ndarray, rho: float) -> np.ndarray:
    return A * (rho / float(np.max(np.abs(np.linalg.eigvals(A)))))


def dense_irreducible(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense nonnegative matrix with a full cycle (irreducible), 30% zeros,
    scaled to a spectral radius drawn from U(0.3, 0.9)."""
    A = rng.uniform(0.0, 1.0, size=(n, n))
    A[rng.uniform(size=(n, n)) < 0.3] = 0.0
    idx = np.arange(n)
    A[idx, (idx + 1) % n] = np.maximum(A[idx, (idx + 1) % n], 0.2)
    return _scale_to_radius(A, rng.uniform(0.3, 0.9))


def long_cycle(n: int) -> np.ndarray:
    """``A = 0.5 S + 1e-3 E``: the cyclic shift ``a[k, k+1] = 0.5`` plus a
    small diagonal.  Irreducible, spectral radius 0.501, and the price
    iteration mixes in O(n^2) steps."""
    A = 1e-3 * np.eye(n)
    idx = np.arange(n)
    A[idx, (idx + 1) % n] += 0.5
    return A


def coupled_blocks(rng: np.random.Generator, eps: float, size: int = 20) -> np.ndarray:
    """Two dense ``size x size`` blocks coupled by off-diagonal blocks of
    order ``eps``; spectral radius of the whole matrix scaled to 0.6."""
    n = 2 * size
    A = eps * rng.uniform(0.5, 1.0, size=(n, n))
    A[:size, :size] = rng.uniform(0.1, 1.0, size=(size, size))
    A[size:, size:] = rng.uniform(0.1, 1.0, size=(size, size))
    scale = 0.6 / float(np.max(np.abs(np.linalg.eigvals(A))))
    A[:size, :size] *= scale
    A[size:, size:] *= scale
    return A


# ---------------------------------------------------------------- documents

def balanced_economy(rng: np.random.Generator, A: np.ndarray, mixed: bool) -> dict:
    """Economy document on A with ``x = (E - A)^(-1) f``.

    Exports and imports are nonzero so that every vector key is exercised.
    In the mixed regime about a tenth of the industries get negative final
    demand; their magnitude is halved until gross output stays positive.
    """
    n = A.shape[0]
    f = rng.uniform(0.5, 1.5, size=n)
    if mixed:
        negative = rng.choice(n, size=max(1, n // 10), replace=False)
        depth = rng.uniform(0.05, 0.3, size=negative.size)
        while True:
            f[negative] = -depth
            x = np.linalg.solve(np.eye(n) - A, f)
            if np.all(x > 0):
                break
            depth = depth / 2.0
    else:
        x = np.linalg.solve(np.eye(n) - A, f)
    e = rng.uniform(0.0, 0.2, size=n)
    i = rng.uniform(0.0, 0.2, size=n)
    c = f - e + i
    return {"A": A, "x": x, "c": c, "e": e, "i": i}


def perfect_rates(doc: dict) -> np.ndarray:
    """Perfect-tax rates ``pi = 1 - b (A x) / x`` at the midpoint scale
    ``b = min(x / A x) / 2`` (the CLI's default scale)."""
    x = doc["x"]
    w = doc["A"] @ x
    return 1.0 - (float(np.min(x / w)) / 2.0) * w / x


def clearing_instance(rng: np.random.Generator, n: int) -> dict:
    """Raw ``{A, b}`` document: dense positive A scaled to spectral radius
    0.7, ``b = (1 - pi) o x`` with ``pi ~ U(0.2, 0.6)`` and balanced x."""
    A = _scale_to_radius(rng.uniform(0.0, 1.0, size=(n, n)), 0.7)
    x = np.linalg.solve(np.eye(n) - A, rng.uniform(0.5, 1.5, size=n))
    pi = rng.uniform(0.2, 0.6, size=n)
    return {"A": A, "b": (1.0 - pi) * x}


# ---------------------------------------------------------------- workloads

def _economy(rng, name, family, A, mixed, **meta) -> Scenario:
    doc = balanced_economy(rng, A, mixed)
    return Scenario(name=name, family=family, command="report", n=A.shape[0],
                    doc=doc, meta=dict(meta, mixed=mixed))


def report_dense(rng: np.random.Generator) -> list[Scenario]:
    """Many small reports and fewer large ones, sized so that the median call
    is an n=10 report and the 90th percentile an n=400 report.  A third of
    the economies are mixed-regime; ``check-tax`` runs on the perfect rates
    of every third economy with n < 400."""
    scenarios = []
    for n, count in ((10, 24), (100, 6), (400, 8)):
        for k in range(count):
            scenarios.append(_economy(rng, f"dense{n}_{k:02d}", "dense",
                                      dense_irreducible(rng, n), mixed=k % 3 == 1))
    checks = [Scenario(name=s.name + "_check", family="dense", command="check-tax",
                       n=s.n, doc=s.doc, pi=perfect_rates(s.doc),
                       meta={"economy": s.name})
              for s in scenarios[:30:3]]
    return scenarios + checks


def price_slowmix(rng: np.random.Generator) -> list[Scenario]:
    scenarios = [_economy(rng, f"cycle{n}", "cycle", long_cycle(n), mixed=False)
                 for n in (50, 100, 150)]
    for eps in (1e-3, 1e-7, 1e-12):
        scenarios.append(_economy(rng, f"blocks_eps{eps:.0e}", "blocks",
                                  coupled_blocks(rng, eps), mixed=False, eps=eps))
    return scenarios


def clear_partial(rng: np.random.Generator) -> list[Scenario]:
    """Many small instances (n <= 8, enumeration oracle) and a few large
    ones.  1200 small instances keep the seed-to-seed spread of the share
    of equilibria found within a few percent."""
    scenarios = []
    for n, count in ((4, 400), (6, 400), (8, 400), (100, 2), (200, 1)):
        for k in range(count):
            scenarios.append(Scenario(name=f"clear{n}_{k:03d}", family="clear",
                                      command="clear", n=n,
                                      doc=clearing_instance(rng, n)))
    return scenarios


def batch_report(rng: np.random.Generator) -> list[Scenario]:
    """Sixteen scenarios for one ``--batch`` call: eight long cycles (Python
    loop bound) and eight dense economies (BLAS bound)."""
    scenarios = [_economy(rng, f"b_cycle50_{k}", "cycle", long_cycle(50), mixed=False)
                 for k in range(8)]
    scenarios += [_economy(rng, f"b_dense200_{k}", "dense", dense_irreducible(rng, 200),
                           mixed=k % 3 == 1) for k in range(8)]
    return scenarios


GENERATORS = {
    "report-dense": report_dense,
    "price-slowmix": price_slowmix,
    "clear-partial": clear_partial,
    "batch-report": batch_report,
}


def generate(workload: str, seed: int) -> list[Scenario]:
    """The workload's scenario list; the same seed gives the same list."""
    return GENERATORS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))


def write_workload(scenarios: list[Scenario], directory: Path) -> None:
    """Write every scenario document (and ``--pi`` vector) into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    written = set()
    for s in scenarios:
        economy = s.meta.get("economy", s.name)
        if economy not in written:
            doc = {key: value.tolist() for key, value in s.doc.items()}
            (directory / f"{economy}.json").write_text(json.dumps(doc), encoding="utf-8")
            written.add(economy)
        if s.pi is not None:
            (directory / f"{s.name}.pi.json").write_text(json.dumps(s.pi.tolist()),
                                                         encoding="utf-8")
