"""Independent correctness oracles and output checkers.

Nothing here imports ``iotax``.  The price oracle is the stationary vector
of a row-stochastic matrix by Grassmann-Taksar-Heyman elimination
(Oper. Res. 33(5), 1985), which uses no subtractions and is accurate entry
by entry; :func:`gth_exact` is the same elimination in rational arithmetic
and serves as the reference for the float version on small matrices.  The
clearing oracle enumerates candidate equality sets with numpy.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

# Largest allowed forward error of reported prices, relative to the largest
# oracle price (both normalized to sum one).  Reports carry 12 significant
# digits and the solver's own gate is 1e-12, so 1e-8 leaves ample room for
# conditioning on every well-posed input.
PRICE_FWD_TOL = 1e-8
# Relative band for the equality and strict-slack tests on clearing rows.
ROW_TOL = 1e-7
# The excess supply level is a value share in [0, 1); complete clearing
# leaves only rounding noise.
EXCESS_TOL = 1e-12
# Relative tolerance for reported rates, scale constants and subsidies.
VALUE_TOL = 1e-9


# ---------------------------------------------------------------- prices

def gth(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible row-stochastic matrix."""
    M = np.array(P, dtype=float)
    n = M.shape[0]
    for k in range(n - 1, 0, -1):
        s = M[k, :k].sum()
        M[:k, k] /= s
        M[:k, :k] += np.outer(M[:k, k], M[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ M[:k, k]
    return pi / pi.sum()


def gth_exact(P) -> list[Fraction]:
    """GTH elimination in exact rational arithmetic (small n only)."""
    M = [[Fraction(v) for v in row] for row in P]
    n = len(M)
    for k in range(n - 1, 0, -1):
        s = sum(M[k][:k])
        for i in range(k):
            M[i][k] /= s
        for i in range(k):
            for j in range(k):
                M[i][j] += M[i][k] * M[k][j]
    pi = [Fraction(0)] * n
    pi[0] = Fraction(1)
    for k in range(1, n):
        pi[k] = sum(pi[i] * M[i][k] for i in range(k))
    total = sum(pi)
    return [v / total for v in pi]


def price_chain(A: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P = D^-1 V D`` with ``V = A diag(z / Az)`` and ``D = diag(Az)``;
    entry ``P[k, i] = a_ki z_i / (Az)_k``.  Returns (P, Az)."""
    w = A @ z
    return A * z[np.newaxis, :] / w[:, np.newaxis], w


def oracle_prices(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Equilibrium prices ``p = D^-1 pi`` normalized to sum one."""
    P, w = price_chain(A, z)
    p = gth(P) / w
    return p / p.sum()


def price_error(p, reference: np.ndarray) -> float:
    """Forward error of ``p`` relative to the largest reference price."""
    p = np.asarray(p, dtype=float)
    return float(np.max(np.abs(p / p.sum() - reference)) / np.max(reference))


# ---------------------------------------------------------------- clearing

def enumerate_equilibria(A: np.ndarray, b: np.ndarray, first: bool = True) -> list[tuple]:
    """Equality sets I with a partial-clearing equilibrium.

    For each nonempty I (by increasing size), solve ``A[I, I] z_I = b_I``;
    I qualifies when ``z_I >= 0`` and every row outside I keeps strictly
    positive slack.  Returns ``(I, z)`` pairs, only the first when
    ``first`` is set.
    """
    n = A.shape[0]
    found = []
    for size in range(1, n + 1):
        for rows in itertools.combinations(range(n), size):
            I = list(rows)
            sub = A[np.ix_(I, I)]
            z_I, *_ = np.linalg.lstsq(sub, b[I], rcond=None)
            if np.max(np.abs(sub @ z_I - b[I])) > ROW_TOL * max(1.0, np.max(b[I])):
                continue
            if np.min(z_I) < -ROW_TOL * max(1.0, np.max(np.abs(z_I))):
                continue
            z = np.zeros(n)
            z[I] = np.maximum(z_I, 0.0)
            slack = b - A @ z
            outside = np.setdiff1d(np.arange(n), I)
            if outside.size and np.any(slack[outside] <= ROW_TOL * np.maximum(1.0, b[outside])):
                continue
            found.append((tuple(I), z))
            if first:
                return found
    return found


def demand(A: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Nonlinear demand ``sum_i a_ki b_i p_i / (A^T p)_i`` (zero-cost columns
    carry zero price and contribute nothing)."""
    costs = A.T @ p
    shares = np.divide(b * p, costs, out=np.zeros_like(p), where=costs > 0)
    return A @ shares


# ---------------------------------------------------------------- checkers

def _close(a, b, tol=VALUE_TOL) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= tol * max(1.0, float(np.max(np.abs(b))))))


def check_report(out: dict, doc: dict, prices: np.ndarray) -> list[str]:
    """Problems with a ``report --out`` document, empty when it is right."""
    A = np.asarray(doc["A"])
    x = np.asarray(doc["x"])
    problems = []
    if out.get("command") != "report":
        return [f"command is {out.get('command')!r}"]
    if not abs(out.get("excess_supply", 1.0)) <= EXCESS_TOL:
        problems.append(f"excess_supply {out.get('excess_supply')} != 0")
    w = A @ x
    scale_b = float(out["scale_b"])
    if not _close(scale_b, float(np.min(x / w)) / 2.0):
        problems.append("scale_b is not the midpoint of (0, min x/Ax)")
    if not _close(out["pi"], 1.0 - scale_b * w / x):
        problems.append("pi != 1 - b (Ax) / x")
    err = price_error(out["p"], prices)
    if not err <= PRICE_FWD_TOL:
        problems.append(f"price forward error {err:.3e} > {PRICE_FWD_TOL:g}")
    f = np.asarray(doc["c"]) + np.asarray(doc["e"]) - np.asarray(doc["i"])
    if np.any(f < 0):
        expected = x * prices * np.maximum(w / x - 1.0, 0.0)
        got = np.zeros(x.size)
        for k, v in out.get("subsidies", []):
            got[k - 1] = v
        if not _close(got, expected, tol=1e-6):
            problems.append("subsidies disagree with x p (Ax/x - 1)")
    elif "subsidies" in out:
        problems.append("subsidies reported for an all-positive regime")
    return problems


def check_check_tax(out: dict, doc: dict, prices: np.ndarray) -> list[str]:
    """Problems with a ``check-tax --out`` document for perfect-tax rates."""
    if out.get("sustainable") is not True:
        return ["perfect-tax rates reported as not sustainable"]
    problems = []
    x = np.asarray(doc["x"])
    w = np.asarray(doc["A"]) @ x
    if not _close(out["z"], (float(np.min(x / w)) / 2.0) * x, tol=1e-7):
        problems.append("recovered z is not b x")
    err = price_error(out["p"], prices)
    if not err <= PRICE_FWD_TOL:
        problems.append(f"price forward error {err:.3e} > {PRICE_FWD_TOL:g}")
    return problems


def check_clear(out: dict, doc: dict) -> list[str]:
    """Problems with an exit-0 ``clear --out`` document: z >= 0, Az <= b,
    I rows holding with equality and clearing under the nonlinear demand,
    J rows slack with zero price."""
    A = np.asarray(doc["A"])
    b = np.asarray(doc["b"])
    n = b.size
    z = np.asarray(out["z"])
    p = np.asarray(out["p"])
    I = [k - 1 for k in out["I"]]
    J = [k - 1 for k in out["J"]]
    problems = []
    if sorted(I + J) != list(range(n)) or not I:
        return ["I and J do not partition the industries (or I is empty)"]
    band = ROW_TOL * np.maximum(1.0, b)
    slack = b - A @ z
    if np.min(z) < 0 or not np.any(z > 0):
        problems.append("z is not nonnegative and nonzero")
    if np.any(slack < -band):
        problems.append("A z exceeds b")
    if np.any(np.abs(slack[I]) > band[I]):
        problems.append("an I row does not hold with equality")
    if J and np.any(slack[J] <= band[J]):
        problems.append("a J row has no slack")
    if np.min(p) < 0 or not np.any(p > 0):
        problems.append("prices are not nonnegative and nonzero")
    elif J and np.max(p[J]) > ROW_TOL * np.max(p):
        problems.append("a J row has a nonzero price")
    else:
        d = demand(A, b, p)
        if np.any(np.abs(d[I] - b[I]) > band[I]):
            problems.append("an I row does not clear under the reported prices")
        if J and np.any(b[J] - d[J] <= band[J]):
            problems.append("demand reaches supply on a J row")
    return problems
