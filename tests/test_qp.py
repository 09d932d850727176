"""The bound-aware active-set QP against enumeration and its KKT conditions."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from iotax import ClearingProblem, min_excess_solution
from iotax import _qp
from iotax._qp import solve_qp
from iotax.errors import ConvergenceError


def random_problem(rng: np.random.Generator):
    """Strictly convex QP with l <= 5 variables and a rectangular C, b >= 0."""
    l = int(rng.integers(1, 6))
    k = int(rng.integers(1, 5))
    if k == l:
        k += 1
    M = rng.standard_normal((l, l))
    H = M @ M.T + 0.5 * np.eye(l)
    g = rng.uniform(-3.0, 1.0, size=l)
    C = rng.uniform(-0.5, 1.5, size=(k, l))
    b = rng.uniform(0.0, 2.0, size=k)
    b[rng.uniform(size=k) < 0.2] = 0.0  # degenerate vertices at the start
    return H, g, C, b


def enumerated_minimizer(H, g, C, b) -> np.ndarray:
    """Best feasible stationary point over all working sets of bounds and rows."""
    l = H.shape[0]
    G = np.vstack([-np.eye(l), C])
    h = np.concatenate([np.zeros(l), b])
    best, best_value = None, np.inf
    for size in range(G.shape[0] + 1):
        for active in itertools.combinations(range(G.shape[0]), size):
            G_w = G[list(active)]
            kkt = np.block([[H, G_w.T], [G_w, np.zeros((size, size))]])
            if np.linalg.matrix_rank(kkt) < l + size:
                continue
            z = np.linalg.solve(kkt, np.concatenate([-g, h[list(active)]]))[:l]
            if np.all(G @ z <= h + 1e-9):
                value = 0.5 * z @ H @ z + g @ z
                if value < best_value:
                    best, best_value = z, value
    return best


def kkt_violation(H, g, C, b, solution) -> float:
    """Largest violation of stationarity, feasibility, dual sign and
    complementarity, with multipliers ordered bounds first, then rows."""
    z, mu = solution.z, solution.multipliers
    l = z.size
    mu_z, mu_rows = mu[:l], mu[l:]
    slack = b - C @ z
    return max(
        float(np.max(np.abs(H @ z + g - mu_z + C.T @ mu_rows))),
        float(max(0.0, -z.min(), -slack.min(), -mu.min())),
        float(np.max(np.abs(mu_z * z))),
        float(np.max(np.abs(mu_rows * slack))),
    )


def test_matches_active_set_enumeration():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        H, g, C, b = random_problem(rng)
        solution = solve_qp(H, g, C, b)
        reference = enumerated_minimizer(H, g, C, b)
        assert np.allclose(solution.z, reference, atol=1e-8)


def test_multipliers_satisfy_kkt():
    rng = np.random.default_rng(7)
    for _ in range(60):
        H, g, C, b = random_problem(rng)
        solution = solve_qp(H, g, C, b)
        assert solution.multipliers.shape == (H.shape[0] + C.shape[0],)
        assert kkt_violation(H, g, C, b, solution) <= 1e-9
        # The final working set: its constraints hold with equality, and
        # every constraint outside it has multiplier zero.
        l, rows = H.shape[0], solution.working_rows
        assert (np.all(solution.z[~solution.free] == 0.0)
                and np.allclose(C[rows] @ solution.z, b[rows], rtol=0.0, atol=1e-9)
                and np.all(solution.multipliers[:l][solution.free] == 0.0)
                and np.all(solution.multipliers[l:][~rows] == 0.0))


def test_bound_multiplier_on_fixed_variable():
    # min 0.5 |z|^2 + z_0 - z_1: z_0 rests on its bound with multiplier 1.
    solution = solve_qp(np.eye(2), [1.0, -1.0], [[1.0, 1.0]], [5.0])
    assert np.allclose(solution.z, [0.0, 1.0], atol=1e-14)
    assert np.allclose(solution.multipliers, [1.0, 0.0, 0.0], atol=1e-14)


def test_singular_reduced_kkt_falls_back_to_lstsq(monkeypatch):
    # H is singular on z_1, so the first step's system has no LU factor.
    calls = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(_qp.np.linalg, "lstsq", spy)
    solution = solve_qp(np.diag([1.0, 0.0]), [-1.0, 1.0], [[1.0, 1.0]], [4.0])
    assert calls
    assert np.allclose(solution.z, [1.0, 0.0], atol=1e-14)


def test_iteration_cap_raises():
    H = np.eye(3)
    g = -np.ones(3)
    C = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])
    b = np.array([0.5, 0.5])
    assert solve_qp(H, g, C, b).iterations > 1
    with pytest.raises(ConvergenceError):
        solve_qp(H, g, C, b, max_iter=1)


def clearing_instance(seed: int, n: int) -> ClearingProblem:
    """Dense positive A at spectral radius 0.7, b = (1 - pi) o x with
    pi ~ U(0.2, 0.6) and balanced x, as in the clearing benchmark."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, size=(n, n))
    A *= 0.7 / float(np.max(np.abs(np.linalg.eigvals(A))))
    x = np.linalg.solve(np.eye(n) - A, rng.uniform(0.5, 1.5, size=n))
    pi = rng.uniform(0.2, 0.6, size=n)
    return ClearingProblem(C=A, b=(1.0 - pi) * x)


@pytest.mark.parametrize("n, steps", [(4, 7), (8, 21), (30, 75)])
def test_pinned_iteration_counts(n, steps):
    # Counts of the working-set method with the bounds stacked as rows of
    # one dense KKT system; keeping them out must not change the path.
    family = min_excess_solution(clearing_instance(2, n))
    assert not family.full_clearing
    assert family.qp_iterations == steps
