"""Solution families, minimal excess supply, and partial-clearing equilibria."""

import dataclasses

import numpy as np
import pytest

from conftest import random_clearing_instance, random_simplex
from iotax import (
    ClearingProblem,
    PriceVector,
    alpha_from_solution,
    equilibrium_from_solution,
    min_excess_solution,
    ray_bounds,
    scale_function,
    solution_from_alpha,
    support_solution,
    verify_partial_clearing,
)
from iotax.clearing import equilibrium_at_prices
from iotax.errors import (
    DegenerateSupportError,
    NoEquilibriumError,
    NotASolutionError,
    ZeroColumnError,
)

SINGLE = ClearingProblem(C=[[1.0], [2.0]], b=[1.0, 1.0])
COLLINEAR = ClearingProblem(C=[[1.0, 2.0], [2.0, 4.0]], b=[1.0, 1.0])
A_FIX = np.array([[1.0, 2.0], [2.0, 4.0]])
B_FIX = np.array([1.0, 1.0])


def brute_force_objective(problem: ClearingProblem, step: float = 1e-3,
                          refinements: int = 2) -> float:
    """Grid search for min ||b - C z||^2 via the simplex parametrization.

    The family z(alpha) = c(alpha) (alpha o d) covers every solution with an
    equality row, and its minimum equals the minimum over all feasible z.
    Two rounds of local grid refinement sharpen the value near kinks.
    """
    C, b, d = problem.C, problem.b, ray_bounds(problem)
    l = problem.l
    eps = 1e-12 * float(np.max(b))

    def value(points: np.ndarray) -> np.ndarray:
        moved = (points * d) @ C.T  # rows: C (alpha o d)
        scale = np.min(b / np.maximum(moved, eps), axis=1)
        residual = b[np.newaxis, :] - scale[:, np.newaxis] * moved
        return np.einsum("ij,ij->i", residual, residual)

    if l == 1:
        grid = np.ones((1, 1))
    elif l == 2:
        a0 = np.arange(0.0, 1.0 + step / 2, step)
        grid = np.column_stack([a0, 1.0 - a0])
    else:
        a0 = np.arange(0.0, 1.0 + step / 2, step)
        g0, g1 = np.meshgrid(a0, a0, indexing="ij")
        mask = g0 + g1 <= 1.0 + 1e-12
        grid = np.column_stack([g0[mask], g1[mask], 1.0 - g0[mask] - g1[mask]])
        grid = np.maximum(grid, 0.0)
    best_idx = int(np.argmin(value(grid)))
    center = grid[best_idx]
    width = step
    best = float(value(center[np.newaxis, :])[0])
    rng = np.random.default_rng(0)
    for _ in range(refinements):
        local = center + rng.uniform(-width, width, size=(4000, l))
        local = np.maximum(local, 0.0)
        sums = local.sum(axis=1)
        local = local[sums > 0] / sums[sums > 0, np.newaxis]
        values = value(local)
        idx = int(np.argmin(values))
        if values[idx] < best:
            best = float(values[idx])
            center = local[idx]
        width /= 20.0
    return best


def brute_force_z_grid(problem: ClearingProblem, step: float = 1e-3) -> float:
    """Direct grid over feasible z (only sensible for one or two columns)."""
    C, b = problem.C, problem.b
    d = ray_bounds(problem)
    axes = [np.arange(0.0, di + step / 2, step) for di in d]
    if problem.l == 1:
        points = axes[0][:, np.newaxis]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        points = np.column_stack([g0.ravel(), g1.ravel()])
    fitted = points @ C.T
    feasible = np.all(fitted <= b[np.newaxis, :] + 1e-12, axis=1)
    residual = b[np.newaxis, :] - fitted[feasible]
    return float(np.min(np.einsum("ij,ij->i", residual, residual)))


def test_ray_bounds_examples():
    assert np.allclose(ray_bounds(SINGLE), [0.5])
    assert np.allclose(ray_bounds(COLLINEAR), [0.5, 0.25])
    assert np.allclose(ray_bounds(ClearingProblem(C=np.eye(2), b=[3.0, 7.0])), [3.0, 7.0])


def test_zero_column_rejected():
    with pytest.raises(ZeroColumnError):
        ClearingProblem(C=[[1.0, 0.0], [2.0, 0.0]], b=[1.0, 1.0])


def test_scale_function_examples():
    assert scale_function(SINGLE, [1.0]) == pytest.approx(1.0, abs=1e-15)
    assert scale_function(COLLINEAR, [0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    identity = ClearingProblem(C=np.eye(2), b=[1.0, 1.0])
    assert scale_function(identity, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-15)


def test_solution_from_alpha_examples():
    family = solution_from_alpha(COLLINEAR, [0.5, 0.5])
    assert np.allclose(family.z, [0.25, 0.125], atol=1e-15)
    assert np.allclose(COLLINEAR.C @ family.z, [0.5, 1.0], atol=1e-15)
    single = solution_from_alpha(SINGLE, [1.0])
    assert np.allclose(single.z, [0.5], atol=1e-15)
    vertex = solution_from_alpha(COLLINEAR, [0.0, 1.0])
    assert vertex.z[0] == 0.0
    assert vertex.z[1] == pytest.approx(vertex.c_alpha * 0.25, abs=1e-15)


def test_alpha_from_solution_inverse():
    alpha, c = alpha_from_solution(COLLINEAR, [0.25, 0.125])
    assert np.allclose(alpha, [0.5, 0.5], atol=1e-12)
    assert c == pytest.approx(1.0, abs=1e-12)
    alpha1, _ = alpha_from_solution(SINGLE, [0.5])
    assert np.allclose(alpha1, [1.0])


def test_alpha_from_solution_requires_equality_row():
    with pytest.raises(NotASolutionError):
        alpha_from_solution(COLLINEAR, [0.1, 0.1])  # C z = [0.3, 0.6] < b strictly


def test_parametrization_roundtrip_random():
    rng = np.random.default_rng(53)
    for _ in range(40):
        problem = random_clearing_instance(rng)
        alpha = random_simplex(rng, problem.l)
        family = solution_from_alpha(problem, alpha)
        back, c_back = alpha_from_solution(problem, family.z)
        assert np.max(np.abs(back - alpha)) <= 1e-10
        assert abs(c_back - family.c_alpha) <= 1e-10 * max(1.0, family.c_alpha)
        redone = solution_from_alpha(problem, back)
        assert np.max(np.abs(redone.z - family.z)) <= 1e-10 * max(1.0, np.max(family.z))


def test_scale_function_at_least_one_random():
    rng = np.random.default_rng(59)
    for _ in range(20):
        problem = random_clearing_instance(rng)
        for alpha in random_simplex(rng, problem.l, size=50):
            assert scale_function(problem, alpha) >= 1.0 - 1e-12


def test_scale_function_continuity():
    # No jump beyond ten times the local slope, estimated by a tiny step.
    rng = np.random.default_rng(61)
    for _ in range(10):
        problem = random_clearing_instance(rng)
        if problem.l < 2:
            continue
        for _ in range(20):
            alpha = random_simplex(rng, problem.l)
            direction = random_simplex(rng, problem.l) - alpha
            h_small, h_big = 1e-7, 1e-4
            c0 = scale_function(problem, alpha)
            c_small = scale_function(problem, alpha + h_small * direction)
            c_big = scale_function(problem, alpha + h_big * direction)
            slope = abs(c_small - c0) / h_small
            assert abs(c_big - c0) <= 10.0 * (slope + 1e-6) * h_big + 1e-9


def test_min_excess_single_column():
    family = min_excess_solution(SINGLE)
    assert np.allclose(family.z, [0.5], atol=1e-12)
    assert family.objective == pytest.approx(0.25, abs=1e-12)
    assert not family.full_clearing
    assert family.kkt_residual <= 1e-8


def test_min_excess_collinear_min_norm_tiebreak():
    family = min_excess_solution(COLLINEAR)
    assert family.objective == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(family.z, [0.1, 0.2], atol=1e-9)


def test_min_excess_full_clearing_flagged():
    family = min_excess_solution(ClearingProblem(C=np.eye(2), b=[1.0, 1.0]))
    assert family.full_clearing
    assert family.objective == pytest.approx(0.0, abs=1e-18)
    assert np.allclose(family.z, [1.0, 1.0], atol=1e-12)


def test_min_excess_reports_qp_iterations(monkeypatch):
    import iotax.clearing as clearing

    counts = []
    solve_qp = clearing.solve_qp

    def spy(*args, **kwargs):
        solution = solve_qp(*args, **kwargs)
        counts.append(solution.iterations)
        return solution

    monkeypatch.setattr(clearing, "solve_qp", spy)
    family = min_excess_solution(COLLINEAR)
    assert counts and family.qp_iterations == counts[0] > 0
    assert min_excess_solution(ClearingProblem(C=np.eye(2), b=[1.0, 1.0])).qp_iterations == 0
    assert len(counts) == 1
    assert solution_from_alpha(SINGLE, [1.0]).qp_iterations is None


def test_min_excess_matches_brute_force_small():
    rng = np.random.default_rng(67)
    checked = 0
    while checked < 12:
        n = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        C = rng.uniform(0.3, 1.2, size=(n, l))
        b = rng.uniform(0.5, 1.2, size=n)
        try:
            problem = ClearingProblem(C=C, b=b)
        except ZeroColumnError:
            continue
        family = min_excess_solution(problem)
        if family.full_clearing:
            continue
        reference = brute_force_objective(problem)
        assert abs(family.objective - reference) <= 1e-5
        if problem.l <= 2:
            assert abs(family.objective - brute_force_z_grid(problem)) <= 2e-3
        checked += 1


def test_equilibrium_fixture():
    equilibrium = equilibrium_from_solution(A_FIX, B_FIX, [0.0, 0.25])
    assert equilibrium.I_set == frozenset({1})
    assert equilibrium.J_set == frozenset({0})
    assert np.allclose(equilibrium.b_bar, [0.5, 1.0], atol=1e-12)
    assert np.allclose(equilibrium.p.p, [0.0, 1.0], atol=1e-12)
    assert np.allclose(equilibrium.p_u, [2.0, 1.0], atol=1e-12)
    assert equilibrium.R == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert verify_partial_clearing(A_FIX, B_FIX, equilibrium)


def test_equilibrium_full_clearing():
    A = np.array([[0.0, 0.5], [0.5, 0.0]])
    b = np.array([1.0, 1.0])
    equilibrium = equilibrium_from_solution(A, b, [2.0, 2.0])
    assert equilibrium.I_set == frozenset({0, 1})
    assert equilibrium.J_set == frozenset()
    assert equilibrium.R == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(equilibrium.p.p, [0.5, 0.5], atol=1e-12)
    assert verify_partial_clearing(A, b, equilibrium)


def test_equilibrium_with_a_tiny_exact_price():
    # Both rows clear and the block is irreducible, so the prices are
    # (2e-14, 1) up to scale, positive and exact, though p[0] is below the
    # solver tolerance times p[1].
    A = np.array([[0.5, 0.5], [1e-14, 0.5]])
    b = np.array([2.0, 1.0 + 2e-14])
    equilibrium = equilibrium_from_solution(A, b, [2.0, 2.0])
    assert equilibrium.I_set == frozenset({0, 1})
    p = equilibrium.p.p
    assert p[0] / p[1] == pytest.approx(2e-14, rel=1e-12)
    assert verify_partial_clearing(A, b, equilibrium)


def test_equilibrium_at_known_prices():
    # The same equilibrium from prices solved elsewhere; prices that do not
    # vanish on the slack row are refused.
    solved = equilibrium_from_solution(A_FIX, B_FIX, [0.0, 0.25])
    reused = equilibrium_at_prices(A_FIX, B_FIX, [0.0, 0.25], solved.p)
    assert reused.R == solved.R and np.array_equal(reused.p_u, solved.p_u)
    wrong = PriceVector(p=[0.5, 0.5], normalization=solved.p.normalization,
                        lambda_residual=0.0, fp_residual=0.0)
    with pytest.raises(NoEquilibriumError, match="vanish"):
        equilibrium_at_prices(A_FIX, B_FIX, [0.0, 0.25], wrong)


def test_equilibrium_zero_solution_rejected():
    with pytest.raises(DegenerateSupportError):
        equilibrium_from_solution(A_FIX, B_FIX, [0.0, 0.0])


def test_equilibrium_infeasible_z_rejected():
    with pytest.raises(NotASolutionError):
        equilibrium_from_solution(A_FIX, B_FIX, [1.0, 1.0])


def test_equilibrium_detects_misaligned_support():
    # z touches row 0 with equality through column 1 only; the restricted
    # system on {0} has A[0,0] z_0 = 0 != b_0, so no equilibrium exists.
    A = np.array([[0.0, 2.0], [0.0, 4.0]])
    z = np.array([3.0, 0.5])  # A z = [1, 2] vs b = [1, 3]
    with pytest.raises(NoEquilibriumError):
        equilibrium_from_solution(A, np.array([1.0, 3.0]), z)


def test_verify_rejects_perturbed_zero_price():
    equilibrium = equilibrium_from_solution(A_FIX, B_FIX, [0.0, 0.25])
    perturbed = np.array([0.1, 1.0])
    perturbed = perturbed / perturbed.sum()
    broken = dataclasses.replace(
        equilibrium,
        p=PriceVector(p=perturbed, normalization=equilibrium.p.normalization,
                      lambda_residual=0.0, fp_residual=0.0),
    )
    assert not verify_partial_clearing(A_FIX, B_FIX, broken)


def test_verify_homogeneous_in_prices():
    equilibrium = equilibrium_from_solution(A_FIX, B_FIX, [0.0, 0.25])
    scaled = dataclasses.replace(
        equilibrium,
        p=PriceVector(p=17.0 * equilibrium.p.p, normalization=equilibrium.p.normalization,
                      lambda_residual=0.0, fp_residual=0.0),
        p_u=17.0 * equilibrium.p_u,
    )
    assert verify_partial_clearing(A_FIX, B_FIX, scaled)
    ratio = float((B_FIX - scaled.b_bar) @ scaled.p_u / (B_FIX @ scaled.p_u))
    assert ratio == pytest.approx(equilibrium.R, abs=1e-14)


def test_support_solution_fixture():
    z = support_solution(A_FIX, B_FIX, [1])
    assert np.allclose(z, [0.0, 0.25], atol=1e-12)
    assert support_solution(A_FIX, B_FIX, [0]) is None
    assert support_solution(A_FIX, B_FIX, [0, 1]) is None


def test_wide_matrix_family():
    # More columns than rows is legal for the family machinery.
    problem = ClearingProblem(C=[[1.0, 0.5, 0.2], [0.3, 1.0, 0.9]], b=[1.0, 1.0])
    alpha = np.array([0.2, 0.3, 0.5])
    family = solution_from_alpha(problem, alpha)
    assert np.all(problem.C @ family.z <= problem.b + 1e-12)
    back, _ = alpha_from_solution(problem, family.z)
    assert np.allclose(back, alpha, atol=1e-12)
    result = min_excess_solution(problem)
    assert result.full_clearing  # three spanning columns reach b exactly
    assert result.objective == pytest.approx(0.0, abs=1e-16)


def test_excess_supply_range_random():
    rng = np.random.default_rng(71)
    found = 0
    while found < 15:
        n = int(rng.integers(2, 6))
        A = rng.uniform(0.05, 1.0, size=(n, n))
        b = rng.uniform(0.5, 1.5, size=n)
        supports = [frozenset([k]) for k in range(n)] + [frozenset(range(n))]
        for support in supports:
            z = support_solution(A, b, support)
            if z is None:
                continue
            try:
                equilibrium = equilibrium_from_solution(A, b, z)
            except NoEquilibriumError:
                continue
            assert 0.0 <= equilibrium.R < 1.0
            if equilibrium.J_set:
                assert equilibrium.R > 0.0
            else:
                assert equilibrium.R == pytest.approx(0.0, abs=1e-9)
            found += 1
