"""Solution families, minimal excess supply, and partial-clearing equilibria."""

import dataclasses

import numpy as np
import pytest

from conftest import random_clearing_instance, random_simplex
from iotax import (
    ClearingMethod,
    ClearingProblem,
    PriceVector,
    alpha_from_solution,
    equilibrium_from_solution,
    min_excess_solution,
    ray_bounds,
    scale_function,
    solution_from_alpha,
    solve_clearing,
    support_solution,
    verify_partial_clearing,
)
from iotax.clearing import (
    ClearingConfig,
    ClearingEquilibrium,
    _clearing_rows,
    _equilibrium,
    _kkt_residual,
)
from iotax.equilibrium import Normalization, _demand
from iotax.errors import (
    ConvergenceError,
    DegenerateSupportError,
    DimensionError,
    DomainError,
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


def test_alpha_from_solution_rejects_as_the_equilibrium_does():
    # The same checks, and messages, as a z given to solve_clearing.
    for z, error, message in (([-0.1, 0.1], NotASolutionError, "z has negative components"),
                              ([0.0, 0.0], NotASolutionError, "z is the zero vector"),
                              ([1.0, 1.0], NotASolutionError, "z violates A z <= b"),
                              ([0.1, 0.1], DegenerateSupportError,
                               "no row of A z = b holds with equality")):
        with pytest.raises(error, match=f"^{message}$"):
            alpha_from_solution(COLLINEAR, z)
    assert issubclass(DegenerateSupportError, NotASolutionError)


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


def test_scale_function_on_a_stack_matches_each_point():
    # Bit for bit, including wide problems and sizes where BLAS may thread.
    rng = np.random.default_rng(67)
    problems = [random_clearing_instance(rng, max_rows=int(rng.choice([8, 30])))
                for _ in range(40)]
    problems += [ClearingProblem(C=rng.uniform(size=(n, l)), b=rng.uniform(1.0, 2.0, size=n))
                 for n, l in ((400, 400), (100, 97), (5, 40))]
    for problem in problems:
        samples = random_simplex(rng, problem.l, size=int(rng.integers(1, 200)))
        samples[0] = np.eye(problem.l)[0]  # a vertex, where other rows hit the guard
        scales = scale_function(problem, samples)
        assert scales.shape == (samples.shape[0],)
        each = np.array([scale_function(problem, alpha) for alpha in samples])
        assert np.array_equal(scales.view(np.int64), each.view(np.int64))
    assert scale_function(COLLINEAR, np.empty((0, 2))).shape == (0,)


@pytest.mark.parametrize("rows, error", [
    pytest.param([[0.5, 0.5], [0.6, 0.5]], DomainError, id="sum-off"),
    pytest.param([[0.5, 0.5], [1.1, -0.1]], DomainError, id="negative"),
    pytest.param([[0.5, 0.5], [np.nan, 0.5]], DomainError, id="nan"),
    pytest.param([[1.0], [1.0]], DimensionError, id="row-length"),
])
def test_scale_function_checks_every_point_of_a_stack(rows, error):
    with pytest.raises(error):
        scale_function(COLLINEAR, np.array(rows))
    with pytest.raises(error):  # the same point alone
        scale_function(COLLINEAR, rows[-1])
    # Roundoff below zero is clipped, as for a single point.
    assert scale_function(COLLINEAR, np.array([[1.0 + 1e-13, -1e-13]]))[0] == \
        scale_function(COLLINEAR, [1.0 + 1e-13, -1e-13])


def test_scale_function_returns_an_array_for_any_two_dimensional_input():
    # A single point given as one row is a stack of one, as list or as array.
    alone = scale_function(COLLINEAR, [0.25, 0.75])
    assert isinstance(alone, float)
    for one_row in ([[0.25, 0.75]], np.array([[0.25, 0.75]])):
        scales = scale_function(COLLINEAR, one_row)
        assert isinstance(scales, np.ndarray) and scales.shape == (1,)
        assert scales[0] == alone
    assert np.array_equal(scale_function(COLLINEAR, [[0.25, 0.75], [1.0, 0.0]]),
                          scale_function(COLLINEAR, np.array([[0.25, 0.75], [1.0, 0.0]])))


@pytest.mark.parametrize("alpha, error", [
    pytest.param(0.5, DimensionError, id="scalar"),
    pytest.param(np.full((1, 1, 2), 0.5), DimensionError, id="three-dimensional"),
    pytest.param([[0.5, 0.5], [1.0]], DomainError, id="ragged"),
    pytest.param(["a", "b"], DomainError, id="text"),
])
def test_scale_function_rejects_other_shapes(alpha, error):
    with pytest.raises(error):
        scale_function(COLLINEAR, alpha)


def test_solution_from_alpha_takes_one_point_only():
    with pytest.raises(DimensionError):
        solution_from_alpha(COLLINEAR, [[0.5, 0.5]])


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
    full = min_excess_solution(ClearingProblem(C=np.eye(2), b=[1.0, 1.0]))
    assert full.full_clearing and full.qp_iterations == counts[1] > 0
    assert len(counts) == 2
    assert solution_from_alpha(SINGLE, [1.0]).qp_iterations is None


@pytest.mark.parametrize("n", [4, 6, 8])
def test_full_clearing_verdict_matches_nnls(n):
    # Full clearing is read off the QP's minimal-excess point; it must agree
    # with an exact nonnegative solve (SciPy's NNLS residual within the same
    # gate) on the benchmark's clearing instances.
    from scipy.optimize import nnls

    from iotax.clearing import FULL_CLEARING_GATE
    from test_qp import clearing_instance

    verdicts = []
    for seed in range(100):
        problem = clearing_instance(seed, n)
        z, _ = nnls(problem.C, problem.b)
        gate = FULL_CLEARING_GATE * max(1.0, float(np.max(problem.b)))
        expected = float(np.max(np.abs(problem.C @ z - problem.b))) <= gate
        assert min_excess_solution(problem).full_clearing == expected
        verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)


def test_full_clearing_gate_and_certificate(monkeypatch):
    # A residual of 5e-7 is excess supply, not full clearing; a zero
    # objective needs no KKT certificate, any other point does.
    import iotax.clearing as clearing

    near = ClearingProblem(C=[[1.0], [1.0]], b=[1.0, 1.0 + 1e-6])
    family = min_excess_solution(near)
    assert not family.full_clearing and family.objective == pytest.approx(5e-13, rel=1e-6)
    monkeypatch.setattr(clearing, "_kkt_residual", lambda *args: 1.0)
    assert min_excess_solution(ClearingProblem(C=np.eye(2), b=[1.0, 1.0])).full_clearing
    with pytest.raises(ConvergenceError, match="KKT residual 1.000e"):
        min_excess_solution(near)


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


def test_kkt_certificate_rejects_wrong_points_and_multipliers():
    # SINGLE's optimum z = 0.5 holds row 1 at equality with multiplier 0.5.
    C, b = SINGLE.C, SINGLE.b
    z, nu = np.array([0.5]), np.array([0.0, 0.5])
    assert _kkt_residual(C, b, z, nu) <= 1e-15
    assert _kkt_residual(C, b, 0.5 * z, nu) > 1e-8               # feasible, not optimal
    assert _kkt_residual(C, b, z, np.array([0.0, -0.5])) > 1e-8  # one multiplier negated
    # A vertex on rows 0 and 1 that is not optimal: its only multipliers
    # satisfying stationarity are (0.9, -0.81, 0), and a negative one must
    # not pass for a certificate.
    vertex = ClearingProblem(C=[[1.0, 1.0], [0.0, 1.0], [1.0, 0.1]], b=[1.0, 0.5, 1.0])
    z = np.array([0.5, 0.5])
    assert _kkt_residual(vertex.C, vertex.b, z, np.array([0.9, -0.81, 0.0])) > 1e-8
    family = min_excess_solution(vertex)
    assert family.objective < float(np.sum((vertex.b - vertex.C @ z) ** 2))
    assert family.kkt_residual <= 1e-8


@pytest.mark.parametrize("C, b", [
    # Square: columns 0 and 4 are nonzero only in row 3.
    ([[0, 0, 0, 0.5425, 0], [0, 0.7608, 0, 0.7685, 0], [0, 0.8923, 0.8875, 1.0042, 0],
      [0.6904, 0, 0.9389, 0.421, 0.1122], [0, 0.5877, 0, 0, 0]],
     [0.7612, 1.1494, 0.8654, 1.256, 1.3529]),
    # Wide: columns 0 and 3 are nonzero only in row 1.
    ([[0, 0.155, 0.9202, 0, 0.2367, 0], [0.7665, 0.7312, 0.1155, 0.7934, 0.7583, 0],
      [0, 0.3926, 0.8665, 0, 1.0715, 0.1938], [0, 0, 0.2576, 0, 0, 0]],
     [0.5569, 1.1345, 0.6885, 0.7145]),
])
def test_min_excess_parallel_columns_terminate(C, b):
    # Only the ridge separates two parallel columns, so the re-solve after a
    # full step returns noise, which must not be taken for a step.
    family = min_excess_solution(ClearingProblem(C=C, b=b))
    assert family.kkt_residual <= 1e-8
    assert family.qp_iterations < 50


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


def _equilibrium_at(A, b, z, price, cfg=ClearingConfig()):
    """The clearing core at given prices, as report calls it."""
    return _equilibrium(A, b, z, _clearing_rows(A, b, z, cfg.tol_eq), price, cfg)[0]


def test_equilibrium_at_known_prices():
    # The same equilibrium from prices solved elsewhere; prices that do not
    # vanish on the slack row are refused.
    z = np.array([0.0, 0.25])
    solved = equilibrium_from_solution(A_FIX, B_FIX, z)
    reused = _equilibrium_at(A_FIX, B_FIX, z, solved.p)
    assert reused.R == solved.R and np.array_equal(reused.p_u, solved.p_u)
    wrong = PriceVector(p=[0.5, 0.5], normalization=solved.p.normalization,
                        lambda_residual=0.0, fp_residual=0.0)
    with pytest.raises(NoEquilibriumError, match="vanish"):
        _equilibrium_at(A_FIX, B_FIX, z, wrong)


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


def test_restricted_solve_failure_names_the_industry():
    # A z = [1, 1] against b = [2, 1], so only row 1 clears, and there
    # (A_II z_I) = A[1, 1] z[1] = 0, while (A z)[1] = 1.
    with pytest.raises(NoEquilibriumError, match=r"\(A_II z_I\) at industry 1 is 0\.0,"):
        equilibrium_from_solution([[1, 0], [1, 1]], [2, 1], [1, 0])


def _same_equilibrium(a: ClearingEquilibrium, b: ClearingEquilibrium) -> bool:
    return (a.I_set == b.I_set and a.R == b.R and np.array_equal(a.z, b.z)
            and np.array_equal(a.p.p, b.p.p) and np.array_equal(a.p_u, b.p_u))


def test_solve_clearing_reports_each_method():
    # A given z; the minimal-excess z, which verifies; and the support
    # retry, after the minimal-excess z = [1, 0] of the last case fails
    # (see the test above): the restricted solve on I = [1] gives [0, 1].
    given = solve_clearing(A_FIX, B_FIX, [0.0, 0.25])
    assert given.method is ClearingMethod.GIVEN
    assert _same_equilibrium(given.equilibrium,
                             equilibrium_from_solution(A_FIX, B_FIX, [0.0, 0.25]))
    assert (given.objective, given.full_clearing, given.kkt_residual,
            given.qp_iterations) == (None, None, None, None)
    assert given.check == verify_partial_clearing(A_FIX, B_FIX, given.equilibrium)
    cases = [(A_FIX, B_FIX, ClearingMethod.MIN_EXCESS, [0.1, 0.2]),
             ([[1.0, 0.0], [1.0, 1.0]], [2.0, 1.0], ClearingMethod.SUPPORT_RETRY, [0.0, 1.0])]
    for A, b, method, z in cases:
        result = solve_clearing(A, b)
        family = min_excess_solution(ClearingProblem(C=A, b=b))
        assert result.method is method
        assert np.allclose(result.equilibrium.z, z, rtol=0, atol=1e-12)
        assert (result.objective, result.full_clearing, result.kkt_residual,
                result.qp_iterations) == (family.objective, family.full_clearing,
                                          family.kkt_residual, family.qp_iterations)
        retried = not np.array_equal(family.z, result.equilibrium.z)
        assert retried == (method is ClearingMethod.SUPPORT_RETRY)
        assert result.check == verify_partial_clearing(A, b, result.equilibrium)


def test_solve_clearing_rejects_a_non_square_a():
    with pytest.raises(DimensionError, match="square"):
        solve_clearing([[1.0, 2.0]], [1.0])
    with pytest.raises(DimensionError, match="square"):
        solve_clearing([[1.0, 2.0]], [1.0], [0.5, 0.0])


def test_solve_clearing_raises_when_both_candidates_fail():
    # The minimal-excess z fails the demand check, and so does the
    # support-restricted solve on its equality rows.
    A, b = np.array([[2.0, 0.0], [1.0, 2.0]]), np.array([1.0, 3.0])
    z = min_excess_solution(ClearingProblem(C=A, b=b)).z
    retry = support_solution(A, b, np.flatnonzero(b - A @ z <= 1e-9 * b))
    assert retry is not None
    for candidate in (z, retry):
        with pytest.raises(NoEquilibriumError, match="not satisfied"):
            equilibrium_from_solution(A, b, candidate)
    with pytest.raises(NoEquilibriumError, match="not satisfied"):
        solve_clearing(A, b)


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


def _row_verdicts(A, b, p, in_I, tol):
    """Each row's verdict, one row at a time in scalar arithmetic."""
    demand, _ = _demand(A, b, p)
    verdicts = []
    for k in range(len(b)):
        band = tol * max(1.0, float(b[k]))
        if in_I[k]:
            verdicts.append(abs(float(demand[k]) - float(b[k])) <= band)
        else:
            verdicts.append(float(b[k]) - float(demand[k]) > band)
    return demand, verdicts


def test_row_verdicts_match_a_per_row_check():
    # The failure message of an equilibrium at given prices and the rows of
    # verify_partial_clearing agree with a scalar check of every row, under
    # a band that some rows meet and others miss; a price on a slack row
    # fails that row.
    rng = np.random.default_rng(71)
    outcomes = set()
    for trial in range(300):
        n = int(rng.integers(2, 9))
        A = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7) + 0.05 * np.eye(n)
        if trial % 5 == 0:  # industry 1 costs nothing, so its supply value is dropped
            A[:, 0] = 0.0
            A[0, 1] += 0.5
        in_I = rng.uniform(size=n) < 0.6
        in_I[0] = True
        z = np.ones(n)
        b = np.where(in_I, A @ z, A @ z + rng.uniform(0.01, 1.0, size=n))  # z's equality rows: I
        p = np.where(in_I, rng.uniform(0.1, 1.0, size=n), 0.0)
        demand, _ = _demand(A, b, p)
        tol = max(1e-12, float(rng.choice(np.abs(demand - b) / np.maximum(1.0, b))))
        _, verdicts = _row_verdicts(A, b, p, in_I, tol)
        failing = [k for k, ok in enumerate(verdicts) if not ok]
        price = PriceVector(p=p, normalization=Normalization.SUM_TO_ONE, lambda_residual=0.0,
                            fp_residual=0.0)
        try:
            _equilibrium_at(A, b, z, price, ClearingConfig(verify_tol=tol))
        except NoEquilibriumError as exc:
            assert f"the demand system is not satisfied at rows {failing};" in str(exc)
            outcomes.add("rejected")
        else:
            assert failing == [] and trial % 5
            outcomes.add("accepted")

        if trial % 2:
            p[~in_I] = rng.choice([0.0, 1e-9, 0.2], size=int((~in_I).sum()))
        equilibrium = ClearingEquilibrium(
            z=z, I_set=frozenset(np.flatnonzero(in_I).tolist()),
            J_set=frozenset(np.flatnonzero(~in_I).tolist()), b_bar=A @ z, p_u=p, R=0.0,
            p=dataclasses.replace(price, p=p))
        check = verify_partial_clearing(A, b, equilibrium, tol)
        demand, verdicts = _row_verdicts(A, b, p, in_I, tol)
        verdicts = [ok and (clears or price <= tol * p.max())
                    for ok, clears, price in zip(verdicts, in_I, p)]
        assert [(row.industry, row.demand, row.bound, row.in_I, row.ok) for row in check.rows] \
            == [(k, float(demand[k]), float(b[k]), bool(in_I[k]), verdicts[k]) for k in range(n)]
        assert check.ok == (all(verdicts) and trial % 5 != 0)
        outcomes.update(("row", row.in_I, row.ok) for row in check.rows)
    assert outcomes == {"accepted", "rejected", ("row", True, True), ("row", True, False),
                        ("row", False, True), ("row", False, False)}


def test_support_solution_fixture():
    z = support_solution(A_FIX, B_FIX, [1])
    assert np.allclose(z, [0.0, 0.25], atol=1e-12)
    assert support_solution(A_FIX, B_FIX, [0]) is None
    assert support_solution(A_FIX, B_FIX, [0, 1]) is None


NEGATIVE = [[0.5, -0.1], [0.2, 0.3]]
NAN = [[1.0, np.nan], [2.0, 4.0]]


@pytest.mark.parametrize("call, A, b, error", [
    pytest.param("support", NAN, B_FIX, DomainError, id="support-nan"),
    pytest.param("support", A_FIX, [1.0], DimensionError, id="support-short-b"),
    pytest.param("support", NEGATIVE, [1.0, 1.0], DomainError, id="support-negative"),
    pytest.param("support", A_FIX, [1.0, -1.0], DomainError, id="support-negative-b"),
    pytest.param("verify", NAN, B_FIX, DomainError, id="verify-nan"),
    pytest.param("verify", A_FIX, [1.0], DimensionError, id="verify-short-b"),
    pytest.param("verify", NEGATIVE, [1.0, 1.0], DomainError, id="verify-negative"),
    pytest.param("verify", A_FIX, [1.0, 0.0], DomainError, id="verify-zero-b"),
    pytest.param("verify", 0.5 * np.eye(3), np.ones(3), DimensionError,
                 id="verify-other-size"),  # checked against a 2x2 equilibrium
])
def test_support_and_verify_validate_inputs(call, A, b, error):
    with pytest.raises(error):
        if call == "support":
            support_solution(A, b, [0, 1])
        else:
            equilibrium = equilibrium_from_solution(A_FIX, B_FIX, [0.0, 0.25])
            verify_partial_clearing(A, b, equilibrium)


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
