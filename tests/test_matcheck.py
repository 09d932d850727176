"""Matrix structure: irreducibility, spectral radius, Leontief inverse, cone tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import nnls as scipy_nnls

from conftest import random_irreducible_productive
from iotax import ConeRegion, analyze_matrix, cone_membership
from iotax import matcheck
from iotax.errors import ConvergenceError, DomainError, NotProductiveError, SingularSystemError
from iotax.matcheck import ARNOLDI_FIRST_CHECK, gated_solve, nnls, spectral_radius


def test_analyze_anti_diagonal():
    profile = analyze_matrix([[0.0, 0.5], [0.5, 0.0]])
    assert profile.irreducible
    assert abs(profile.spectral_radius - 0.5) < 1e-9
    assert profile.productive
    expected = np.array([[4.0, 2.0], [2.0, 4.0]]) / 3.0
    assert np.allclose(profile.leontief_inverse, expected, atol=1e-10)


def test_analyze_block_diagonal_reducible():
    profile = analyze_matrix([[0.5, 0.0], [0.0, 0.5]])
    assert not profile.irreducible
    assert abs(profile.spectral_radius - 0.5) < 1e-9


def test_analyze_unproductive_diagonal():
    profile = analyze_matrix([[1.1, 0.0], [0.0, 0.5]])
    assert not profile.productive
    assert abs(profile.spectral_radius - 1.1) < 1e-9
    assert profile.leontief_inverse is None


def test_periodic_matrix_radius():
    # Eigenvalues +1 and -1 share the modulus; the radius is the rightmost one.
    profile = analyze_matrix([[0.0, 2.0], [0.5, 0.0]])
    assert abs(profile.spectral_radius - 1.0) < 1e-9
    assert not profile.productive


def test_defective_dominant_eigenvalue():
    # Triangular with a repeated eigenvalue and a single eigenvector, which
    # has a zero entry: no Collatz-Wielandt upper bound exists, so the dense
    # fallback must deliver the radius.
    profile = analyze_matrix([[0.5, 0.2], [0.0, 0.5]])
    assert abs(profile.spectral_radius - 0.5) < 1e-9
    assert profile.productive
    assert not profile.irreducible


def test_spectral_radius_against_eigvals():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 25))
        A = rng.uniform(0.0, 1.0, size=(n, n))
        A[rng.uniform(size=(n, n)) < rng.uniform(0.0, 0.6)] = 0.0
        expected = float(np.max(np.abs(np.linalg.eigvals(A))))
        got = analyze_matrix(A).spectral_radius
        assert abs(got - expected) <= 1e-7 * max(1.0, expected)


@pytest.mark.parametrize("A", [[[0.0, 0.0], [0.0, 0.0]], [[1e-300, 0.0], [0.0, 0.0]]])
def test_spectral_radius_of_a_zero_matrix_is_not_negative(A):
    # Power iteration on A + E returns mu - 1, which roundoff can put below 0.
    assert spectral_radius(np.array(A)) >= 0.0
    assert analyze_matrix(A).spectral_radius >= 0.0


@pytest.mark.parametrize("A, rho", [
    (np.full((2, 2), 1e308), np.inf),       # row sums overflow
    (np.diag([1e308, 5e307]), 1e308),
    (np.full((2, 2), 6e307), 1.2e308),
])
def test_spectral_radius_near_overflow(A, rho):
    assert spectral_radius(A) == pytest.approx(rho, rel=1e-12)


def coupled_blocks(rng: np.random.Generator, eps: float, size: int) -> np.ndarray:
    """Two dense blocks with off-diagonal blocks of order ``eps``."""
    A = eps * rng.uniform(0.5, 1.0, size=(2 * size, 2 * size))
    A[:size, :size] = rng.uniform(0.1, 1.0, size=(size, size))
    A[size:, size:] = rng.uniform(0.1, 1.0, size=(size, size))
    return A


def cycle(n: int) -> np.ndarray:
    A = np.zeros((n, n))
    A[np.arange(n), (np.arange(n) + 1) % n] = np.linspace(0.5, 2.0, n)
    return A


def radius_cases():
    rng = np.random.default_rng(31)
    for k in range(30):
        yield f"irreducible{k}", random_irreducible_productive(rng, int(rng.integers(2, 61)))
    for eps in (1e-3, 1e-7, 1e-12):
        for j, size in enumerate((20, 20, 200)):
            yield f"blocks{size}-eps{eps:.0e}-{j}", coupled_blocks(rng, eps, size)
    yield "periodic", cycle(7)
    yield "periodic-blocks", np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), rng.uniform(size=(4, 4)))
    yield "reducible", np.block([[rng.uniform(size=(5, 5)), rng.uniform(size=(5, 3))],
                                 [np.zeros((3, 5)), 2.0 * rng.uniform(size=(3, 3))]])
    yield "triangular", np.triu(rng.uniform(size=(30, 30)))
    yield "triu200", np.triu(np.random.default_rng(5).uniform(0.0, 1.0, size=(200, 200)))
    yield "tiny", np.array([[1e-300, 0.0], [0.0, 0.0]])  # must not vanish against a unit shift


@pytest.mark.parametrize("name, A", list(radius_cases()), ids=lambda v: v if isinstance(v, str) else "")
def test_spectral_radius_matches_eigvals(name, A):
    expected = float(np.max(np.abs(np.linalg.eigvals(A))))
    assert abs(spectral_radius(A) - expected) <= 1e-10 * expected


def test_spectral_radius_is_certified_without_eigvals(monkeypatch):
    # A certified Arnoldi estimate never reaches the dense fallback, nor at
    # n <= 32 does a certified dense eigendecomposition.
    rng = np.random.default_rng(8)
    matrices = [random_irreducible_productive(rng, n) for n in (3, 10, 60, 100, 400)]
    matrices += [coupled_blocks(rng, 1e-3, size) for size in (20, 200)]
    matrices += [random_irreducible_productive(rng, n)
                 for n in range(1, 2 * ARNOLDI_FIRST_CHECK + 1)]
    expected = [float(np.max(np.abs(np.linalg.eigvals(A)))) for A in matrices]

    def no_eigvals(A):
        raise AssertionError("dense fallback taken")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    for A, rho in zip(matrices, expected):
        assert abs(spectral_radius(A) - rho) <= 1e-10 * rho


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17])
def test_spectral_radius_on_either_side_of_the_first_check(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        A = rng.uniform(size=(n, n))
        A[rng.uniform(size=(n, n)) < rng.uniform(0.0, 0.5)] = 0.0
        expected = float(np.max(np.abs(np.linalg.eigvals(A))))
        assert abs(spectral_radius(A) - expected) <= 1e-10 * max(expected, np.finfo(float).tiny)


@pytest.mark.parametrize("n, dense", [(16, True), (17, True), (24, True), (32, True),
                                      (33, False), (48, False)])
def test_radius_from_one_eigendecomposition_up_to_the_second_check(n, dense, monkeypatch):
    # Up to Arnoldi's second check (32 vectors) the radius comes from one
    # certified eigendecomposition of the whole matrix; above it, from Arnoldi.
    arnoldi = []
    real = matcheck._arnoldi_radius
    monkeypatch.setattr(matcheck, "_arnoldi_radius",
                        lambda B, tol: arnoldi.append(B.shape) or real(B, tol))
    rng = np.random.default_rng(n)
    for A in (random_irreducible_productive(rng, n), rng.uniform(size=(n, n))):
        expected = float(np.max(np.abs(np.linalg.eigvals(A))))
        assert abs(spectral_radius(A) - expected) <= 1e-10 * expected
    assert arnoldi == ([] if dense else [(n, n)] * 2)


def _counting_eigvals(monkeypatch) -> list:
    calls = []
    eigvals = np.linalg.eigvals

    def counted(A):
        calls.append(A.shape)
        return eigvals(A)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


def test_small_radius_without_a_positive_eigenvector_falls_back(monkeypatch):
    # A dominant eigenvector with zero entries has no Collatz-Wielandt upper
    # bound, so the eigenvalue solve must give the radius; the periodic
    # cycle's Perron vector is positive, so its bracket closes.
    rng = np.random.default_rng(41)
    reducible = np.block([[2.0 * rng.uniform(size=(5, 5)), rng.uniform(size=(5, 3))],
                          [np.zeros((3, 5)), rng.uniform(size=(3, 3))]])
    triangular = np.triu(rng.uniform(0.1, 0.5, size=(6, 6)))
    triangular[0, 0] = 0.9  # its eigenvector is the first unit vector
    expected = {name: float(np.max(np.abs(np.linalg.eigvals(A))))
                for name, A in (("reducible", reducible), ("triangular", triangular),
                                ("periodic", cycle(7)))}
    calls = _counting_eigvals(monkeypatch)
    for name, A, fallback in (("reducible", reducible, True), ("triangular", triangular, True),
                              ("periodic", cycle(7), False)):
        calls.clear()
        assert abs(spectral_radius(A) - expected[name]) <= 1e-10 * expected[name]
        assert bool(calls) == fallback, name


@pytest.mark.parametrize("n", [3, 16, 40])
def test_failed_eigensolve_is_not_a_traceback(n, monkeypatch):
    # A LinAlgError from eig ends in the eigenvalue fallback, and one from
    # the fallback too in ConvergenceError.
    A = random_irreducible_productive(np.random.default_rng(n), n)
    expected = float(np.max(np.abs(np.linalg.eigvals(A))))

    def failing(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", failing)
    calls = _counting_eigvals(monkeypatch)
    assert abs(spectral_radius(A) - expected) <= 1e-10 * expected
    assert calls == [(n, n)]
    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with pytest.raises(ConvergenceError, match="spectral radius could not be computed"):
        spectral_radius(A)


def test_leontief_identity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        A = random_irreducible_productive(rng, n)
        profile = analyze_matrix(A)
        assert profile.productive
        residual = (np.eye(n) - A) @ profile.leontief_inverse - np.eye(n)
        assert np.max(np.abs(residual)) < 1e-8
        assert np.min(profile.leontief_inverse) >= -1e-12


def test_leontief_neumann_consistency():
    # Partial Neumann sums; spectral radii near 0.9 keep the analytic bound
    # above float64 accumulation noise for K = 200.
    rng = np.random.default_rng(17)
    K = 200
    for _ in range(10):
        n = int(rng.integers(2, 15))
        A = random_irreducible_productive(rng, n, rho_range=(0.88, 0.9))
        rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        profile = analyze_matrix(A)
        partial = np.eye(n)
        power = np.eye(n)
        for _ in range(K):
            power = power @ A
            partial += power
        bound = 2.0 * rho ** (K + 1) / (1.0 - rho)
        assert np.max(np.abs(profile.leontief_inverse - partial)) <= bound


def test_cone_interior():
    profile = analyze_matrix([[0.0, 0.5], [0.5, 0.0]])
    result = cone_membership(profile, [1.0, 1.0])
    assert result.region is ConeRegion.INTERIOR
    assert np.allclose(result.z, [2.0, 2.0], atol=1e-10)
    assert np.allclose(result.alpha, [1.0, 1.0], atol=1e-10)


def test_cone_outside():
    profile = analyze_matrix([[0.0, 0.5], [0.5, 0.0]])
    result = cone_membership(profile, [1.0, 3.0])
    assert result.region is ConeRegion.OUTSIDE
    assert np.allclose(result.z, [6.0, 2.0], atol=1e-10)
    assert np.allclose(result.alpha, [5.0, -1.0], atol=1e-10)


def test_cone_boundary():
    profile = analyze_matrix([[0.0, 0.5], [0.5, 0.0]])
    result = cone_membership(profile, [1.0, 2.0])
    assert result.region is ConeRegion.BOUNDARY
    assert np.allclose(result.alpha, [3.0, 0.0], atol=1e-10)


def test_cone_requires_productive():
    profile = analyze_matrix([[1.1, 0.0], [0.0, 0.5]])
    with pytest.raises(NotProductiveError):
        cone_membership(profile, [1.0, 1.0])


def test_cone_requires_positive_target():
    profile = analyze_matrix([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(DomainError):
        cone_membership(profile, [1.0, 0.0])


def test_cone_singular_matrix_unreachable_target():
    # Rank-one irreducible productive matrix; targets off its range have no
    # nonnegative representation at all.
    profile = analyze_matrix(0.2 * np.ones((2, 2)))
    assert profile.productive
    result = cone_membership(profile, [1.0, 3.0])
    assert result.region is ConeRegion.OUTSIDE


def test_cone_roundtrip_and_markup_equivalence():
    # v = A (E-A)^(-1) alpha with alpha > 0 must come back Interior, and the
    # Interior verdict must coincide with z > A z componentwise.
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 15))
        A = random_irreducible_productive(rng, n)
        profile = analyze_matrix(A)
        alpha = rng.uniform(0.2, 1.5, size=n)
        z = profile.leontief_inverse @ alpha
        v = A @ z
        result = cone_membership(profile, v, tol=1e-10)
        assert result.region is ConeRegion.INTERIOR
        assert np.allclose(result.alpha, alpha, rtol=1e-8, atol=1e-8)
        assert np.all(result.z > A @ result.z)


_ENTRIES = st.floats(-4.0, 4.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)


@st.composite
def nnls_problems(draw):
    """Square, tall and wide systems with m, n <= 12; some with a repeated
    column, a zero column, or integer factors of lower rank."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    M = draw(arrays(float, (m, n), elements=_ENTRIES))
    kind = draw(st.sampled_from(["plain", "repeat", "zero", "low-rank"]))
    if kind == "repeat" and n > 1:
        M[:, n - 1] = M[:, draw(st.integers(0, n - 2))]
    elif kind == "zero":
        M[:, draw(st.integers(0, n - 1))] = 0.0
    elif kind == "low-rank":
        rank = draw(st.integers(1, min(m, n)))
        factors = st.integers(-3, 3).map(float)
        M = draw(arrays(float, (m, rank), elements=factors)) @ draw(
            arrays(float, (rank, n), elements=factors))
    return M, draw(arrays(float, m, elements=_ENTRIES))


@settings(max_examples=200, deadline=None)
@given(nnls_problems())
def test_nnls_matches_scipy(problem):
    M, rhs = problem
    try:
        reference, reference_norm = scipy_nnls(M, rhs)
    except RuntimeError:  # SciPy's own iteration cap
        return
    z = nnls(M, rhs)
    assert z.shape == (M.shape[1],) and np.all(z >= 0.0)
    assert abs(np.linalg.norm(M @ z - rhs) - reference_norm) <= 1e-10 * max(
        1.0, float(np.linalg.norm(rhs)))


def _nnls_kkt(M, rhs, z) -> float:
    """Scaled KKT residual of min ||M z - rhs|| over z >= 0: the gradient
    M^T (rhs - M z) is nowhere positive and zero where z > 0."""
    g = M.T @ (rhs - M @ z)
    violation = max(float(np.max(g, initial=0.0)), float(np.max(np.abs(g[z > 0]), initial=0.0)))
    return violation / (np.linalg.norm(M, 2) * max(1.0, float(np.linalg.norm(rhs)),
                                                   float(np.linalg.norm(M @ z))))


def test_nnls_on_nearly_rank_deficient_data():
    # Products of random float factors are of lower rank only up to
    # roundoff.  The book's independence test admits a column independent by
    # 5e-14 of its norm now and then; its coefficient of order 1e14 then
    # spoils the residual, and the answer is no KKT point.  nnls's stricter
    # test keeps every answer a KKT point, no worse than SciPy's wherever
    # SciPy's is one.
    rng = np.random.default_rng(5)
    for _ in range(1500):
        m, n = (int(v) for v in rng.integers(2, 13, size=2))
        rank = int(rng.integers(1, min(m, n) + 1))
        M = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
        rhs = rng.normal(size=m)
        z = nnls(M, rhs)
        assert np.all(z >= 0.0) and _nnls_kkt(M, rhs, z) <= 1e-12
        try:
            reference, reference_norm = scipy_nnls(M, rhs)
        except RuntimeError:
            continue
        if _nnls_kkt(M, rhs, reference) <= 1e-12:
            assert np.linalg.norm(M @ z - rhs) <= reference_norm + 1e-10 * max(
                1.0, float(np.linalg.norm(rhs)))


@pytest.mark.parametrize("n", [100, 400])
def test_nnls_rank_deficient_large(n):
    rng = np.random.default_rng(n)
    M = rng.uniform(0.0, 1.0, size=(n, n))
    M[:, -1] = M[:, 0]
    rhs = rng.uniform(0.5, 1.5, size=n)
    _, reference_norm = scipy_nnls(M, rhs)
    z = nnls(M, rhs)
    assert np.all(z >= 0.0)
    assert abs(np.linalg.norm(M @ z - rhs) - reference_norm) <= 1e-10 * reference_norm


def test_gated_solve_falls_back_to_nnls():
    M = np.array([[1.0, 1.0], [1.0, 1.0]])
    solved = gated_solve(M, np.array([1.0, 3.0]), 1e-9)
    assert not solved.within_gate and np.allclose(solved.z.sum(), 2.0)
    solved = gated_solve(M, np.array([2.0, 2.0]), 1e-9)
    assert solved.within_gate and np.all(solved.z >= 0.0)


def test_nnls_iteration_cap_is_a_singular_system(monkeypatch):
    monkeypatch.setattr(matcheck, "NNLS_ITERATIONS_PER_COLUMN", 0)
    with pytest.raises(SingularSystemError, match="did not converge within 0 iterations"):
        gated_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 3.0]), 1e-9)
