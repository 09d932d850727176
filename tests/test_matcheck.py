"""Matrix structure: irreducibility, spectral radius, Leontief inverse, cone tests."""

import numpy as np
import pytest

from conftest import random_irreducible_productive
from iotax import ConeRegion, analyze_matrix, cone_membership
from iotax.errors import DomainError, NotProductiveError
from iotax.matcheck import spectral_radius


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
    # A certified Arnoldi estimate never reaches the dense fallback.
    rng = np.random.default_rng(8)
    matrices = [random_irreducible_productive(rng, n) for n in (3, 10, 60, 100, 400)]
    matrices += [coupled_blocks(rng, 1e-3, size) for size in (20, 200)]
    expected = [float(np.max(np.abs(np.linalg.eigvals(A)))) for A in matrices]

    def no_eigvals(A):
        raise AssertionError("dense fallback taken")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    for A, rho in zip(matrices, expected):
        assert abs(spectral_radius(A) - rho) <= 1e-10 * rho


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
