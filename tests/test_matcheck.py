"""Matrix structure: irreducibility, spectral radius, Leontief inverse, cone tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import nnls as scipy_nnls

from conftest import random_irreducible_productive, scipy_closed_classes
from iotax import ConeRegion, analyze_matrix, cone_membership
from iotax import matcheck
from iotax.errors import ConvergenceError, DomainError, NotProductiveError, SingularSystemError
from iotax.matcheck import ARNOLDI_FIRST_CHECK, gated_solve, spectral_radius


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


@st.composite
def digraphs(draw):
    """Edge matrices: arbitrary, a long cycle (maybe cut into a path), or
    cycles joined only from earlier to later blocks, states permuted.  Sizes
    run past 64 states, so packed rows span more than one machine word."""
    kind = draw(st.sampled_from(["random", "cycle", "block-triangular"]))
    n = draw(st.integers(1, 200 if kind == "cycle" else 70))
    if kind == "random":
        return draw(arrays(np.bool_, (n, n)))
    order = np.array(draw(st.permutations(range(n))), dtype=int)
    edges = np.zeros((n, n), dtype=bool)
    if kind == "cycle":
        edges[order, np.roll(order, -1)] = True
        edges[order[-1], order[0]] = draw(st.booleans())
        return edges
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4))) if n > 1 else []
    block = np.empty(n, dtype=int)
    for k, states in enumerate(np.split(order, cuts)):
        edges[states, np.roll(states, -1)] = True
        block[states] = k
    edges |= draw(arrays(np.bool_, (n, n))) & (block[:, np.newaxis] < block[np.newaxis, :])
    return edges


def _cycle_edges(n: int) -> np.ndarray:
    return np.roll(np.eye(n, dtype=bool), 1, axis=1)


@settings(max_examples=300, deadline=None)
@given(digraphs())
@example(_cycle_edges(8))
@example(_cycle_edges(9))
@example(_cycle_edges(64))
@example(_cycle_edges(65))
@example(np.eye(65, k=1, dtype=bool))  # a path
def test_irreducibility_and_strong_components_match_scipy(edges):
    from scipy.sparse import csgraph

    expected_count, _ = csgraph.connected_components(edges, directed=True, connection="strong")
    assert matcheck.is_irreducible(np.where(edges, 0.5, 0.0)) == (expected_count == 1)
    assert [c.tolist() for c in matcheck.closed_classes(edges)] == scipy_closed_classes(edges)


def test_irreducibility_of_a_long_cycle_and_of_it_cut():
    edges = _cycle_edges(1000)
    assert matcheck.is_irreducible(np.where(edges, 0.5, 0.0))
    edges[999, 0] = False
    assert not matcheck.is_irreducible(np.where(edges, 0.5, 0.0))


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


def test_cone_singular_matrix_interior_target():
    # A z = [1.5, 1.5] has the solutions z1 + z2 = 5; the minimum-norm one,
    # z = [2.5, 2.5], has the weights alpha = z - A z = [1, 1].
    profile = analyze_matrix(0.3 * np.ones((2, 2)))
    result = cone_membership(profile, [1.5, 1.5])
    assert result.region is ConeRegion.INTERIOR
    assert np.allclose(result.z, [2.5, 2.5], atol=1e-12)
    assert np.allclose(result.alpha, [1.0, 1.0], atol=1e-12)


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
    """Exactly singular square systems with n <= 12: a repeated column, a
    zero column, or integer factors of lower rank."""
    n = draw(st.integers(1, 12))
    M = draw(arrays(float, (n, n), elements=_ENTRIES))
    kind = draw(st.sampled_from(["repeat", "zero", "low-rank"] if n > 1 else ["zero"]))
    if kind == "repeat":
        M[:, n - 1] = M[:, draw(st.integers(0, n - 2))]
    elif kind == "zero":
        M[:, draw(st.integers(0, n - 1))] = 0.0
    else:
        rank = draw(st.integers(1, n - 1))
        factors = st.integers(-3, 3).map(float)
        M = draw(arrays(float, (n, rank), elements=factors)) @ draw(
            arrays(float, (rank, n), elements=factors))
    return M, draw(arrays(float, n, elements=_ENTRIES))


@settings(max_examples=200, deadline=None)
@given(nnls_problems())
def test_gated_solve_on_a_singular_matrix(problem):
    # The fallback is the minimum-norm least-squares solution: no worse a fit
    # than the best nonnegative one, flagged by the gate, and with no part in
    # the null space of M.  Where roundoff leaves LU a tiny pivot, its
    # solution may pass the gate instead, and then it is some other solution.
    M, rhs = problem
    scale = max(1.0, float(np.linalg.norm(rhs)))
    gate = 1e-11 * scale
    z, within_gate = gated_solve(M, rhs, gate)
    assert within_gate == (float(np.max(np.abs(M @ z - rhs))) <= gate)
    try:
        _, reference_norm = scipy_nnls(M, rhs)
    except RuntimeError:  # SciPy's own iteration cap
        reference_norm = np.inf
    assert np.linalg.norm(M @ z - rhs) <= reference_norm + 1e-10 * scale
    try:
        lu = np.linalg.solve(M, rhs)
        fallback = not float(np.max(np.abs(M @ lu - rhs))) <= gate
    except np.linalg.LinAlgError:
        fallback = True
    if fallback:
        _, sigma, Vt = np.linalg.svd(M)
        null = Vt[sigma <= 1e-10 * max(float(sigma[0]), np.finfo(float).tiny)]
        assert np.linalg.norm(null @ z) <= 1e-9 * max(1.0, float(np.linalg.norm(z)))


def test_gated_solve_falls_back_to_nnls():
    # The fallback is the minimum-norm least-squares solution [1, 1] for both
    # right-hand sides; only the second is reproduced.
    M = np.array([[1.0, 1.0], [1.0, 1.0]])
    solved = gated_solve(M, np.array([1.0, 3.0]), 1e-9)
    assert not solved.within_gate and np.allclose(solved.z, [1.0, 1.0])
    solved = gated_solve(M, np.array([2.0, 2.0]), 1e-9)
    assert solved.within_gate and np.allclose(solved.z, [1.0, 1.0])


def test_gated_solve_on_a_system_where_nnls_cycled():
    # Rows 3 and 4 are equal, so the LU solve fails.  z = [0, 1, 1, 0, 0]
    # solves the system exactly; a Lawson & Hanson active-set NNLS entered
    # and dropped the same columns here until its 3n iteration cap.
    M = np.array([[1.0, 0.0, 2.0, 1.0, 1.0], [1.0, 0.0, 1.0, 2.0, 0.0],
                  [2.0, 2.0, 0.0, 2.0, 0.0], [2.0, 2.0, 0.0, 2.0, 0.0],
                  [2.0, 1.0, 1.0, 2.0, 2.0]])
    rhs = np.array([2.0, 1.0, 2.0, 2.0, 2.0])
    solved = gated_solve(M, rhs, 1e-9)
    assert solved.within_gate
    assert np.max(np.abs(M @ solved.z - rhs)) <= 1e-12


def test_least_squares_failure_is_a_singular_system(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "lstsq", fail)
    with pytest.raises(SingularSystemError, match="least-squares solve failed: SVD did not converge"):
        gated_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 3.0]), 1e-9)
