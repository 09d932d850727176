"""Price-balance fixed point solver and clearing verification."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from conftest import interior_generating_vector, random_irreducible_productive
from iotax import (
    Normalization,
    RowStatus,
    SolverConfig,
    markup_condition,
    solve_price_balance,
    verify_clearing,
)
from iotax.errors import ConvergenceError, DegenerateInputError, NotEquilibriumError

ANTI = np.array([[0.0, 0.5], [0.5, 0.0]])


def test_solve_symmetric_case():
    price = solve_price_balance(ANTI, [2.0, 2.0])
    assert np.allclose(price.p, [0.5, 0.5], atol=1e-12)
    assert price.lambda_residual <= 1e-12
    assert price.fp_residual <= 1e-12


def test_solve_dense_two_by_two():
    price = solve_price_balance([[0.2, 0.3], [0.4, 0.1]], [10.0, 10.0])
    assert np.allclose(price.p, [4.0 / 7.0, 3.0 / 7.0], atol=1e-9)


def test_solve_asymmetric_z():
    price = solve_price_balance(ANTI, [4.0, 2.0])
    assert np.allclose(price.p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-10)


def test_first_to_one_normalization():
    cfg = SolverConfig(normalization=Normalization.FIRST_TO_ONE)
    price = solve_price_balance(ANTI, [4.0, 2.0], cfg)
    assert price.p[0] == 1.0
    assert abs(price.p[1] - 0.5) < 1e-10


def test_homogeneity_in_z():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(2, 10))
        A = random_irreducible_productive(rng, n)
        z = rng.uniform(0.5, 2.0, size=n)
        base = solve_price_balance(A, z)
        scaled = solve_price_balance(A, 7.25 * z)
        assert np.allclose(base.p, scaled.p, atol=1e-10)


def test_lambda_and_residual_properties():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        A = random_irreducible_productive(rng, n)
        z = rng.uniform(0.2, 2.0, size=n)
        price = solve_price_balance(A, z)
        assert price.lambda_residual <= 1e-12
        assert price.fp_residual <= 1e-12
        assert np.min(price.p) > 0  # irreducible with z > 0
        assert abs(price.p.sum() - 1.0) <= 1e-12  # sum-to-one normalization


def test_duality_with_z():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(2, 10))
        A = random_irreducible_productive(rng, n)
        z = interior_generating_vector(rng, A)
        price = solve_price_balance(A, z)
        lhs = price.p / (A.T @ price.p)
        rhs = z / (A @ z)
        assert np.allclose(lhs, rhs, rtol=1e-8, atol=1e-8)


def test_degenerate_cost_denominator():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DegenerateInputError):
        solve_price_balance(A, [1.0, 0.0])


def test_markup_holds_at_symmetric_prices():
    result = markup_condition(ANTI, [0.5, 0.5])
    assert result.holds
    assert np.allclose(result.margins, [0.25, 0.25], atol=1e-15)


def test_markup_boundary_fails():
    result = markup_condition(ANTI, [2.0 / 3.0, 1.0 / 3.0])
    assert not result.holds
    assert np.allclose(result.margins, [0.5, 0.0], atol=1e-12)


def test_markup_zero_matrix():
    result = markup_condition(np.zeros((2, 2)), [1.0, 2.0])
    assert result.holds
    assert np.allclose(result.margins, [1.0, 2.0])


def test_verify_clearing_all_cleared(e1):
    rows = verify_clearing(e1.A, e1.x, [0.5, 0.5], [0.5, 0.5])
    assert all(row.status is RowStatus.CLEARED for row in rows)
    assert all(abs(row.demand_side - 1.0) < 1e-12 for row in rows)


def test_verify_clearing_excess_row():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    # (1 - pi) o x = [1, 1]
    rows = verify_clearing(A, [2.0, 2.0], [0.5, 0.5], [0.0, 1.0])
    assert rows[0].status is RowStatus.EXCESS
    assert rows[1].status is RowStatus.CLEARED
    assert abs(rows[0].demand_side - 0.5) < 1e-12


def test_verify_clearing_scale_invariance(e1):
    rows_a = verify_clearing(e1.A, e1.x, [0.5, 0.5], [0.5, 0.5])
    rows_b = verify_clearing(e1.A, e1.x, [0.5, 0.5], [5.0, 5.0])
    assert [r.status for r in rows_a] == [r.status for r in rows_b]


def test_verify_clearing_rejects_excess_demand(e1):
    with pytest.raises(NotEquilibriumError):
        verify_clearing(e1.A, e1.x, [0.5, 0.5], [0.9, 0.1])


def test_verify_clearing_zero_cost_denominator():
    # industry 0 has positive after-tax value but no input costs at these prices
    A = np.array([[0.0, 0.0], [0.0, 0.5]])
    with pytest.raises(DegenerateInputError):
        verify_clearing(A, [2.0, 2.0], [0.5, 0.5], [1.0, 0.0])


def test_require_positive_flag():
    from iotax.errors import ConvergenceError

    # Irreducible with positive z: the guarantee holds and the flag passes.
    price = solve_price_balance(ANTI, [2.0, 2.0], require_positive=True)
    assert np.min(price.p) > 0
    # Reducible upper-triangular case: the fixed point puts zero price on
    # the first industry, so the assertion must fire.
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(solve_price_balance(A, [1.0, 1.0]).p, [0.0, 1.0], atol=1e-10)
    with pytest.raises(ConvergenceError):
        solve_price_balance(A, [1.0, 1.0], require_positive=True)


def _gth_exact(P):
    """Stationary vector of a row-stochastic matrix by GTH elimination in
    exact rational arithmetic: the reference for small chains."""
    M = [[Fraction(v) for v in row] for row in P]
    n = len(M)
    for k in range(n - 1, 0, -1):
        outflow = sum(M[k][:k])
        for i in range(k):
            M[i][k] /= outflow
        for i in range(k):
            for j in range(k):
                M[i][j] += M[i][k] * M[k][j]
    pi = [Fraction(1)]
    for k in range(1, n):
        pi.append(sum(pi[i] * M[i][k] for i in range(k)))
    return pi


def _exact_prices(A, z):
    """p = pi / (A z) for the chain P[k, i] = a_ki z_i / (A z)_k, exactly,
    scaled to sum one.  The float entries of A and z are taken as exact."""
    n = len(z)
    A = [[Fraction(v) for v in row] for row in np.asarray(A, dtype=float)]
    z = [Fraction(v) for v in np.asarray(z, dtype=float)]
    w = [sum(A[k][i] * z[i] for i in range(n)) for k in range(n)]
    P = [[A[k][i] * z[i] / w[k] for i in range(n)] for k in range(n)]
    p = [pi / w_k for pi, w_k in zip(_gth_exact(P), w)]
    total = sum(p)
    return np.array([float(v / total) for v in p])


def _forward_error(p, exact):
    return float(np.max(np.abs(p / p.sum() - exact)) / np.max(exact))


def test_prices_match_exact_elimination_on_random_chains():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        A = random_irreducible_productive(rng, n) if n > 1 else np.array([[0.5]])
        z = rng.uniform(0.2, 2.0, size=n)
        assert _forward_error(solve_price_balance(A, z).p, _exact_prices(A, z)) <= 1e-12


@pytest.mark.parametrize("n", [4, 6, 8])
def test_prices_exact_on_nearly_uncoupled_blocks(n):
    # Two dense blocks coupled by 1e-12: the chain crosses between them about
    # once in 1e12 steps, so a residual below 1e-12 says nothing about how
    # the price mass splits between the blocks; the forward error does.
    rng = np.random.default_rng(n)
    half = n // 2
    for _ in range(5):
        A = 1e-12 * rng.uniform(0.5, 1.0, size=(n, n))
        A[:half, :half] = rng.uniform(0.1, 1.0, size=(half, half))
        A[half:, half:] = rng.uniform(0.1, 1.0, size=(half, half))
        A *= 0.6 / float(np.max(np.abs(np.linalg.eigvals(A))))
        z = rng.uniform(0.5, 2.0, size=n)
        price = solve_price_balance(A, z)
        assert _forward_error(price.p, _exact_prices(A, z)) <= 1e-12


def test_two_final_classes_give_a_fixed_combination():
    # Block-diagonal: both blocks are closed, so every mix of their
    # stationary vectors is a fixed point; each block gets half the price.
    A = np.array([[0.2, 0.3, 0.0, 0.0],
                  [0.4, 0.1, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.5],
                  [0.0, 0.0, 0.5, 0.0]])
    z = np.array([10.0, 10.0, 4.0, 2.0])
    price = solve_price_balance(A, z)
    assert price.fp_residual <= 1e-12 and price.lambda_residual <= 1e-12
    assert np.allclose(price.p, [2.0 / 7.0, 1.5 / 7.0, 1.0 / 3.0, 1.0 / 6.0], atol=1e-15)
    assert np.array_equal(solve_price_balance(A, z).p, price.p)


def test_transient_industries_get_zero_price():
    # Good 0 goes into goods 1 and 2, but industry 0 buys only its own good:
    # a transient state of the chain, with {1, 2} the one final class.
    A = np.array([[0.1, 0.3, 0.2],
                  [0.0, 0.0, 0.5],
                  [0.0, 0.5, 0.0]])
    price = solve_price_balance(A, [1.0, 2.0, 2.0])
    assert price.p[0] == 0.0
    assert np.allclose(price.p, [0.0, 0.5, 0.5], atol=1e-15)


def test_blocked_elimination_matches_single_state_steps(monkeypatch):
    # Halving down to 2 states exercises every triangular solve and product
    # of the blocked path against the plain one-state-at-a-time elimination.
    from iotax import equilibrium

    rng = np.random.default_rng(5)
    A = random_irreducible_productive(rng, 37)
    z = rng.uniform(0.2, 2.0, size=37)
    monkeypatch.setattr(equilibrium, "GTH_LEAF", 37)
    plain = solve_price_balance(A, z).p
    monkeypatch.setattr(equilibrium, "GTH_LEAF", 2)
    assert np.max(np.abs(solve_price_balance(A, z).p / plain - 1.0)) <= 1e-13


def _exact_reducible_prices(A, z):
    """Exact prices of a possibly reducible chain: the final classes are
    labelled by reachability, each gets its own exact prices with an equal
    share of the total, and transient industries get zero."""
    n = len(z)
    reach = (np.asarray(A) > 0) | np.eye(n, dtype=bool)
    for m in range(n):  # transitive closure (Warshall)
        reach |= reach[:, [m]] & reach[[m], :]
    final = [k for k in range(n) if np.all(reach[reach[k], k])]
    classes = {tuple(np.flatnonzero(reach[k])) for k in final}
    p = np.zeros(n)
    for states in map(list, classes):
        p[states] = _exact_prices(A[np.ix_(states, states)], z[states]) / len(classes)
    return p, len(classes)


# Reducible patterns on five industries, as the edges k -> i with a_ki > 0.
_REDUCIBLE = {
    "one final class": [(0, 1), (1, 2), (2, 0), (2, 1), (3, 0), (3, 4), (4, 3), (4, 2)],
    "two final classes": [(0, 1), (1, 0), (1, 1), (2, 3), (3, 2), (4, 4), (4, 0), (4, 3)],
    "three final classes": [(0, 0), (1, 2), (2, 1), (3, 3), (4, 0), (4, 2), (4, 3)],
    "transient pair": [(0, 1), (1, 0), (2, 2), (3, 4), (4, 3), (4, 2), (3, 1)],
    "transient chain": [(0, 1), (1, 0), (2, 0), (2, 1), (3, 2), (4, 3), (4, 4)],
}


@pytest.mark.parametrize("leaf", [16, 2])
@pytest.mark.parametrize("pattern", sorted(_REDUCIBLE))
def test_reducible_chains_in_every_state_order(monkeypatch, pattern, leaf):
    # The elimination labels classes only after a zero pivot, which comes
    # exactly when some final class misses the last industry.  With a leaf
    # of 2, that pivot falls in either half of the blocked path.
    from iotax import equilibrium

    rng = np.random.default_rng(len(pattern))
    rows, cols = zip(*_REDUCIBLE[pattern])
    A = np.zeros((5, 5))
    A[rows, cols] = rng.uniform(0.1, 1.0, size=len(rows))
    z = rng.uniform(0.5, 2.0, size=5)
    labelled = []
    label = equilibrium.connected_components
    monkeypatch.setattr(equilibrium, "GTH_LEAF", leaf)
    monkeypatch.setattr(equilibrium, "connected_components",
                        lambda *a, **kw: labelled.append(1) or label(*a, **kw))
    expected_labels = 0
    for order in itertools.permutations(range(5)):
        Ap, zp = A[np.ix_(order, order)], z[list(order)]
        exact, classes = _exact_reducible_prices(Ap, zp)
        expected_labels += classes > 1 or exact[-1] == 0
        p = solve_price_balance(Ap, zp).p
        assert np.all(p[exact == 0] == 0.0)
        assert _forward_error(p, exact) <= 1e-12
    assert len(labelled) == expected_labels


@pytest.mark.parametrize("coupling, message", [(1e-200, "underflowed"), (1e-155, "residual nan")])
def test_vanishing_outflow_raises(coupling, message):
    # Strongly connected, but eliminating industry 0 leaves industry 1 an
    # outflow of coupling**2.  1e-400 is 0.0 in floating point.  The
    # subnormal 1e-310 is a pivot whose reciprocal overflows, so the prices
    # come out NaN, and NaN must fail the residual gate.
    A = 0.5 * np.array([[0.0, 1.0, coupling], [coupling, 1.0, 0.0], [0.0, 1.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match=message):
            solve_price_balance(A, np.ones(3))
