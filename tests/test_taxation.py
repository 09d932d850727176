"""Tax construction, the sustainability test, value accounts, and subsidies."""

import logging

import numpy as np
import pytest

from conftest import (
    balanced_economy,
    interior_generating_vector,
    random_irreducible_productive,
)
from iotax import (
    TaxProvenance,
    check_tax_sustainable,
    classify_industries,
    load_economy,
    markup_condition,
    perfect_tax,
    solve_price_balance,
    subsidy_requirements,
    sustainable_tax,
    tax_from_value_shares,
    value_accounts,
    value_balance_check,
)
from iotax.errors import (
    AllSubsidizedError,
    BalanceError,
    ConditionViolationError,
    DomainError,
    NoSubsidiesNeededError,
    NotIrreducibleError,
    ScaleRangeError,
)
from iotax.taxation import industry_table


def test_sustainable_tax_symmetric(e1):
    tax = sustainable_tax(e1, [2.0, 2.0], scale_b=1.0)
    assert np.allclose(tax.pi, [0.5, 0.5], atol=1e-15)
    assert tax.provenance is TaxProvenance.SUSTAINABLE
    assert np.array_equal(tax.z, [2.0, 2.0])


def test_sustainable_tax_boundary_ratio_rejected(e1):
    # z = [4, 2] gives z_2 / (A z)_2 = 1 exactly; the strict condition fails.
    with pytest.raises(ConditionViolationError) as info:
        sustainable_tax(e1, [4.0, 2.0], scale_b=1.0)
    assert 1 in info.value.indices


def test_sustainable_tax_e2(e2):
    tax = sustainable_tax(e2, e2.x, scale_b=1.0)
    assert np.allclose(tax.pi, [0.5, 0.5], atol=1e-15)


def test_sustainable_tax_scale_validation(e1):
    with pytest.raises(ScaleRangeError):
        sustainable_tax(e1, [2.0, 2.0], scale_b=2.0)  # interval is (0, 2)
    default = sustainable_tax(e1, [2.0, 2.0])
    assert abs(default.scale_b - 1.0) < 1e-15  # midpoint


def test_sustainable_tax_requires_irreducible(e1):
    block = load_economy({"A": [[0.5, 0.0], [0.0, 0.5]], "x": [2.0, 2.0],
                          "c": [1.0, 1.0], "e": [0.0, 0.0], "i": [0.0, 0.0]})
    with pytest.raises(NotIrreducibleError):
        sustainable_tax(block, [2.0, 2.0])


def test_check_tax_sustainable_accepts(e1):
    result = check_tax_sustainable(e1, [0.5, 0.5])
    assert result.sustainable
    assert np.allclose(result.z, [2.0, 2.0], atol=1e-12)
    assert np.allclose(result.p.p, [0.5, 0.5], atol=1e-12)


def test_check_tax_sustainable_markup_failure(e1):
    result = check_tax_sustainable(e1, [0.9, 0.1])
    assert not result.sustainable
    assert result.failed_stage == "markup"
    # the recovered candidate was z = [3.6, 0.4]


def test_check_tax_scalar_economy():
    model = load_economy({"A": [[0.5]], "x": [2.0], "c": [1.0], "e": [0.0], "i": [0.0]})
    result = check_tax_sustainable(model, [0.5])
    assert result.sustainable
    assert np.allclose(result.z, [2.0], atol=1e-12)


def test_check_tax_singular_matrix():
    # A is singular, so LU fails and the minimum-norm solution of
    # A z = (1 - pi) o x = [1, 1] is taken: z = [5/3, 5/3], with z > A z.
    model = load_economy({"A": [[0.3, 0.3], [0.3, 0.3]], "x": [10.0, 10.0],
                          "c": [4.0, 4.0], "e": [0.0, 0.0], "i": [0.0, 0.0]})
    result = check_tax_sustainable(model, [0.9, 0.9])
    assert result.sustainable
    assert np.allclose(result.z, [5.0 / 3.0, 5.0 / 3.0], atol=1e-12)


def test_check_tax_negative_solution():
    # A z = (1 - pi) o x = [1, 0.1] has the one solution z = [-0.7, 3.8].
    model = load_economy({"A": [[0.2, 0.3], [0.4, 0.1]], "x": [10.0, 10.0],
                          "c": [5.0, 5.0], "e": [0.0, 0.0], "i": [0.0, 0.0]})
    result = check_tax_sustainable(model, [0.9, 0.99])
    assert not result.sustainable and result.failed_stage == "solve"
    assert result.reason == "the z found solving A z = (1 - pi) o x has negative components"


def test_perfect_tax_e1(e1):
    tax = perfect_tax(e1, scale_b=1.0)
    assert np.allclose(tax.pi, [0.5, 0.5], atol=1e-15)
    assert tax.provenance is TaxProvenance.PERFECT
    assert abs(perfect_tax(e1).scale_b - 1.0) < 1e-15  # midpoint of (0, 2)


def test_perfect_tax_e2(e2):
    tax = perfect_tax(e2, scale_b=1.0)
    assert np.allclose(tax.pi, [0.5, 0.5], atol=1e-15)


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_perfect_tax_rejects_a_bad_tolerance_before_the_balance_gate(e1, tol):
    # The balance gate runs in demand_regime, which checks tol first: a
    # balanced economy is not called unbalanced for want of a valid tol.
    with pytest.raises(DomainError, match="tolerance must be positive and finite"):
        perfect_tax(e1, tol=tol)


def test_perfect_tax_rejects_an_unbalanced_economy():
    model = load_economy({"A": [[0.0, 0.5], [0.5, 0.0]], "x": [2.0, 2.0], "c": [1.0, 1.5],
                          "e": [0.0, 0.0], "i": [0.0, 0.0]})
    with pytest.raises(BalanceError, match="^gross output does not satisfy the output balance; "
                                           "perfect taxation is defined only on balanced economies$"):
        perfect_tax(model)


def test_perfect_tax_scale_interval_mixed(subsidy_economy):
    # A x = [1.5, 0.5] so the admissible interval is (0, 2/3).
    with pytest.raises(ScaleRangeError):
        perfect_tax(subsidy_economy, scale_b=0.7)
    tax = perfect_tax(subsidy_economy)
    assert abs(tax.scale_b - 1.0 / 3.0) < 1e-12


def test_mixed_regime_warning_is_logged_not_printed(subsidy_economy, capfd, caplog,
                                                     monkeypatch):
    with monkeypatch.context() as patch:
        # An application that configures no logging: a record that no
        # handler takes would reach stderr through logging's last resort.
        patch.setattr(logging.root, "handlers", [])
        perfect_tax(subsidy_economy)
    assert capfd.readouterr().err == ""
    with caplog.at_level(logging.WARNING, logger="iotax"):
        perfect_tax(subsidy_economy)
    assert "mixed demand regime" in caplog.text


def test_value_accounts_e1(e1):
    accounts = value_accounts(e1, [0.5, 0.5])
    assert np.allclose(accounts.delta, [0.25, 0.25], atol=1e-15)
    assert np.allclose(accounts.Delta, [0.5, 0.5], atol=1e-15)
    assert np.allclose(accounts.X, [1.0, 1.0], atol=1e-15)
    assert np.allclose(accounts.C, [0.5, 0.5], atol=1e-15)


def test_value_accounts_e2_final_product(e2):
    price = solve_price_balance(e2.A, e2.x)
    accounts = value_accounts(e2, price)
    assert np.allclose(accounts.delta, [2.0 / 7.0, 3.0 / 14.0], atol=1e-9)
    assert np.allclose(accounts.Delta, [20.0 / 7.0, 15.0 / 7.0], atol=1e-8)
    assert np.allclose(accounts.final_product, accounts.Delta, atol=1e-8)


def test_value_accounts_zero_prices(e1):
    accounts = value_accounts(e1, [0.0, 0.0])
    for field in (accounts.X, accounts.C, accounts.Ev, accounts.Im,
                  accounts.delta, accounts.Delta):
        assert np.allclose(field, 0.0)
    assert np.all(np.isnan(accounts.abar))


def test_value_accounts_delta_consistency():
    # Delta = X (1 - sum_s abar_sk) is an algebraic identity at positive prices.
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        A = random_irreducible_productive(rng, n)
        model = balanced_economy(rng, A)
        p = rng.uniform(0.2, 1.0, size=n)
        accounts = value_accounts(model, p)
        recomputed = accounts.X * (1.0 - accounts.abar.sum(axis=0))
        assert np.allclose(recomputed, accounts.Delta, atol=1e-8 * max(1.0, np.max(accounts.X)))


def test_classify_perfect_equality(e1):
    accounts = value_accounts(e1, [0.5, 0.5])
    result = classify_industries(accounts)
    assert result.I_set == frozenset({0, 1})
    assert result.J_set == frozenset()
    assert result.signature == (0, 0, 2)
    assert np.allclose(result.gaps, [0.0, 0.0], atol=1e-12)


def test_classify_full_chain(e1):
    # z = [3, 2] is admissible (ratios [3, 4/3]); prices come out [0.6, 0.4].
    price = solve_price_balance(e1.A, [3.0, 2.0])
    assert np.allclose(price.p, [0.6, 0.4], atol=1e-10)
    accounts = value_accounts(e1, price)
    assert np.allclose(accounts.delta, [0.4, 0.1], atol=1e-10)
    assert np.allclose(accounts.Delta, [0.8, 0.2], atol=1e-10)
    assert np.allclose(accounts.final_product, [0.6, 0.4], atol=1e-10)
    result = classify_industries(accounts, tol=1e-9)
    assert result.J_set == frozenset({0})
    assert result.I_set == frozenset({1})
    assert result.signature == (1, 1, 0)


def test_classify_scalar_economy():
    model = load_economy({"A": [[0.5]], "x": [2.0], "c": [1.0], "e": [0.0], "i": [0.0]})
    price = solve_price_balance(model.A, model.x)
    result = classify_industries(value_accounts(model, price))
    assert result.I_set == frozenset({0})


def test_subsidy_fixture(subsidy_economy):
    price = solve_price_balance(subsidy_economy.A, subsidy_economy.x)
    assert np.allclose(price.p, [0.25, 0.75], atol=1e-10)
    subsidies = subsidy_requirements(subsidy_economy, subsidy_economy.x, price)
    assert subsidies[0] == (0, pytest.approx(0.125, abs=1e-12))
    assert subsidies[1] == (1, 0.0)


def test_subsidy_empty_set(e1):
    price = solve_price_balance(e1.A, e1.x)
    with pytest.raises(NoSubsidiesNeededError):
        subsidy_requirements(e1, e1.x, price)


def test_subsidy_all_subsidized_rejected():
    # z strictly dominated by A z in every industry is inadmissible; only a
    # non-productive matrix can dominate a positive z at all.
    model = load_economy({"A": [[0.0, 2.0], [2.0, 0.0]], "x": [1.0, 1.0],
                          "c": [-1.0, -1.0], "e": [0.0, 0.0], "i": [0.0, 0.0]})
    z = np.array([1.0, 1.0])
    assert np.all(z < model.A @ z)
    with pytest.raises(AllSubsidizedError):
        subsidy_requirements(model, z, [0.5, 0.5])


def test_subsidy_sign_matches_negative_value_added(subsidy_economy):
    price = solve_price_balance(subsidy_economy.A, subsidy_economy.x)
    accounts = value_accounts(subsidy_economy, price)
    subsidies = dict(subsidy_requirements(subsidy_economy, subsidy_economy.x, price))
    for k in range(subsidy_economy.n):
        if subsidies[k] > 0:
            assert accounts.Delta[k] < 0
        else:
            assert accounts.Delta[k] >= 0


def test_value_balance_e1(e1):
    accounts = value_accounts(e1, [0.5, 0.5])
    result = value_balance_check(accounts)
    assert result.holds
    assert np.allclose(result.residuals, [0.0, 0.0], atol=1e-12)


def test_value_balance_e2(e2):
    price = solve_price_balance(e2.A, e2.x)
    result = value_balance_check(value_accounts(e2, price), tol=1e-10)
    assert result.holds


def test_value_balance_fails_off_equilibrium(e1):
    accounts = value_accounts(e1, [0.9, 0.1])
    result = value_balance_check(accounts)
    assert not result.holds
    assert abs(result.residuals[0] - 0.8) < 1e-12  # 0.9 - 0.1, by hand


def test_tax_from_value_shares_matches_perfect(e1):
    price = solve_price_balance(e1.A, e1.x)
    accounts = value_accounts(e1, price)
    recovered = tax_from_value_shares(accounts, scale_b=1.0)
    assert np.allclose(recovered.pi, perfect_tax(e1, scale_b=1.0).pi, atol=1e-10)


def test_tax_from_value_shares_e2(e2):
    price = solve_price_balance(e2.A, e2.x)
    accounts = value_accounts(e2, price)
    recovered = tax_from_value_shares(accounts, scale_b=1.0)
    assert np.allclose(recovered.pi, [0.5, 0.5], atol=1e-9)
    assert recovered.provenance is TaxProvenance.EXTERNAL


def test_tax_from_value_shares_zero_delta_boundary():
    # With Delta = 0 the admissible interval closes at 1, so b = 1 is rejected.
    model = load_economy({"A": [[0.0, 1.0], [1.0, 0.0]], "x": [1.0, 1.0],
                          "c": [0.0, 0.0], "e": [0.0, 0.0], "i": [0.0, 0.0]})
    accounts = value_accounts(model, [0.5, 0.5])
    assert np.allclose(accounts.Delta, [0.0, 0.0], atol=1e-15)
    with pytest.raises(ScaleRangeError):
        tax_from_value_shares(accounts, scale_b=1.0)


def test_roundtrip_random_instances():
    # sustainable_tax then check_tax_sustainable recovers the tax's generating
    # vector up to the scale constant.
    rng = np.random.default_rng(37)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        A = random_irreducible_productive(rng, n)
        model = balanced_economy(rng, A)
        z = interior_generating_vector(rng, A)
        tax = sustainable_tax(model, z)
        result = check_tax_sustainable(model, tax)
        assert result.sustainable
        w_original = A @ z
        w_recovered = A @ result.z
        scale = float(w_recovered @ w_original / (w_original @ w_original))
        assert np.max(np.abs(w_recovered / scale - w_original)) <= 1e-8 * np.max(w_original)
        assert markup_condition(A, result.p).holds


def test_perfect_identity_and_positivity_random():
    # Under the perfect system: value added equals final product value, and with
    # an all-positive demand regime every industry's margin is positive.
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        A = random_irreducible_productive(rng, n)
        model = balanced_economy(rng, A)  # final demand positive by construction
        perfect_tax(model)  # asserts preconditions
        price = solve_price_balance(A, model.x)
        accounts = value_accounts(model, price)
        gap = np.max(np.abs(accounts.Delta - accounts.final_product))
        assert gap <= 1e-8 * max(1.0, np.max(np.abs(accounts.X)))
        assert np.all(accounts.delta > 0)
        classification = classify_industries(accounts, tol=1e-9 * max(1.0, np.max(accounts.X)))
        assert classification.I_set | classification.J_set == frozenset(range(n))
        assert not classification.I_set & classification.J_set


def test_scale_invariance_of_equilibrium(e1):
    # pi enters demand only through (1 - pi) o x, proportional to A z; the
    # normalized equilibrium prices cannot depend on the scale constant.
    taxes = [sustainable_tax(e1, [3.0, 2.0], scale_b=b) for b in (0.3, 0.9)]
    prices = [check_tax_sustainable(e1, t).p.p for t in taxes]
    assert np.allclose(prices[0], prices[1], atol=1e-10)


def test_tax_vector_generating_identity():
    # (1 - pi) o x = scale_b * (A z) for both constructions, by construction.
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        A = random_irreducible_productive(rng, n)
        model = balanced_economy(rng, A)
        z = interior_generating_vector(rng, A)
        for tax in (sustainable_tax(model, z), perfect_tax(model)):
            lhs = (1.0 - tax.pi) * model.x
            rhs = tax.scale_b * (A @ tax.z)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(lhs)))


def test_industry_table_and_tsv(e1):
    tax = perfect_tax(e1, scale_b=1.0)
    rows = industry_table(e1, tax, [0.5, 0.5])
    assert [row["industry"] for row in rows] == [1, 2]
    assert rows[0]["class"] == "I"
