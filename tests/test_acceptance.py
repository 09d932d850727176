"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values are hand-derived desk fixtures or brute-force
oracles; random suites use fixed seeds so runs are reproducible.
"""

import time

import numpy as np
import pytest
from scipy.optimize import nnls as _nnls

from conftest import random_clearing_instance, random_simplex
from iotax import (
    ClearingProblem,
    alpha_from_solution,
    check_tax_sustainable,
    classify_industries,
    equilibrium_from_solution,
    load_economy,
    markup_condition,
    min_excess_solution,
    perfect_tax,
    ray_bounds,
    scale_function,
    solution_from_alpha,
    solve_price_balance,
    subsidy_requirements,
    support_solution,
    sustainable_tax,
    value_accounts,
    value_balance_check,
    verify_partial_clearing,
)
from iotax.errors import NoEquilibriumError
from test_clearing import brute_force_objective, brute_force_z_grid

E1 = load_economy({"A": [[0.0, 0.5], [0.5, 0.0]], "x": [2.0, 2.0],
                   "c": [1.0, 1.0], "e": [0.0, 0.0], "i": [0.0, 0.0]})
E2 = load_economy({"A": [[0.2, 0.3], [0.4, 0.1]], "x": [10.0, 10.0],
                   "c": [5.0, 5.0], "e": [0.0, 0.0], "i": [0.0, 0.0]})
SUBSIDY = load_economy({"A": [[0.0, 0.5], [0.5, 0.0]], "x": [1.0, 3.0],
                        "c": [-0.5, 2.5], "e": [0.0, 0.0], "i": [0.0, 0.0]})

LAMBDA_RESIDUALS: list[float] = []


def _report(number: int, description: str, passed: bool):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def _track(price):
    LAMBDA_RESIDUALS.append(price.lambda_residual)
    return price


def _sustainability_suite(count: int = 200):
    """Suite of random sustainable-tax instances shared by criteria 3 and 5."""
    rng = np.random.default_rng(2024)
    for _ in range(count):
        n = int(rng.integers(3, 31))
        A = rng.uniform(0.0, 1.0, size=(n, n))
        A[rng.uniform(size=(n, n)) < 0.3] = 0.0
        for i in range(n):
            A[i, (i + 1) % n] = max(A[i, (i + 1) % n], 0.2)
        rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        A *= rng.uniform(0.3, 0.9) / rho
        f = rng.uniform(0.5, 1.5, size=n)
        x = np.linalg.solve(np.eye(n) - A, f)
        model = load_economy({"A": A.tolist(), "x": x.tolist(), "c": f.tolist(),
                              "e": [0.0] * n, "i": [0.0] * n})
        alpha = rng.uniform(0.2, 1.0, size=n)
        z = np.linalg.solve(np.eye(n) - A, alpha)
        yield model, z


def test_criterion_1_e1_perfect_pipeline():
    tax = perfect_tax(E1, scale_b=1.0)
    price = _track(solve_price_balance(E1.A, E1.x))
    accounts = value_accounts(E1, price)

    def pipeline():
        t = perfect_tax(E1, scale_b=1.0)
        p = solve_price_balance(E1.A, E1.x)
        acc = value_accounts(E1, p)
        return t, p, acc

    pipeline()  # warm
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        pipeline()
        runs.append(time.perf_counter() - start)
    elapsed = min(runs)

    ok = (
        np.allclose(tax.pi, [0.5, 0.5], atol=1e-12)
        and price.fp_residual <= 1e-10
        and np.allclose(price.p, [0.5, 0.5], atol=1e-10)
        and np.allclose(accounts.delta, [0.25, 0.25], atol=1e-10)
        and float(np.max(np.abs(accounts.Delta - accounts.final_product))) <= 1e-10
        and elapsed < 0.010
    )
    _report(1, f"E1 perfect-tax pipeline exact, runtime {elapsed * 1e3:.2f} ms < 10 ms", ok)


def test_criterion_2_e2_equilibrium_and_value_balance():
    price = _track(solve_price_balance(E2.A, E2.x))
    accounts = value_accounts(E2, price)
    balance = value_balance_check(accounts)
    ok = (
        float(np.max(np.abs(price.p - np.array([4.0 / 7.0, 3.0 / 7.0])))) <= 1e-9
        and float(np.max(np.abs(balance.residuals))) <= 1e-9
        and float(np.max(np.abs(balance.final_product_residuals))) <= 1e-9
    )
    _report(2, "E2 equilibrium p = [4/7, 3/7] +- 1e-9 with value balance <= 1e-9", ok)


def test_criterion_3_sustainability_roundtrip():
    start = time.perf_counter()
    worst_fit = 0.0
    all_ok = True
    for model, z in _sustainability_suite():
        tax = sustainable_tax(model, z)
        result = check_tax_sustainable(model, tax)
        if not result.sustainable:
            all_ok = False
            break
        _track(result.p)
        w_original = model.A @ z
        w_recovered = model.A @ result.z
        scale = float(w_recovered @ w_original / (w_original @ w_original))
        worst_fit = max(worst_fit, float(np.max(np.abs(w_recovered / scale - w_original))))
        if not markup_condition(model.A, result.p, tol=1e-12).holds:
            all_ok = False
            break
    elapsed = time.perf_counter() - start
    ok = all_ok and worst_fit <= 1e-7 and elapsed < 10.0
    _report(3, f"200-instance round-trip (worst scale-matched fit {worst_fit:.2e}, "
               f"{elapsed:.1f} s < 10 s)", ok)


def test_criterion_4_lambda_law():
    solves = list(LAMBDA_RESIDUALS)
    solves.append(solve_price_balance(E1.A, E1.x).lambda_residual)
    solves.append(solve_price_balance(E2.A, E2.x).lambda_residual)
    solves.append(solve_price_balance(SUBSIDY.A, SUBSIDY.x).lambda_residual)
    rng = np.random.default_rng(404)
    for _ in range(60):
        n = int(rng.integers(2, 20))
        A = rng.uniform(0.05, 1.0, size=(n, n))
        z = rng.uniform(0.2, 2.0, size=n)
        solves.append(solve_price_balance(A, z).lambda_residual)
    # restricted clearing solves exercise the zero-price embedding
    equilibrium = equilibrium_from_solution(np.array([[1.0, 2.0], [2.0, 4.0]]),
                                            np.array([1.0, 1.0]), [0.0, 0.25])
    solves.append(equilibrium.p.lambda_residual)
    worst = max(solves)
    _report(4, f"|lambda - 1| <= 1e-10 across {len(solves)} successful solves "
               f"(worst {worst:.2e})", worst <= 1e-10)


def test_criterion_5_classification_dichotomy():
    dichotomy_ok = True
    perfect_gap_ok = True
    for model, z in _sustainability_suite():
        n = model.n
        price = solve_price_balance(model.A, z)
        accounts = value_accounts(model, price)
        scale = max(1.0, float(np.max(np.abs(accounts.X))))
        classification = classify_industries(accounts, tol=1e-9 * scale)
        if (classification.I_set | classification.J_set != frozenset(range(n))
                or classification.I_set & classification.J_set):
            dichotomy_ok = False
            break
        perfect_price = solve_price_balance(model.A, model.x)
        perfect_accounts = value_accounts(model, perfect_price)
        gaps = perfect_accounts.final_product - perfect_accounts.Delta
        x_scale = float(np.max(np.abs(perfect_accounts.X)))
        if float(np.max(np.abs(gaps))) > 1e-8 * x_scale:
            perfect_gap_ok = False
            break
    _report(5, "classification partitions every run; perfect-tax gaps within "
               "1e-8 * ||X||_inf", dichotomy_ok and perfect_gap_ok)


def test_criterion_6_subsidy_fixture():
    price = _track(solve_price_balance(SUBSIDY.A, SUBSIDY.x))
    subsidies = dict(subsidy_requirements(SUBSIDY, SUBSIDY.x, price))
    w = SUBSIDY.A @ SUBSIDY.x
    needy = {k for k in range(2) if SUBSIDY.x[k] / w[k] < 1.0}
    ok = (
        needy == {0}
        and float(np.max(np.abs(price.p - np.array([0.25, 0.75])))) <= 1e-9
        and abs(subsidies[0] - 0.125) <= 1e-10
        and subsidies[1] == 0.0
    )
    _report(6, "subsidy fixture: J = {1}, p = [1/4, 3/4], s_1 = 0.125 +- 1e-10", ok)


def test_criterion_7_family_completeness():
    rng = np.random.default_rng(777)
    roundtrip_ok = True
    scale_ok = True
    for _ in range(500):
        problem = random_clearing_instance(rng)
        for alpha in random_simplex(rng, problem.l, size=3):
            family = solution_from_alpha(problem, alpha)
            back, _ = alpha_from_solution(problem, family.z)
            redone = solution_from_alpha(problem, back)
            if (float(np.max(np.abs(back - alpha))) > 1e-9
                    or float(np.max(np.abs(redone.z - family.z))) > 1e-9):
                roundtrip_ok = False
        samples = random_simplex(rng, problem.l, size=1000)
        if np.any(scale_function(problem, samples) < 1.0 - 1e-12):
            scale_ok = False
        if not (roundtrip_ok and scale_ok):
            break
    _report(7, "500 instances: parametrization round-trips within 1e-9; "
               "c(alpha) >= 1 - 1e-12 on 1000 samples each", roundtrip_ok and scale_ok)


def test_criterion_8_qp_global_optimality():
    fixture = ClearingProblem(C=[[1.0], [2.0]], b=[1.0, 1.0])
    family = min_excess_solution(fixture)
    fixture_ok = abs(family.objective - 0.25) <= 1e-12

    rng = np.random.default_rng(88)
    grid_ok = True
    checked = 0
    while checked < 20:
        n = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        C = rng.uniform(0.3, 1.2, size=(n, l))
        b = rng.uniform(0.5, 1.2, size=n)
        problem = ClearingProblem(C=C, b=b)
        result = min_excess_solution(problem)
        if result.full_clearing:
            continue
        reference = brute_force_objective(problem)
        if abs(result.objective - reference) > 1e-5:
            grid_ok = False
            break
        if problem.l <= 2 and abs(result.objective - brute_force_z_grid(problem)) > 2e-3:
            grid_ok = False
            break
        checked += 1
    _report(8, "QP objective matches brute-force family grid within 1e-5 on "
               f"{checked} instances; fixture objective 0.25 exact to 1e-12",
            fixture_ok and grid_ok)


def test_criterion_9_partial_clearing_fixture():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    b = np.array([1.0, 1.0])
    equilibrium = equilibrium_from_solution(A, b, [0.0, 0.25])
    _track(equilibrium.p)
    ok = (
        equilibrium.I_set == frozenset({1})
        and float(np.max(np.abs(equilibrium.p.p - np.array([0.0, 1.0])))) <= 1e-9
        and equilibrium.p.p[0] <= 1e-15  # zero price on the slack row
        and np.allclose(equilibrium.p_u, [2.0, 1.0], atol=1e-12)
        and abs(equilibrium.R - 1.0 / 3.0) <= 1e-12
        and bool(verify_partial_clearing(A, b, equilibrium))
    )
    _report(9, "partial-clearing fixture: I = {2}, p = [0, 1], p_u = [2, 1], "
               "R = 1/3 +- 1e-12, verified", ok)


def test_criterion_10_support_equivalence():
    rng = np.random.default_rng(1010)
    counterexamples = 0
    equilibria = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        A = rng.uniform(0.05, 1.05, size=(n, n))
        b = rng.uniform(0.5, 1.5, size=n)
        for mask in range(1, 2 ** n):
            support = [k for k in range(n) if mask & (1 << k)]
            z = support_solution(A, b, support)
            if z is None:
                continue
            # (a) every restricted solution yields a verified equilibrium
            try:
                equilibrium = equilibrium_from_solution(A, b, z)
            except NoEquilibriumError:
                counterexamples += 1
                continue
            if not verify_partial_clearing(A, b, equilibrium):
                counterexamples += 1
                continue
            equilibria += 1
            # (b) the equilibrium prices reproduce a nonnegative solution of
            # the restricted system on the equality set
            I = sorted(equilibrium.I_set)
            p = equilibrium.p.p
            costs = A.T @ p
            extracted = np.zeros(n)
            extracted[I] = b[I] * p[I] / costs[I]
            fitted = A @ extracted
            band = 1e-6 * np.maximum(1.0, b)
            if (np.min(extracted) < -1e-12
                    or np.max(np.abs(fitted[I] - b[I])) > band[list(I)].max()
                    or np.any(fitted[sorted(equilibrium.J_set)]
                              >= b[sorted(equilibrium.J_set)] - 1e-9)):
                counterexamples += 1
    _report(10, f"support enumeration: {equilibria} equilibria across 100 instances, "
                f"{counterexamples} counterexamples", counterexamples == 0 and equilibria > 0)
