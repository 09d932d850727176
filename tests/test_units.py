"""Answers that do not depend on the units in which each good is measured.

Measuring good k in a unit d_k = 2^(k_k) times smaller turns A into
D A D^-1 and x, c, e and i into D x, D c, D e and D i, with D = diag(d).  A
product by a power of two is exact in binary floating point, so every
dimensionless answer must come out the same.  The unit changes here keep
every good within 2^10 of the others; the bands that are not yet relative
per good (the demand regime's and the balance gate's, set by max|x|, and
the clearing rows', floored at 1) change some answers at larger spreads.
"""

import numpy as np
import pytest

from conftest import random_irreducible_productive
from iotax import (
    analyze_matrix,
    check_tax_sustainable,
    demand_regime,
    load_economy,
    perfect_tax,
    solve_price_balance,
    value_accounts,
)
from iotax.taxation import _classify


def _economies(rng: np.random.Generator):
    """60 balanced economies drawn as the benchmark draws them, n = 5, 10
    and 30, every other one with negative final demand in a tenth of its
    goods, and exports and imports in every good."""
    for k in range(60):
        n = (5, 10, 30)[k % 3]
        A = random_irreducible_productive(rng, n)
        f = rng.uniform(0.5, 1.5, size=n)
        if k % 2:
            negative = rng.choice(n, size=max(1, n // 10), replace=False)
            f[negative] = -rng.uniform(0.05, 0.3, size=negative.size)
            while not np.all(np.linalg.solve(np.eye(n) - A, f) > 0):
                f[negative] /= 2.0
        x = np.linalg.solve(np.eye(n) - A, f)
        e = rng.uniform(0.0, 0.2, size=n)
        i = rng.uniform(0.0, 0.2, size=n)
        z = np.linalg.solve(np.eye(n) - A, rng.uniform(0.2, 1.0, size=n))
        yield {"A": A, "x": x, "c": f - e + i, "e": e, "i": i}, z


def _in_units(doc: dict, d: np.ndarray) -> dict:
    scaled = {key: d * doc[key] for key in ("x", "c", "e", "i")}
    return dict(scaled, A=d[:, np.newaxis] * doc["A"] / d[np.newaxis, :])


def _answers(doc: dict, z: np.ndarray) -> dict:
    """The dimensionless answers of validate, tax-perfect, classify (at the
    perfect prices, where every gap is roundoff, and at the prices for z)
    and check-tax at the perfect rates."""
    model = load_economy({key: value.tolist() for key, value in doc.items()})
    profile = analyze_matrix(model.A)
    regime = demand_regime(model)
    system = perfect_tax(model, profile=profile)
    classes = [_classify(value_accounts(model, solve_price_balance(model.A, v)))
               for v in (model.x, z)]
    check = check_tax_sustainable(model, system.pi)
    return {
        "regime": (regime.kind, regime.I_set, regime.J_set),
        "structure": (profile.irreducible, profile.productive),
        "radius": profile.spectral_radius,
        "pi": system.pi.tobytes(),
        "scale_b": system.scale_b,
        "classification": [(c.I_set, c.J_set) for c in classes],
        "sustainable": (check.sustainable, check.failed_stage),
    }


@pytest.mark.parametrize("K", [4, 10])
def test_answers_do_not_depend_on_the_units_of_each_good(K):
    units = np.random.default_rng([2026, K])
    mixed = 0
    for doc, z in _economies(np.random.default_rng(2026)):
        d = np.exp2(units.integers(-K, K + 1, size=z.shape[0]))
        base, changed = _answers(doc, z), _answers(_in_units(doc, d), d * z)
        assert changed.pop("radius") == pytest.approx(base.pop("radius"), rel=1e-9, abs=0.0)
        assert changed == base
        mixed += len(base["regime"][2]) > 0
    assert mixed == 30
