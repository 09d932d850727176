"""Construction and analysis of taxation systems.

A taxation system pi (rates in the open interval (0,1)) supports complete
market clearing with strictly positive prices exactly when it has the form

    pi_i = 1 - b (A z)_i / x_i,    0 < b < min_i x_i / (A z)_i,

for some strictly positive z with z > A z componentwise.  The perfect
system is the special case z = x; there, industry value added equals the
value of the industry's final product.  When z / (A z) dips below one in
some industries, those industries run negative value added and need
subsidies to operate at the equilibrium prices.

All value-indicator quantities (gross output X, final demand components,
unit and industry value added, the value-coefficient matrix) are derived
from a price vector by :func:`value_accounts`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .equilibrium import PriceVector, SolverConfig, solve_price_balance
from .errors import (
    AllSubsidizedError,
    BalanceError,
    ConditionViolationError,
    DegenerateInputError,
    DomainError,
    NoSubsidiesNeededError,
    NotIrreducibleError,
    NotProductiveError,
    ScaleRangeError,
)
from .matcheck import MatrixProfile, analyze_matrix, gated_solve
from .model import DEFAULT_BALANCE_TOL, EconomyModel, RegimeKind, demand_regime
from .model import _as_float_vector

logger = logging.getLogger(__name__)

# Residual gate for recovering the generating vector from A z = (1-pi) o x,
# relative to the max-norm of the right-hand side.
RECOVERY_RESIDUAL_GATE = 1e-8
# Prices at or below this fraction of the largest price count as zero when
# forming the value-coefficient matrix; affected columns are flagged NaN.
ZERO_PRICE_FRACTION = 1e-14


class TaxProvenance(Enum):
    SUSTAINABLE = "sustainable"
    PERFECT = "perfect"
    EXTERNAL = "external"


@dataclass(frozen=True)
class TaxVector:
    """Per-industry tax rates with construction provenance.

    For sustainable and perfect constructions, ``z`` records the generating
    vector (the gross output itself for perfect taxes) and ``scale_b`` the
    free constant of the construction.
    """

    pi: np.ndarray
    scale_b: float
    provenance: TaxProvenance
    z: np.ndarray | None = None

    def __post_init__(self):
        pi = _as_float_vector(self.pi, "tax rates")
        if np.any(pi <= 0) or np.any(pi >= 1):
            k = int(np.argmax((pi <= 0) | (pi >= 1)))
            raise DomainError(f"tax rate pi[{k}] = {pi[k]} lies outside the open interval (0, 1)")
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        if self.z is not None:
            z = np.array(self.z, dtype=float)
            z.setflags(write=False)
            object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.pi.shape[0]


@dataclass(frozen=True)
class ValueAccounts:
    """Value-indicator quantities derived from prices and the physical economy.

    ``abar[k, i] = p_k a_ki / p_i`` is defined only for columns with positive
    price; columns at zero price are NaN.  ``delta`` is unit value added
    p - A^T p (negative entries are meaningful: they mark industries that
    need subsidies), ``Delta = x o delta`` industry value added.
    """

    X: np.ndarray
    C: np.ndarray
    Ev: np.ndarray
    Im: np.ndarray
    delta: np.ndarray
    Delta: np.ndarray
    abar: np.ndarray

    def __post_init__(self):
        for name in ("X", "C", "Ev", "Im", "delta", "Delta", "abar"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def final_product(self) -> np.ndarray:
        """Value of final product per industry, C + E - I."""
        return self.C + self.Ev - self.Im


@dataclass(frozen=True)
class IndustryClassification:
    """Partition of industries by the sign of (C + E - I) - Delta.

    ``I_set`` collects industries whose value added does not exceed the
    value of their final product (ties included), ``J_set`` the rest.
    ``signature`` counts (positive, negative, zero) gaps at the same
    tolerance; the first two entries are the two-sign signature, zeros
    landing on the I side by the tie rule.
    """

    I_set: frozenset[int]
    J_set: frozenset[int]
    gaps: np.ndarray
    signature: tuple[int, int, int]


@dataclass(frozen=True)
class SustainabilityResult:
    """Outcome of testing whether a tax system supports sustainable development.

    On success, ``z`` is the recovered generating vector (with the scale
    constant absorbed) and ``p`` the equilibrium prices.  On failure,
    ``failed_stage`` is "solve" (the recovered z misses A z = (1-pi) o x by
    more than the gate, or has negative components) or "markup" (z fails
    z > A z), with a human-readable ``reason``.
    """

    sustainable: bool
    z: np.ndarray | None = None
    p: PriceVector | None = None
    failed_stage: str | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.sustainable


class ValueBalanceResult(NamedTuple):
    holds: bool
    residuals: np.ndarray
    final_product_residuals: np.ndarray


def _require_irreducible_productive(model: EconomyModel,
                                    profile: MatrixProfile | None) -> MatrixProfile:
    if profile is None:
        profile = analyze_matrix(model.A)
    if not profile.productive:
        raise NotProductiveError(
            f"cost matrix has spectral radius {profile.spectral_radius:.6g} >= 1"
        )
    if not profile.irreducible:
        raise NotIrreducibleError("cost matrix digraph is not strongly connected")
    return profile


def admissible_scale_bound(x: np.ndarray, w: np.ndarray) -> float:
    """Upper end of the open interval of admissible scale constants, min_i x_i / w_i."""
    return float(np.min(x / w))


def _cost_denominator(model: EconomyModel, z: np.ndarray, name: str) -> np.ndarray:
    """A z, which must be strictly positive to form tax rates."""
    w = model.A @ z
    if np.any(w <= 0):
        raise DegenerateInputError(f"(A {name}) has a zero component; cannot form tax rates")
    return w


def _generated_tax(model: EconomyModel, z: np.ndarray, w: np.ndarray,
                   scale_b: float | None, provenance: TaxProvenance) -> TaxVector:
    """Rates pi = 1 - b w / x for w = A z, with the scale constant b checked
    against (or defaulting to the midpoint of) its open admissible interval."""
    bound = admissible_scale_bound(model.x, w)
    if scale_b is None:
        scale_b = bound / 2.0
    elif not 0.0 < scale_b < bound:
        raise ScaleRangeError(
            f"scale constant {scale_b} outside the open admissible interval (0, {bound:.6g})"
        )
    pi = 1.0 - scale_b * w / model.x
    return TaxVector(pi=pi, scale_b=float(scale_b), provenance=provenance, z=z)


def sustainable_tax(model: EconomyModel, z, scale_b: float | None = None, *,
                    profile: MatrixProfile | None = None) -> TaxVector:
    """Build the tax system generated by a strictly positive vector z.

    Requires an irreducible productive cost matrix and z_i > (A z)_i in
    every industry; violating industries are reported.  The scale constant
    defaults to the midpoint of its open admissible interval.
    """
    _require_irreducible_productive(model, profile)
    z = _as_float_vector(z, "z", model.n)
    if np.any(z <= 0):
        raise DomainError("the generating vector z must be strictly positive")
    w = _cost_denominator(model, z, "z")
    bad = np.flatnonzero(~(z > w))
    if bad.size:
        ratios = ", ".join(f"z[{k}]/(Az)[{k}] = {z[k] / w[k]:.6g}" for k in bad)
        raise ConditionViolationError(
            f"markup condition z_i > (A z)_i fails at industries {bad.tolist()} ({ratios})",
            indices=bad.tolist(),
        )
    return _generated_tax(model, z, w, scale_b, TaxProvenance.SUSTAINABLE)


def perfect_tax(model: EconomyModel, scale_b: float | None = None, *,
                profile: MatrixProfile | None = None,
                tol: float = DEFAULT_BALANCE_TOL) -> TaxVector:
    """Build the perfect tax system, the sustainable construction with z = x.

    Requires an irreducible productive matrix and a gross output vector
    satisfying the output balance at ``tol``.  Under an all-positive demand
    regime the economy then runs with strictly positive value added in
    every industry; a mixed regime is allowed but flagged, since the
    industries with negative final demand will need subsidies.
    """
    _require_irreducible_productive(model, profile)
    regime = demand_regime(model, tol)
    # On a productive A, INVALID means unbalanced: f < 0 in every good needs rho(A) > 1.
    if regime.kind is RegimeKind.INVALID:
        raise BalanceError("gross output does not satisfy the output balance; "
                           "perfect taxation is defined only on balanced economies")
    if regime.kind is RegimeKind.MIXED:
        logger.warning(
            "mixed demand regime: industries %s have negative final demand and "
            "will need subsidies under the perfect tax system",
            sorted(regime.J_set),
        )
    w = _cost_denominator(model, model.x, "x")
    return _generated_tax(model, model.x, w, scale_b, TaxProvenance.PERFECT)


def check_tax_sustainable(model: EconomyModel, tax,
                          cfg: SolverConfig | None = None) -> SustainabilityResult:
    """Decide whether a tax system supports sustainable development.

    Attempts to recover a nonnegative z solving A z = (1 - pi) o x (the
    scale constant absorbed into z) by :func:`gated_solve`.  The tax system
    is sustainable when that z passes the residual gate and satisfies
    z > A z; the equilibrium prices are then solved and returned.  On a
    singular A only the minimum-norm solution is tried, so a "no" does not
    rule out another solution with z > A z.
    """
    rates = _as_float_vector(tax, "tax rates", model.n, held="pi")
    if np.any(rates <= 0) or np.any(rates >= 1):
        raise DomainError("tax rates must lie in the open interval (0, 1)")
    rhs = (1.0 - rates) * model.x
    gate = RECOVERY_RESIDUAL_GATE * float(np.max(rhs))
    z, within_gate = gated_solve(model.A, rhs, gate)
    if not within_gate:
        return SustainabilityResult(
            sustainable=False, failed_stage="solve",
            reason="no nonnegative z solves A z = (1 - pi) o x within tolerance",
        )
    if float(np.min(z)) < -gate:
        return SustainabilityResult(
            sustainable=False, failed_stage="solve",
            reason="the z found solving A z = (1 - pi) o x has negative components",
        )
    z = np.maximum(z, 0.0)
    bad = np.flatnonzero(~(z > model.A @ z))
    if bad.size:
        return SustainabilityResult(
            sustainable=False, failed_stage="markup",
            reason=f"markup condition z_i > (A z)_i fails at industries {bad.tolist()}",
        )
    p = solve_price_balance(model.A, z, cfg)
    return SustainabilityResult(sustainable=True, z=z, p=p)


def value_accounts(model: EconomyModel, p) -> ValueAccounts:
    """Derive all value-indicator quantities from a nonnegative price vector."""
    prices = _as_float_vector(p, "prices", model.n, held="p")
    if np.any(prices < 0):
        raise DomainError("prices must be nonnegative")
    costs = model.A.T @ prices
    delta = prices - costs
    top = float(np.max(prices)) if prices.size else 0.0
    positive = prices > ZERO_PRICE_FRACTION * top if top > 0 else np.zeros(model.n, bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        abar = np.where(positive[np.newaxis, :],
                        prices[:, np.newaxis] * model.A / prices[np.newaxis, :],
                        np.nan)
    return ValueAccounts(
        X=prices * model.x,
        C=prices * model.c,
        Ev=prices * model.e,
        Im=prices * model.m,
        delta=delta,
        Delta=model.x * delta,
        abar=abar,
    )


def classify_industries(accounts: ValueAccounts, tol: float = 1e-9) -> IndustryClassification:
    """Partition industries by the sign of (C + E - I) - Delta.

    Ties (gaps inside the tolerance band) land in ``I_set``, matching the
    weak inequality of the dichotomy; the signature counts positive,
    negative, and banded gaps separately.
    """
    gaps = accounts.final_product - accounts.Delta
    in_i = gaps >= -tol
    positive = int(np.count_nonzero(gaps > tol))
    negative = int(np.count_nonzero(gaps < -tol))
    zero = gaps.shape[0] - positive - negative
    return IndustryClassification(
        I_set=frozenset(int(k) for k in np.flatnonzero(in_i)),
        J_set=frozenset(int(k) for k in np.flatnonzero(~in_i)),
        gaps=gaps,
        signature=(positive, negative, zero),
    )


def _value_scale(accounts: ValueAccounts) -> float:
    """max(1, max|X|), the scale of the classification and value-balance bands."""
    return max(1.0, float(np.max(np.abs(accounts.X))))


def _classify(accounts: ValueAccounts, tol: float = 1e-9) -> IndustryClassification:
    """:func:`classify_industries` at ``tol`` relative to max(1, max|X|)."""
    return classify_industries(accounts, tol=tol * _value_scale(accounts))


def subsidy_requirements(model: EconomyModel, z, p) -> list[tuple[int, float]]:
    """Minimum subsidy per industry under the tax system generated by z.

    Industries with z_k < (A z)_k run negative value added at the
    equilibrium prices for z; the subsidy floor there is
    x_k p_k ((A z)_k / z_k - 1).  All other industries map to zero.
    """
    z = _as_float_vector(z, "z", model.n)
    if np.any(z <= 0):
        raise DomainError("the generating vector z must be strictly positive")
    prices = _as_float_vector(p, "prices", model.n, held="p")
    w = model.A @ z
    needy = np.flatnonzero(z / w < 1.0)
    if needy.size == model.n:
        raise AllSubsidizedError(
            "z < A z in every industry contradicts productivity; z is not admissible"
        )
    if needy.size == 0:
        raise NoSubsidiesNeededError("z >= A z everywhere; no industry needs subsidies")
    amounts = np.zeros(model.n)
    amounts[needy] = model.x[needy] * prices[needy] * (w[needy] / z[needy] - 1.0)
    return [(int(k), float(amounts[k])) for k in range(model.n)]


def value_balance_check(accounts: ValueAccounts, tol: float = 1e-9) -> ValueBalanceResult:
    """Check the value-indicator balance identities at an equilibrium.

    ``residuals`` holds sum_i abar_ki X_i - (sum_s abar_sk) X_k, which
    vanishes at a sustainable-mode equilibrium; the second identity checked
    is C + E - I = (1 - sum_s abar_sk) o X.  Both gates are relative to the
    max-norm of X.  Requires strictly positive prices (a fully defined
    value-coefficient matrix).
    """
    if np.any(np.isnan(accounts.abar)):
        raise DomainError("value balance requires strictly positive prices "
                          "(value-coefficient matrix has flagged columns)")
    colsum = accounts.abar.sum(axis=0)
    residuals = accounts.abar @ accounts.X - colsum * accounts.X
    final_product_residuals = accounts.final_product - (1.0 - colsum) * accounts.X
    scale = _value_scale(accounts)
    holds = bool(
        np.max(np.abs(residuals)) <= tol * scale
        and np.max(np.abs(final_product_residuals)) <= tol * scale
    )
    return ValueBalanceResult(holds=holds, residuals=residuals,
                              final_product_residuals=final_product_residuals)


def tax_from_value_shares(accounts: ValueAccounts, scale_b: float) -> TaxVector:
    """Recover tax rates from value shares, pi_k = 1 - b (1 - Delta_k / X_k).

    Cross-checks the direct construction: at the same equilibrium the
    result coincides with the generating-vector form.  The scale constant
    must lie in (0, min_k 1 / sum_s abar_sk).
    """
    if np.any(np.isnan(accounts.abar)):
        raise DomainError("value-share taxes require strictly positive prices")
    if np.any(accounts.X <= 0):
        raise DomainError("value-share taxes require strictly positive value output X")
    colsum = accounts.abar.sum(axis=0)
    if np.any(colsum <= 0):
        raise DegenerateInputError("a value-coefficient column sums to zero")
    bound = float(1.0 / np.max(colsum))
    if not 0.0 < scale_b < bound:
        raise ScaleRangeError(
            f"scale constant {scale_b} outside the open admissible interval (0, {bound:.6g})"
        )
    pi = 1.0 - scale_b * colsum
    return TaxVector(pi=pi, scale_b=float(scale_b), provenance=TaxProvenance.EXTERNAL)


def industry_table(model: EconomyModel, tax: TaxVector, p,
                   accounts: ValueAccounts | None = None,
                   classification: IndustryClassification | None = None,
                   subsidies: list[tuple[int, float]] | None = None,
                   tol: float = 1e-9) -> list[dict]:
    """Per-industry report rows: rates, prices, value added, gaps, class, subsidy.

    Industries are numbered from 1 in reports.  The values are the floats
    of the arrays they come from, unrounded; a report rounds them.
    """
    prices = _as_float_vector(p, "prices", model.n, held="p")
    if accounts is None:
        accounts = value_accounts(model, prices)
    if classification is None:
        classification = _classify(accounts, tol)
    amounts = dict(subsidies or [])
    columns = zip(tax.pi.tolist(), prices.tolist(), accounts.delta.tolist(),
                  accounts.Delta.tolist(), accounts.final_product.tolist(),
                  classification.gaps.tolist(), strict=True)
    return [{"industry": k + 1, "pi": pi, "price": price, "delta": delta, "Delta": Delta,
             "final_product": final, "gap": gap,
             "class": "I" if k in classification.I_set else "J",
             "subsidy": float(amounts.get(k, 0.0))}
            for k, (pi, price, delta, Delta, final, gap) in enumerate(columns)]

