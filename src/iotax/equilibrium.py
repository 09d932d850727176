"""Price-balance fixed point solver and market-clearing verification.

The central object is the system

    z_k / (A z)_k = p_k / (A^T p)_k,        k = 1..n,

for a nonnegative matrix A and a vector z with A z strictly positive.
Writing y_k = z_k / (A z)_k and V = A diag(y), the system becomes the
eigenproblem V^T p = lambda p, and lambda = 1 at any fixed point with
nonnegative p (multiply row k by (A z)_k and sum: (1 - lambda) <p, A z> = 0).
A z is itself a positive eigenvector of V for eigenvalue 1, so the Perron
root of V is exactly 1 and a damped power iteration on V^T converges.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DegenerateInputError, DomainError, NotEquilibriumError
from .model import _as_float_matrix, _as_float_vector


class Normalization(Enum):
    SUM_TO_ONE = "sum_to_one"
    FIRST_TO_ONE = "first_to_one"


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the damped fixed-point iteration.

    Damping 0.5 makes the iteration matrix aperiodic without changing the
    fixed points (plain power iteration oscillates on periodic matrices
    such as a 2x2 anti-diagonal).  The tight default tolerance keeps the
    downstream value identities testable at 1e-8.
    """

    tol: float = 1e-12
    max_iter: int = 100_000
    damping: float = 0.5
    normalization: Normalization = Normalization.SUM_TO_ONE

    def __post_init__(self):
        if not self.tol > 0:
            raise DomainError(f"tol must be positive, got {self.tol}")
        if self.max_iter <= 0:
            raise DomainError(f"max_iter must be positive, got {self.max_iter}")
        if not 0.0 < self.damping <= 1.0:
            raise DomainError(f"damping must lie in (0, 1], got {self.damping}")


@dataclass(frozen=True)
class PriceVector:
    """Nonnegative price vector with solver diagnostics.

    ``lambda_residual`` is |lambda - 1| at the accepted iterate and
    ``fp_residual`` the max-norm fixed-point residual; both are below the
    solver tolerance on success.
    """

    p: np.ndarray
    normalization: Normalization
    lambda_residual: float
    fp_residual: float

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


class RowStatus(Enum):
    CLEARED = "cleared"
    EXCESS = "excess"


@dataclass(frozen=True)
class ClearingReportRow:
    """Per-industry demand/supply comparison at a candidate equilibrium."""

    industry: int
    demand_side: float
    supply_side: float
    status: RowStatus


class MarkupResult(NamedTuple):
    holds: bool
    margins: np.ndarray


def solve_price_balance(A, z, cfg: SolverConfig | None = None, *,
                        p0=None, require_positive: bool = False) -> PriceVector:
    """Solve the price-balance system for a nonnegative matrix and vector.

    Returns a nonnegative price vector with fixed-point residual and
    |lambda - 1| at most ``cfg.tol``, normalized per ``cfg.normalization``.
    When A is irreducible and z strictly positive, the result is strictly
    positive and unique up to scale; callers in that situation may pass
    ``require_positive`` to have the guarantee asserted (zeros are legal
    otherwise, and needed for partial clearing).

    Primary path is a damped normalized iteration
    p <- (1 - theta) p + theta (V^T p) / ||V^T p||_1; if it exhausts its
    budget, the homogeneous system (V^T - E) p = 0 with an appended
    normalization row is solved by least squares and accepted only when its
    residual passes the same gate.
    """
    if cfg is None:
        cfg = SolverConfig()
    A = _as_float_matrix(A, "cost matrix")
    if not np.any(A > 0):
        raise DomainError("cost matrix must be nonzero")
    n = A.shape[0]
    z = _as_float_vector(z, "z", n)
    if np.any(z < 0):
        raise DomainError("z must be nonnegative")
    w = A @ z
    if np.any(w <= 0):
        k = int(np.argmin(w))
        raise DegenerateInputError(
            f"(A z)[{k}] = {w[k]}; the cost denominator must be strictly positive"
        )

    y = z / w
    iteration = (A * y[np.newaxis, :]).T  # (V^T)[k, i] = a_ik * y_k

    if p0 is None:
        p = np.full(n, 1.0 / n)
    else:
        p = _as_float_vector(p0, "p0", n)
        if np.any(p < 0) or p.sum() <= 0:
            raise DomainError("p0 must be a nonnegative vector with positive sum")
        p = p / p.sum()

    theta = cfg.damping
    lam_res = np.inf
    fp_res = np.inf
    converged = False
    for _ in range(cfg.max_iter):
        q = iteration @ p
        total = float(q.sum())
        fp_res = float(np.max(np.abs(q - p)))
        lam_res = abs(total - 1.0)  # lambda = sum(V^T p) since sum(p) = 1
        if fp_res <= cfg.tol and lam_res <= cfg.tol:
            converged = True
            break
        if total <= 0:
            break  # p is supported entirely on vanishing columns
        p = (1.0 - theta) * p + theta * q / total
        p = p / p.sum()

    if not converged:
        p = _least_squares_fixed_point(iteration, cfg)
        q = iteration @ p
        fp_res = float(np.max(np.abs(q - p)))
        lam_res = abs(float(q.sum()) - 1.0)
        if fp_res > cfg.tol or lam_res > cfg.tol:
            raise ConvergenceError(
                f"price fixed point not reached: residual {fp_res:.3e}, "
                f"|lambda-1| {lam_res:.3e} after {cfg.max_iter} iterations"
            )

    if require_positive and float(np.min(p)) <= cfg.tol * float(np.max(p)):
        k = int(np.argmin(p))
        raise ConvergenceError(
            f"price p[{k}] = {p[k]:.3e} cannot be certified strictly positive "
            "at the solver tolerance"
        )
    if cfg.normalization is Normalization.FIRST_TO_ONE:
        if p[0] <= 0:
            raise DegenerateInputError("cannot normalize: first price is zero")
        p = p / p[0]
    else:
        p = p / p.sum()
    return PriceVector(
        p=p,
        normalization=cfg.normalization,
        lambda_residual=lam_res,
        fp_residual=fp_res,
    )


def _least_squares_fixed_point(iteration: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Null-vector fallback: lambda = 1 is exact, so solve (V^T - E) p = 0."""
    n = iteration.shape[0]
    system = np.vstack([iteration - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    p, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    if float(np.min(p)) < -cfg.tol or p.sum() <= 0:
        raise ConvergenceError("least-squares fallback produced no nonnegative fixed point")
    p = np.maximum(p, 0.0)
    return p / p.sum()


def markup_condition(A, p, tol: float = 1e-12) -> MarkupResult:
    """Per-industry price margins p_k - (A^T p)_k and whether all exceed tol."""
    A = _as_float_matrix(A, "cost matrix")
    prices = _as_float_vector(p, "prices", A.shape[0], held="p")
    margins = prices - A.T @ prices
    return MarkupResult(holds=bool(np.all(margins > tol)), margins=margins)


def verify_clearing(A, x, tax, p, tol: float = 1e-9) -> list[ClearingReportRow]:
    """Evaluate demand against after-tax supply in every industry.

    Demand in industry k is sum_i a_ki (1-pi_i) x_i p_i / (A^T p)_i and
    supply is (1-pi_k) x_k.  Rows are Cleared when the two sides agree
    within ``tol`` relative to max(1, supply) and Excess when demand falls
    short; demand exceeding supply beyond the band means p is not an
    equilibrium and raises.
    """
    A = _as_float_matrix(A, "cost matrix")
    n = A.shape[0]
    x = _as_float_vector(x, "x", n)
    rates = _as_float_vector(tax, "tax rates", n, held="pi")
    prices = _as_float_vector(p, "prices", n, held="p")

    supply = (1.0 - rates) * x
    numerators = supply * prices
    costs = A.T @ prices
    bad = (numerators > 0) & (costs <= 0)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise DegenerateInputError(f"zero cost denominator at industry {k} with positive demand")
    shares = np.divide(numerators, costs, out=np.zeros(n), where=costs > 0)
    demand = A @ shares

    rows = []
    violations = []
    for k in range(n):
        band = tol * max(1.0, supply[k])
        if abs(demand[k] - supply[k]) <= band:
            status = RowStatus.CLEARED
        elif demand[k] < supply[k]:
            status = RowStatus.EXCESS
        else:
            violations.append(k)
            status = RowStatus.EXCESS
        rows.append(ClearingReportRow(
            industry=k,
            demand_side=float(demand[k]),
            supply_side=float(supply[k]),
            status=status,
        ))
    if violations:
        worst = max(violations, key=lambda k: rows[k].demand_side - rows[k].supply_side)
        raise NotEquilibriumError(
            f"demand exceeds supply at industries {violations} "
            f"(worst: industry {worst}, demand {rows[worst].demand_side:.6g} "
            f"> supply {rows[worst].supply_side:.6g}); prices are not an equilibrium"
        )
    return rows
