"""Price-balance fixed point and market-clearing verification.

The central object is the system

    z_k / (A z)_k = p_k / (A^T p)_k,        k = 1..n,

for a nonnegative matrix A and a nonnegative vector z with w = A z strictly
positive.  Multiplying row k by w_k shows that p solves it exactly when
pi = p o w is a stationary vector of the row-stochastic matrix
P[k, i] = a_ki z_i / w_k.  Grassmann-Taksar-Heyman elimination (Oper. Res.
33(5), 1985) finds pi directly and without subtractions, so each entry is
accurate to a few units of roundoff (O'Cinneide, Numer. Math. 65, 1993)
however slowly the chain mixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dgemm, dtrsm, dtrsv

from .errors import ConvergenceError, DegenerateInputError, DomainError, NotEquilibriumError
from .model import _as_float_matrix, _as_float_vector, _check_tol

GTH_LEAF = 16  # larger blocks are halved and joined by level-3 BLAS
_TINY = np.finfo(float).tiny  # pivots below it are subnormal


class Normalization(Enum):
    SUM_TO_ONE = "sum_to_one"
    FIRST_TO_ONE = "first_to_one"


@dataclass(frozen=True)
class SolverConfig:
    """Gate and normalization of the price solve, a direct elimination that
    also finds whether the chain is reducible: ``tol`` bounds the fixed-point
    residual and |lambda - 1| it must pass, and the relative margin
    ``require_positive`` asks of the least price."""

    tol: float = 1e-12
    normalization: Normalization = Normalization.SUM_TO_ONE

    def __post_init__(self):
        _check_tol(self.tol, "tol")


@dataclass(frozen=True)
class PriceVector:
    """Nonnegative price vector with solver diagnostics.

    ``lambda_residual`` is |lambda - 1| and ``fp_residual`` the max-norm
    fixed-point residual, both at the returned prices scaled to sum one;
    both are below the solver tolerance on success.
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
                        require_positive: bool = False) -> PriceVector:
    """Solve the price-balance system for a nonnegative matrix and vector.

    Returns a nonnegative price vector with fixed-point residual and
    |lambda - 1| at most ``cfg.tol``, normalized per ``cfg.normalization``.
    One elimination of the whole chain P finds whether it is reducible: a
    pivot is 0.0 only where a final class (a strongly connected set the
    chain never leaves) misses the last industry.  Without one, the chain
    has one final class and the result is unique up to scale, with price
    exactly zero on transient industries.  With one, the final classes are
    labelled and each is eliminated on its own; transient industries again
    get price zero, and each final class carries the same share of the total.

    When A is irreducible and z strictly positive, every price is positive
    and accurate to a few units of roundoff by construction, however small.
    ``require_positive`` asks for more: that no price falls below ``cfg.tol``
    times the largest, which raises ConvergenceError otherwise (zeros are
    legal without it, and needed for partial clearing).
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
    with np.errstate(over="ignore"):
        w = A @ z
    if not np.all(np.isfinite(w)):
        k = int(np.flatnonzero(~np.isfinite(w))[0])
        raise DegenerateInputError(f"(A z)[{k}] overflows the floating-point range")
    if np.any(w <= 0):
        k = int(np.argmin(w))
        raise DegenerateInputError(
            f"(A z)[{k}] = {w[k]}; the cost denominator must be strictly positive"
        )

    pi = _gth(_chain(A, z, w))
    if pi is not None:
        share = pi / w
        p = share / share.sum()
    else:  # a closed class misses the last state: eliminate each one alone
        G = _chain(A, z, w)
        edges = G < 0
        count, labels = connected_components(edges)
        leaves = (edges & (labels[:, np.newaxis] != labels[np.newaxis, :])).any(axis=1)
        closed = np.bincount(labels, weights=leaves, minlength=count) == 0
        p = np.zeros(n)
        for c in np.flatnonzero(closed):
            states = np.flatnonzero(labels == c)
            pi = _gth(np.asfortranarray(G[np.ix_(states, states)]))
            if pi is None:
                raise ConvergenceError(
                    f"price elimination underflowed: an outflow within the closed class "
                    f"of industry {states[0]} is 0.0 or subnormal in floating point"
                )
            share = pi / w[states]
            p[states] = share / share.sum()
    p /= p.sum()

    q = z / w * (A.T @ p)  # V^T p with V = A diag(z / A z)
    fp_res = float(np.max(np.abs(q - p)))
    lam_res = abs(float(q.sum()) - 1.0)  # lambda = sum(V^T p) since sum(p) = 1
    if not (fp_res <= cfg.tol and lam_res <= cfg.tol):  # NaN fails too
        raise ConvergenceError(
            f"price fixed point not reached: residual {fp_res:.3e}, |lambda-1| {lam_res:.3e}"
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
    return PriceVector(p=p, normalization=cfg.normalization,
                       lambda_residual=lam_res, fp_residual=fp_res)


def connected_components(edges: np.ndarray) -> tuple[int, np.ndarray]:
    """Strong components of the digraph with an edge (k -> i) where
    ``edges[k, i]``: their count and each state's label."""
    from scipy.sparse import csgraph  # deferred: only a reducible chain needs it

    return csgraph.connected_components(edges, directed=True, connection="strong")


def _chain(A: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """G with G = -P off the diagonal, for the chain P[k, i] = a_ki z_i / w_k;
    in Fortran order, the layout the elimination's BLAS calls work in."""
    G = np.multiply(A, -z, order="F")
    G /= w[:, np.newaxis]
    return G


def _gth(G: np.ndarray) -> np.ndarray | None:
    """Stationary vector of the chain given by G = -P in Fortran order, which
    it overwrites, or None if a pivot other than the last is zero.

    A pivot is a sum of nonpositive entries, so it is 0.0 only when its state
    cannot leave the states after it (or the sum underflows): then a closed
    class misses the last state.  Otherwise the chain has exactly one closed
    class, it holds the last state, and the result is its unique stationary
    vector, exactly zero on transient states.  With E - P = L U, U's last
    pivot is zero and the others positive, so pi^T L U = 0 leaves
    pi^T L = e_n^T."""
    if not _eliminate(G):
        return None
    last = np.zeros(G.shape[0])
    last[-1] = 1.0
    return dtrsv(G, last, lower=1, trans=1, diag=1)


def _eliminate(H: np.ndarray) -> bool:
    """GTH elimination, in place, of the states whose rows of E - P are in H
    (from their own column to the chain's last, updated for earlier states).
    A pivot is its state's outflow to later states: minus the row's sum right
    of the diagonal.  Off-diagonal entries stay nonpositive, so no step
    cancels.  Stops at the first zero pivot other than the chain's last and
    returns False.  A subnormal pivot counts as zero too unless nothing
    flows into its state from later ones: it has lost its precision to
    underflow, and dividing an inflow by it may overflow.  BLAS comes from
    SciPy only: NumPy's copy runs a rival thread pool.
    """
    b = H.shape[0]
    if b <= GTH_LEAF:
        for k in range(b):
            row = H[k, k + 1:]
            H[k, k] = pivot = -row.sum()
            if pivot == 0.0 and row.size:
                return False
            col = H[k + 1:, k]
            if pivot < _TINY and col.any():
                return False
            col /= pivot
            H[k + 1:, k + 1:] -= col[:, np.newaxis] * row
        return True
    h = b // 2
    if not _eliminate(H[:h]):
        return False
    inflow = H[h:, :h]
    if inflow[:, H.diagonal()[:h] < _TINY].any():  # a subnormal pivot, as in the leaf
        return False
    lower = dtrsm(1.0, H[:h, :h], inflow, side=1)  # L21 = H21 U11^-1
    H[h:, :h] = lower
    H[h:, h:] = dgemm(-1.0, lower, H[:h, h:], 1.0, H[h:, h:])
    return _eliminate(H[h:, h:])


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
    demand, bad = _demand(A, supply, prices)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise DegenerateInputError(f"zero cost denominator at industry {k} with positive demand")

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


def _demand(A, supply, p) -> tuple[np.ndarray, np.ndarray]:
    """Demand A @ (supply o p / A^T p), with share zero where the cost A^T p
    is not positive, and the mask of industries where that drops a positive
    supply value."""
    numerators = supply * p
    costs = A.T @ p
    degenerate = (numerators > 0) & (costs <= 0)
    shares = np.divide(numerators, costs, out=np.zeros(A.shape[0]), where=costs > 0)
    return A @ shares, degenerate
