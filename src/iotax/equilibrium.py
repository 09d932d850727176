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

from .errors import ConvergenceError, DegenerateInputError, DomainError, NotEquilibriumError
from .matcheck import _reachable
from .model import _as_float_matrix, _as_float_vector, _check_tol

GTH_LEAF = 16  # larger blocks are halved and joined by matrix products
_TINY = np.finfo(float).tiny  # pivots below it are subnormal


class Normalization(Enum):
    SUM_TO_ONE = "sum_to_one"
    FIRST_TO_ONE = "first_to_one"


@dataclass(frozen=True)
class SolverConfig:
    """Gate and normalization of the price solve, a direct elimination that
    also finds whether the chain is reducible: ``tol`` bounds the fixed-point
    residual and |lambda - 1| it must pass."""

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


def solve_price_balance(A, z, cfg: SolverConfig | None = None) -> PriceVector:
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
    """
    if cfg is None:
        cfg = SolverConfig()
    A = _as_float_matrix(A, "cost matrix")
    z = _as_float_vector(z, "z", A.shape[0])
    if np.any(z < 0):
        raise DomainError("z must be nonnegative")
    return _solve_price_balance(A, z, cfg)


def _solve_price_balance(A: np.ndarray, z: np.ndarray, cfg: SolverConfig) -> PriceVector:
    """:func:`solve_price_balance` for a validated A and a nonnegative z of
    its size."""
    if not np.any(A > 0):
        raise DomainError("cost matrix must be nonzero")
    n = A.shape[0]
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
            pi = _gth(G[np.ix_(states, states)])
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
    if cfg.normalization is Normalization.FIRST_TO_ONE:
        if p[0] <= 0:
            raise DegenerateInputError("cannot normalize: first price is zero")
        p = p / p[0]
    return PriceVector(p=p, normalization=cfg.normalization,
                       lambda_residual=lam_res, fp_residual=fp_res)


def connected_components(edges: np.ndarray) -> tuple[int, np.ndarray]:
    """Strong components of the digraph with an edge (k -> i) where
    ``edges[k, i]``: their count and each state's label.  The component of
    the first unlabelled state is what it reaches and what reaches it, so
    each component costs one forward and one backward sweep."""
    labels = np.full(edges.shape[0], -1)
    count = 0
    for start in range(edges.shape[0]):
        if labels[start] < 0:
            labels[_reachable(edges, start) & _reachable(edges.T, start)] = count
            count += 1
    return count, labels


def _chain(A: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """G with G = -P off the diagonal, for the chain P[k, i] = a_ki z_i / w_k."""
    G = np.multiply(A, -z)
    G /= w[:, np.newaxis]
    return G


class _ZeroPivot(Exception):
    """A pivot other than the chain's last is zero, or subnormal where a
    later state flows into its state."""


def _gth(G: np.ndarray) -> np.ndarray | None:
    """Stationary vector of the chain given by G = -P, which it overwrites,
    or None if a pivot other than the last is zero.

    A pivot is a sum of nonpositive entries, so it is 0.0 only when its state
    cannot leave the states after it (or the sum underflows): then a closed
    class misses the last state.  Otherwise the chain has exactly one closed
    class, it holds the last state, and the result is its unique stationary
    vector, exactly zero on transient states.  With E - P = L U, U's last
    pivot is zero and the others positive, so pi^T L U = 0 leaves
    pi^T L = e_n^T, solved here from the last state back, GTH_LEAF states
    at a time.  L is nonpositive below its unit diagonal, so every step adds
    nonnegative terms."""
    try:
        _eliminate(G, invert=False)
    except _ZeroPivot:
        return None
    n = G.shape[0]
    pi = np.zeros(n)
    pi[-1] = 1.0
    for end in range(n, 0, -GTH_LEAF):
        start = max(end - GTH_LEAF, 0)
        block = pi[start:end]
        if end < n:
            block -= pi[end:] @ G[end:, start:end]
        columns = G[start:end, start:end].T.copy()  # L's columns as contiguous rows
        for k in range(end - start - 2, -1, -1):
            block[k] -= columns[k, k + 1:].dot(block[k + 1:])
    return pi


def _eliminate(H: np.ndarray, invert: bool) -> np.ndarray | None:
    """GTH elimination, in place, of the states whose rows of E - P are in H
    (from their own column to the chain's last, updated for earlier states).
    A pivot is its state's outflow to later states: minus the row's sum right
    of the diagonal.  Off-diagonal entries stay nonpositive, so no step
    cancels.  Raises _ZeroPivot at the first zero pivot other than the
    chain's last.  A subnormal pivot counts as zero too unless nothing flows
    into its state from later ones: it has lost its precision to underflow,
    and dividing an inflow by it may overflow.

    Blocks larger than GTH_LEAF are halved.  The join needs L21 = H21 U11^-1.
    With ``invert``, the call returns Y = V^-1 for the block's own states,
    where V = D^-1 U is U with each row divided by its pivot.  A pivot is at
    least every entry of its row, so V's entries lie in [-1, 0] off its unit
    diagonal, and Y >= 0 has entries at most the block's size however small
    the pivots.  Then L21 = (H21 Y1) D1^-1, where H21 Y1 holds the inflows
    from the second half into the first half's states, direct or through
    earlier ones; two halves' inverses join as [[Y1, -Y1 V12 Y2], [0, Y2]].
    Every product has factors of one sign.
    """
    b = H.shape[0]
    if b <= GTH_LEAF:
        return _eliminate_leaf(H, invert)
    h = b // 2
    inverse = _eliminate(H[:h], invert=True)
    pivots = H.diagonal()[:h]
    inflow = H[h:, :h] @ inverse
    if pivots.min() < _TINY and inflow[:, pivots < _TINY].any():  # as in the leaf
        raise _ZeroPivot
    np.divide(inflow, pivots, out=H[h:, :h])
    H[h:, h:] -= H[h:, :h] @ H[:h, h:]
    trailing = _eliminate(H[h:, h:], invert)
    if not invert:
        return None
    joined = np.zeros((b, b))
    joined[:h, :h] = inverse
    joined[h:, h:] = trailing
    joined[:h, h:] = inverse @ (H[:h, h:b] / -pivots[:, np.newaxis]) @ trailing  # -V12 >= 0
    return joined


def _eliminate_leaf(H: np.ndarray, invert: bool) -> np.ndarray | None:
    """_eliminate one state at a time."""
    b = H.shape[0]
    for k in range(b):
        row = H[k, k + 1:]
        H[k, k] = pivot = -row.sum()
        if pivot == 0.0 and row.size:
            raise _ZeroPivot
        col = H[k + 1:, k]
        if pivot < _TINY and col.any():
            raise _ZeroPivot
        col /= pivot
        H[k + 1:, k + 1:] -= col[:, np.newaxis] * row
    if not invert:
        return None
    states = np.arange(b)
    unit_upper = np.where(states[:, np.newaxis] > states, 0.0, H[:, :b])
    unit_upper /= H.diagonal()[:, np.newaxis]
    # Zeros below the unit diagonal: the LU inside inv swaps no rows, and its
    # back substitution adds terms of one sign.
    return np.linalg.inv(unit_upper)


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

    cleared = np.abs(demand - supply) <= _row_band(tol, supply)
    violations = np.flatnonzero(~cleared & ~(demand < supply))
    if violations.size:
        worst = int(violations[np.argmax((demand - supply)[violations])])
        raise NotEquilibriumError(
            f"demand exceeds supply at industries {violations.tolist()} "
            f"(worst: industry {worst}, demand {demand[worst]:.6g} "
            f"> supply {supply[worst]:.6g}); prices are not an equilibrium"
        )
    return [ClearingReportRow(industry=k, demand_side=d, supply_side=s,
                              status=RowStatus.CLEARED if c else RowStatus.EXCESS)
            for k, (d, s, c) in enumerate(zip(demand.tolist(), supply.tolist(), cleared.tolist()))]


def _demand(A, supply, p) -> tuple[np.ndarray, np.ndarray]:
    """Demand A @ (supply o p / A^T p), with share zero where the cost A^T p
    is not positive, and the mask of industries where that drops a positive
    supply value."""
    numerators = supply * p
    costs = A.T @ p
    degenerate = (numerators > 0) & (costs <= 0)
    shares = np.divide(numerators, costs, out=np.zeros(A.shape[0]), where=costs > 0)
    return A @ shares, degenerate


def _row_band(tol: float, b: np.ndarray) -> np.ndarray:
    """Width of every clearing-row test: ``tol`` relative to max(1, b_k)."""
    return tol * np.maximum(1.0, b)
