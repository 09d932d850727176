"""Partial market clearing: solution families, minimal excess supply, equilibria.

For a nonnegative matrix C with positive row and column sums and a strictly
positive vector b, every nonnegative z satisfying C z <= b with at least one
equality row has the form z = c(alpha) (alpha o d), where d_i is the largest
step along column i staying under b, alpha ranges over the unit simplex, and
c(alpha) >= 1 is the largest feasible scale.  The minimal excess supply over
all such solutions equals the minimum of ||b - C z||^2 over the whole
feasible set and is found by quadratic programming.

A clearing solution z of A z <= b (equality rows I, strict rows J) induces
an equilibrium price vector that vanishes on J; prices on I solve the
restricted price-balance system.  Zero-price industries are assigned their
cost price in the generalized price vector, and the excess supply level is
the value share of unsold output under those generalized prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import nnls

from ._qp import solve_qp
from .equilibrium import PriceVector, SolverConfig, _demand, solve_price_balance
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DegenerateSupportError,
    DomainError,
    NoEquilibriumError,
    NotASolutionError,
    SingularSystemError,
    ZeroColumnError,
)
from .matcheck import gated_solve
from .model import _as_float_matrix, _as_float_vector

# Equality-row detection band, relative to max(1, b_k).
DEFAULT_EQ_TOL = 1e-9
# Gate for the exact nonnegative solve that detects full clearing.
FULL_CLEARING_GATE = 1e-9
# Gate for support-restricted solves, relative to max(1, ||b_I||_inf).
SUPPORT_GATE = 1e-9


@dataclass(frozen=True)
class ClearingProblem:
    """Demand system C z <= b with positive row/column sums and b > 0."""

    C: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        C = _as_float_matrix(self.C, "C", square=False)
        col_sums = C.sum(axis=0)
        if np.any(col_sums <= 0):
            i = int(np.argmin(col_sums))
            raise ZeroColumnError(f"column {i} of C sums to zero")
        row_sums = C.sum(axis=1)
        if np.any(row_sums <= 0):
            k = int(np.argmin(row_sums))
            raise ZeroColumnError(f"row {k} of C sums to zero")
        b = _as_float_vector(self.b, "b", C.shape[0])
        if np.any(b <= 0):
            raise DomainError("b must be strictly positive")
        C.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.C.shape[0]

    @property
    def l(self) -> int:
        return self.C.shape[1]

    @cached_property
    def d(self) -> np.ndarray:
        """Largest feasible step along each column: d_i = min over c_ki > 0 of b_k / c_ki."""
        with np.errstate(divide="ignore"):
            ratios = np.where(self.C > 0, self.b[:, np.newaxis] / self.C, np.inf)
        d = ratios.min(axis=0)
        d.setflags(write=False)
        return d


@dataclass(frozen=True)
class SolutionFamily:
    """A member of the parametrized family of clearing solutions.

    ``z = c_alpha * (alpha o d)`` satisfies C z <= b with at least one
    equality row.  Instances produced by :func:`min_excess_solution` carry
    the objective value ||b - C z||^2, whether the exact nonnegative solve
    succeeded (full clearing), the certified KKT residual, and the number
    of active-set steps of the QP (0 when full clearing skips it).
    """

    d: np.ndarray
    alpha: np.ndarray
    c_alpha: float
    z: np.ndarray
    objective: float | None = None
    full_clearing: bool = False
    kkt_residual: float | None = None
    qp_iterations: int | None = None

    def __post_init__(self):
        for name in ("d", "alpha", "z"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ClearingConfig:
    """Tolerances for the minimal-excess solve and equilibrium construction."""

    tol: float = 1e-8           # KKT certificate gate
    tol_eq: float = DEFAULT_EQ_TOL
    verify_tol: float = 1e-8    # row band when re-checking the nonlinear system
    ridge: float = 1e-12        # tie-break regularization toward the min-norm optimum
    max_iter: int | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)


@dataclass(frozen=True)
class ClearingEquilibrium:
    """Equilibrium state with partial clearing.

    ``b_bar`` is real consumption A z; rows in ``I_set`` clear exactly and
    rows in ``J_set`` carry zero price.  ``p_u`` equals the equilibrium
    price on I and the cost price on J, and ``R`` is the excess supply
    level <b - b_bar, p_u> / <b, p_u> in [0, 1).
    """

    z: np.ndarray
    I_set: frozenset[int]
    J_set: frozenset[int]
    b_bar: np.ndarray
    p: PriceVector
    p_u: np.ndarray
    R: float

    def __post_init__(self):
        for name in ("z", "b_bar", "p_u"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class RowCheck:
    industry: int
    demand: float
    bound: float
    in_I: bool
    ok: bool


@dataclass(frozen=True)
class ClearingCheck:
    ok: bool
    rows: tuple[RowCheck, ...]

    def __bool__(self) -> bool:
        return self.ok


def ray_bounds(problem: ClearingProblem) -> np.ndarray:
    """Largest feasible step along each column (the problem's cached ``d``)."""
    return problem.d


def scale_function(problem: ClearingProblem, alpha) -> float:
    """Largest scale keeping c * C (alpha o d) <= b; always at least 1.

    Rows whose denominator falls below a tiny epsilon are evaluated at the
    epsilon instead, which removes division blowups without changing the
    minimum (such rows produce values far above every unguarded row).
    """
    alpha = _validate_simplex(alpha, problem.l)
    denominator = problem.C @ (alpha * problem.d)
    eps = 1e-12 * float(problem.b.max())
    guarded = np.maximum(denominator, eps)
    return float((problem.b / guarded).min())


def solution_from_alpha(problem: ClearingProblem, alpha) -> SolutionFamily:
    """The clearing solution generated by a simplex point."""
    alpha = _validate_simplex(alpha, problem.l)
    c_alpha = scale_function(problem, alpha)
    z = c_alpha * alpha * problem.d
    return SolutionFamily(d=problem.d, alpha=alpha, c_alpha=c_alpha, z=z)


def alpha_from_solution(problem: ClearingProblem, z,
                        tol_eq: float = DEFAULT_EQ_TOL) -> tuple[np.ndarray, float]:
    """Invert the parametrization: recover (alpha, scale) from a solution.

    Raises NotASolutionError unless z is nonnegative, nonzero, feasible,
    and touches at least one row with equality.
    """
    z = _as_float_vector(z, "z", problem.l)
    band = tol_eq * np.maximum(1.0, problem.b)
    if np.any(z < -tol_eq * max(1.0, float(np.max(np.abs(z))))):
        raise NotASolutionError("z has negative components")
    if not np.any(z > 0):
        raise NotASolutionError("z is the zero vector")
    slack = problem.b - problem.C @ z
    if np.any(slack < -band):
        raise NotASolutionError("z violates C z <= b")
    if not np.any(slack <= band):
        raise NotASolutionError("no row of C z = b holds with equality")
    weights = np.maximum(z, 0.0) / problem.d
    total = float(weights.sum())
    return weights / total, total


def min_excess_solution(problem: ClearingProblem,
                        cfg: ClearingConfig | None = None) -> SolutionFamily:
    """Clearing solution with minimal excess supply, by quadratic programming.

    Minimizes ||b - C z||^2 over z >= 0, C z <= b.  If the exact
    nonnegative solve of C z = b succeeds, full clearing is returned
    instead, flagged.  Otherwise the bound-aware active-set QP minimizes
    ``0.5 z^T H z + g^T z`` with ``H = 2 (C^T C + ridge E)`` and
    ``g = -2 C^T b`` over the same constraints: the bounds z >= 0 fix
    variables, only the rows of C enter its linear systems.  Among
    non-unique minimizers the minimum-norm one is selected (the tiny ridge,
    then an exact re-polish on the converged active face); optimality of the
    returned point is certified by KKT residuals.
    """
    if cfg is None:
        cfg = ClearingConfig()
    C, b = problem.C, problem.b
    l = problem.l

    try:
        z_exact, _ = nnls(C, b)
        exact_fit = float(np.max(np.abs(C @ z_exact - b)))
    except RuntimeError:
        z_exact, exact_fit = None, np.inf
    if z_exact is not None and exact_fit <= FULL_CLEARING_GATE * max(1.0, float(np.max(b))):
        alpha, c_alpha = alpha_from_solution(problem, z_exact, tol_eq=cfg.tol_eq)
        residual = b - C @ z_exact
        return SolutionFamily(
            d=problem.d, alpha=alpha, c_alpha=c_alpha, z=z_exact,
            objective=float(residual @ residual), full_clearing=True,
            kkt_residual=_kkt_residual(C, b, z_exact, cfg), qp_iterations=0,
        )

    gram = C.T @ C
    ridge = cfg.ridge * max(1.0, float(np.max(gram.diagonal())))
    H = 2.0 * (gram + ridge * np.eye(l))
    g = -2.0 * C.T @ b
    qp = solve_qp(H, g, C, b, tol=1e-12, max_iter=cfg.max_iter)
    z = np.maximum(qp.z, 0.0)

    polished = _polish_min_norm(C, b, z, cfg)
    best = None
    for candidate in (polished, z):
        if candidate is None:
            continue
        kkt = _kkt_residual(C, b, candidate, cfg)
        if kkt <= cfg.tol:
            best = (candidate, kkt)
            break
        if best is None or kkt < best[1]:
            best = (candidate, kkt)
    z, kkt = best
    if kkt > cfg.tol:
        raise ConvergenceError(
            f"minimal-excess optimality could not be certified: KKT residual {kkt:.3e}"
        )
    alpha, c_alpha = alpha_from_solution(problem, z, tol_eq=cfg.tol_eq)
    residual = b - C @ z
    return SolutionFamily(
        d=problem.d, alpha=alpha, c_alpha=c_alpha, z=z,
        objective=float(residual @ residual), full_clearing=False, kkt_residual=kkt,
        qp_iterations=qp.iterations,
    )


def _polish_min_norm(C, b, z, cfg: ClearingConfig) -> np.ndarray | None:
    """Exact minimum-norm re-solve on the active face of the ridged optimum."""
    l = C.shape[1]
    z_scale = max(1.0, float(np.max(np.abs(z))))
    free = z > 1e-10 * z_scale
    if not np.any(free):
        return None
    slack = b - C @ z
    rows = np.flatnonzero(slack <= cfg.tol_eq * np.maximum(1.0, b))
    C_f = C[:, free]
    c_scale = max(1.0, float(np.max(np.abs(C))))
    if rows.size:
        C_rf = C[np.ix_(rows, free)]
        z_particular = np.linalg.pinv(C_rf) @ b[rows]
        kernel = null_space(C_rf)
        z_free = z_particular
        if kernel.shape[1]:
            # Kernel directions that barely move C z are objective-neutral;
            # the minimum-norm choice keeps them at zero, so drop them before
            # the least-squares step (their tiny columns would blow it up).
            moves = C_f @ kernel
            keep = np.linalg.norm(moves, axis=0) > 1e-12 * c_scale
            if np.any(keep):
                t, *_ = np.linalg.lstsq(moves[:, keep], b - C_f @ z_particular,
                                        rcond=None)
                z_free = z_particular + kernel[:, keep] @ t
    else:
        z_free, *_ = np.linalg.lstsq(C_f, b, rcond=None)
    candidate = np.zeros(l)
    candidate[free] = z_free
    feas_band = 1e-11 * max(1.0, float(np.max(b)))
    if float(np.min(candidate)) < -feas_band:
        return None
    candidate = np.maximum(candidate, 0.0)
    if np.any(C @ candidate > b + cfg.tol_eq * np.maximum(1.0, b)):
        return None
    old = b - C @ z
    new = b - C @ candidate
    if float(new @ new) > float(old @ old) + 1e-12 * max(1.0, float(old @ old)):
        return None
    return candidate


def _kkt_residual(C, b, z, cfg: ClearingConfig) -> float:
    """Relative KKT residual of min ||b - C z||^2 over z >= 0, C z <= b."""
    r = b - C @ z
    grad = -2.0 * C.T @ r
    grad_scale = max(1.0, 2.0 * float(np.max(np.abs(C.T @ b))))
    b_scale = max(1.0, float(np.max(b)))
    feasibility = max(0.0, -float(np.min(z)), -float(np.min(r))) / b_scale

    active = np.flatnonzero(r <= cfg.tol_eq * np.maximum(1.0, b))
    support = z > 1e-10 * max(1.0, float(np.max(np.abs(z))))
    if active.size and np.any(support):
        system = C[np.ix_(active, support)].T
        target = -grad[support]
        nu, _ = nnls(system, target)
    else:
        nu = np.zeros(active.size)
    mu = grad + (C[active].T @ nu if active.size else 0.0)
    stationarity = float(np.max(np.abs(mu[support]))) if np.any(support) else 0.0
    dual = max(0.0, -float(np.min(mu[~support]))) if np.any(~support) else 0.0
    complementarity = float(np.max(nu * r[active])) if active.size else 0.0
    return max(feasibility, stationarity / grad_scale, dual / grad_scale,
               complementarity / grad_scale)


def support_solution(A, b, support, tol_eq: float = DEFAULT_EQ_TOL) -> np.ndarray | None:
    """Nonnegative solution of the support-restricted system, if one exists.

    Solves sum_{j in support} a_ij z_j = b_i on the support rows and checks
    strict inequality on the rest; returns the full-length z (zeros off the
    support) or None.  This is the existence test for a candidate equality
    set of a partial-clearing equilibrium.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    rows = sorted(set(int(k) for k in support))
    if not rows or rows[0] < 0 or rows[-1] >= n:
        raise DomainError(f"support must be a nonempty subset of 0..{n - 1}")
    sub = A[np.ix_(rows, rows)]
    target = b[rows]
    gate = SUPPORT_GATE * max(1.0, float(np.max(target)))

    try:
        z_sub, within_gate = gated_solve(sub, target, gate)
    except SingularSystemError:
        return None
    if not within_gate or float(np.min(z_sub)) < -gate:
        return None  # no solution, or the unique one is not nonnegative
    z = np.zeros(n)
    z[rows] = np.maximum(z_sub, 0.0)
    slack = b - A @ z
    others = np.setdiff1d(np.arange(n), rows)
    if others.size and np.any(slack[others] <= tol_eq * np.maximum(1.0, b[others])):
        return None  # a row outside the support clears; not strict
    return z


def equilibrium_from_solution(A, b, z, cfg: ClearingConfig | None = None) -> ClearingEquilibrium:
    """Build and verify the equilibrium induced by a clearing solution.

    Detects the equality rows of A z <= b, solves the price-balance system
    restricted to them (prices vanish elsewhere), re-checks the nonlinear
    demand system against the original b, and assembles generalized prices
    and the excess supply level.
    """
    return _equilibrium(A, b, z, None, cfg)


def equilibrium_at_prices(A, b, z, price: PriceVector,
                          cfg: ClearingConfig | None = None) -> ClearingEquilibrium:
    """:func:`equilibrium_from_solution` at prices already solved for z (or
    any positive multiple of z); they must vanish on the rows that do not
    clear."""
    return _equilibrium(A, b, z, price, cfg)


def _equilibrium(A, b, z, price: PriceVector | None,
                 cfg: ClearingConfig | None) -> ClearingEquilibrium:
    if cfg is None:
        cfg = ClearingConfig()
    A = _as_float_matrix(A, "cost matrix")
    n = A.shape[0]
    b = _as_float_vector(b, "b", n)
    if np.any(b <= 0):
        raise DomainError("b must be strictly positive")
    z = _as_float_vector(z, "z", n)
    if float(np.min(z)) < -cfg.tol_eq * max(1.0, float(np.max(np.abs(z)))):
        raise NotASolutionError("z has negative components")
    z = np.maximum(z, 0.0)

    b_bar = A @ z
    band = cfg.tol_eq * np.maximum(1.0, b)
    slack = b - b_bar
    if np.any(slack < -band):
        raise NotASolutionError("z violates A z <= b")
    equality = slack <= band
    I = np.flatnonzero(equality)
    J = np.flatnonzero(~equality)
    if I.size == 0:
        raise DegenerateSupportError("no row of A z = b holds with equality")

    if price is None:
        try:
            restricted = solve_price_balance(A[np.ix_(I, I)], z[I], cfg.solver)
        except (DegenerateInputError, DomainError, ConvergenceError) as exc:
            raise NoEquilibriumError(f"restricted price solve failed: {exc}") from exc
        p = np.zeros(n)
        p[I] = restricted.p
        price = replace(restricted, p=p)
    elif np.any(price.p[J] != 0):
        raise NoEquilibriumError("prices must vanish on the rows that do not clear")

    ok, rows = _evaluate_rows(A, b, price.p, equality, cfg.verify_tol)
    if not ok:
        failing = [row.industry for row in rows if not row.ok]
        raise NoEquilibriumError(
            f"the demand system is not satisfied at rows {failing}; "
            "z does not induce a partial-clearing equilibrium"
        )

    p_u = price.p.copy()
    if J.size:
        p_u[J] = (A.T @ price.p)[J]  # cost prices; only I contributes since p vanishes on J
    # Equality rows may overshoot b by band noise; feasibility was already
    # gated, so a negative value here is noise and R stays in [0, 1).
    R = max(0.0, float((b - b_bar) @ p_u / (b @ p_u)))
    return ClearingEquilibrium(z=z, I_set=frozenset(int(k) for k in I),
                               J_set=frozenset(int(k) for k in J), b_bar=b_bar,
                               p=price, p_u=p_u, R=R)


def verify_partial_clearing(A, b, equilibrium: ClearingEquilibrium,
                            tol: float = 1e-8) -> ClearingCheck:
    """Re-evaluate the nonlinear demand system at the equilibrium prices.

    True iff every row in I_set clears within the band, every row in J_set
    shows demand strictly below supply, and prices vanish on J_set.
    Homogeneous of degree zero in the prices.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    equality = np.zeros(n, dtype=bool)
    equality[list(equilibrium.I_set)] = True
    p = np.asarray(equilibrium.p.p, dtype=float)
    ok, rows = _evaluate_rows(A, b, p, equality, tol)
    top = float(np.max(p)) if p.size else 0.0
    if top > 0:
        for k in equilibrium.J_set:
            if p[k] > tol * top:
                ok = False
                rows = tuple(
                    RowCheck(row.industry, row.demand, row.bound, row.in_I, False)
                    if row.industry == k else row
                    for row in rows
                )
    return ClearingCheck(ok=ok, rows=rows)


def _evaluate_rows(A, b, p, equality, tol) -> tuple[bool, tuple[RowCheck, ...]]:
    n = A.shape[0]
    demand, degenerate = _demand(A, b, p)
    rows = []
    all_ok = not bool(np.any(degenerate))
    for k in range(n):
        bandwidth = tol * max(1.0, b[k])
        if equality[k]:
            row_ok = bool(abs(demand[k] - b[k]) <= bandwidth)
        else:
            row_ok = bool(b[k] - demand[k] > bandwidth)
        all_ok = all_ok and row_ok
        rows.append(RowCheck(industry=k, demand=float(demand[k]), bound=float(b[k]),
                             in_I=bool(equality[k]), ok=bool(row_ok)))
    return all_ok, tuple(rows)


def _validate_simplex(alpha, l: int) -> np.ndarray:
    alpha = _as_float_vector(alpha, "alpha", l)
    if alpha.min() < -1e-12 or abs(float(alpha.sum()) - 1.0) > 1e-9:
        raise DomainError("alpha must lie on the unit simplex")
    return np.maximum(alpha, 0.0)
