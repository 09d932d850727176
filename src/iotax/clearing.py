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
from enum import Enum
from functools import cached_property

import numpy as np

from ._qp import solve_qp
from .equilibrium import PriceVector, SolverConfig, _demand, _row_band, _solve_price_balance
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DegenerateSupportError,
    DimensionError,
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
# Full clearing: max|C z - b| at the minimal-excess z within this share of
# max(1, max b).
FULL_CLEARING_GATE = 1e-9
# Gate for support-restricted solves, relative to max(1, ||b_I||_inf).
SUPPORT_GATE = 1e-9
# Tie-break regularization of the QP toward the min-norm optimum, relative
# to the largest diagonal entry of C^T C.
RIDGE = 1e-12


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
        b = _positive_b(self.b, C.shape[0])
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
    the objective value ||b - C z||^2, whether C z = b holds within the
    full-clearing gate, the KKT residual, and the number of active-set steps
    of the QP.
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
    """Tolerances for the minimal-excess solve and equilibrium construction.
    The polish's face and the certificate's multipliers come from the QP's
    final working set, not from a tolerance here."""

    tol: float = 1e-8           # KKT certificate gate
    tol_eq: float = DEFAULT_EQ_TOL
    verify_tol: float = 1e-8    # row band when re-checking the nonlinear system
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


class ClearingMethod(Enum):
    GIVEN = "given"                  # the caller's z
    MIN_EXCESS = "min_excess"        # the minimal-excess z
    SUPPORT_RETRY = "support_retry"  # support_solution on the minimal-excess z's equality rows


@dataclass(frozen=True)
class ClearingResult:
    """An equilibrium of :func:`solve_clearing`, its row check and how its z
    was found; the last four fields are the minimal-excess QP's, or None."""

    equilibrium: ClearingEquilibrium
    check: ClearingCheck
    method: ClearingMethod
    objective: float | None = None
    full_clearing: bool | None = None
    kkt_residual: float | None = None
    qp_iterations: int | None = None


def ray_bounds(problem: ClearingProblem) -> np.ndarray:
    """Largest feasible step along each column (the problem's cached ``d``)."""
    return problem.d


def scale_function(problem: ClearingProblem, alpha) -> float | np.ndarray:
    """Largest scale keeping c * C (alpha o d) <= b; always at least 1.

    Rows whose denominator falls below a tiny epsilon are evaluated at the
    epsilon instead, which removes division blowups without changing the
    minimum (such rows produce values far above every unguarded row).
    A one-dimensional ``alpha`` gives a float. A two-dimensional one, list
    or array, even with a single row, is an (m, l) stack of simplex points,
    each checked as one point; it gives an (m,) array, equal bit for bit to
    one call per point.
    """
    alpha = _validate_simplex(alpha, problem.l)
    weights = alpha * problem.d
    # One matrix-vector product per point, the BLAS call of C @ weights.
    denominator = np.matmul(problem.C, weights[..., np.newaxis])[..., 0]
    eps = 1e-12 * float(problem.b.max())
    guarded = np.maximum(denominator, eps)
    scales = (problem.b / guarded).min(axis=-1)
    return float(scales) if scales.ndim == 0 else scales


def solution_from_alpha(problem: ClearingProblem, alpha) -> SolutionFamily:
    """The clearing solution generated by a simplex point."""
    alpha = _validate_simplex(_as_float_vector(alpha, "alpha", problem.l), problem.l)
    c_alpha = scale_function(problem, alpha)
    z = c_alpha * alpha * problem.d
    return SolutionFamily(d=problem.d, alpha=alpha, c_alpha=c_alpha, z=z)


def alpha_from_solution(problem: ClearingProblem, z,
                        tol_eq: float = DEFAULT_EQ_TOL) -> tuple[np.ndarray, float]:
    """Invert the parametrization: recover (alpha, scale) from a solution.

    Raises NotASolutionError unless z is nonnegative, nonzero, feasible,
    and touches at least one row with equality.
    """
    z = _nonnegative_z(z, problem.l, tol_eq)
    if not np.any(z > 0):
        raise NotASolutionError("z is the zero vector")
    _clearing_rows(problem.C, problem.b, z, tol_eq)
    weights = z / problem.d
    total = float(weights.sum())
    return weights / total, total


def min_excess_solution(problem: ClearingProblem,
                        cfg: ClearingConfig | None = None) -> SolutionFamily:
    """Clearing solution with minimal excess supply, by quadratic programming.

    Minimizes ||b - C z||^2 over z >= 0, C z <= b: the bound-aware
    active-set QP minimizes ``0.5 z^T H z + g^T z`` with
    ``H = 2 (C^T C + ridge E)`` and ``g = -2 C^T b`` over the same
    constraints.  Among non-unique minimizers the minimum-norm one is
    selected: the tiny ``RIDGE`` picks it approximately, an exact re-solve
    on the QP's final working set exactly.  That point clears fully, and is
    flagged so, when max|C z - b| is within ``FULL_CLEARING_GATE`` of
    max(1, max b); a zero objective needs no further certificate.  Any other
    point is certified by its KKT residual with the QP's row multipliers,
    and ConvergenceError is raised if the residual exceeds ``cfg.tol``.
    """
    if cfg is None:
        cfg = ClearingConfig()
    z, objective, full, kkt, iterations = _min_excess(problem.C, problem.b, cfg)
    alpha, c_alpha = alpha_from_solution(problem, z, tol_eq=cfg.tol_eq)
    return SolutionFamily(
        d=problem.d, alpha=alpha, c_alpha=c_alpha, z=z, objective=objective,
        full_clearing=full, kkt_residual=kkt, qp_iterations=iterations,
    )


def _min_excess(C, b, cfg: ClearingConfig) -> tuple[np.ndarray, float, bool, float, int]:
    """:func:`min_excess_solution`'s z, objective, full-clearing flag, KKT
    residual and QP steps for a validated problem's C and b, without the
    simplex parameters."""
    l = C.shape[1]
    gram = C.T @ C
    ridge = RIDGE * max(1.0, float(np.max(gram.diagonal())))
    H = 2.0 * (gram + ridge * np.eye(l))
    qp = solve_qp(H, -2.0 * C.T @ b, C, b, tol=1e-12)
    z = _polish_min_norm(C, b, np.maximum(qp.z, 0.0), qp.free, qp.working_rows, cfg.tol_eq)
    residual = b - C @ z
    full = float(np.max(np.abs(residual))) <= FULL_CLEARING_GATE * max(1.0, float(np.max(b)))
    kkt = _kkt_residual(C, b, z, qp.multipliers[l:])
    if kkt > cfg.tol and not full:  # a zero objective certifies itself
        raise ConvergenceError(
            f"minimal-excess optimality could not be certified: KKT residual {kkt:.3e}"
        )
    return z, float(residual @ residual), full, kkt, qp.iterations


def _polish_min_norm(C, b, z, free, rows, tol_eq: float) -> np.ndarray:
    """The minimum-norm minimizer on the QP's final face (variables ``free``
    of their bounds, ``rows`` at equality), or ``z`` unless that point is
    nonnegative, feasible and no worse.  One SVD of ``C[rows, free]`` gives
    the minimum-norm solution of the rows and the kernel in which a
    least-squares step then minimizes the excess."""
    C_f = C[:, free]
    C_rf = C_f[rows]
    U, s, Vt = np.linalg.svd(C_rf, full_matrices=True)
    rank = int(np.count_nonzero(s > max(C_rf.shape) * np.finfo(float).eps * s.max(initial=0.0)))
    z_free = Vt[:rank].T @ ((U[:, :rank].T @ b[rows]) / s[:rank])
    kernel = Vt[rank:].T
    if kernel.shape[1]:
        # Kernel directions that barely move C z are objective-neutral; the
        # minimum-norm choice keeps them at zero, so drop them before the
        # least-squares step (their tiny columns would blow it up).
        moves = C_f @ kernel
        keep = np.linalg.norm(moves, axis=0) > 1e-12 * max(1.0, float(np.max(np.abs(C))))
        if np.any(keep):
            t, *_ = np.linalg.lstsq(moves[:, keep], b - C_f @ z_free, rcond=None)
            z_free = z_free + kernel[:, keep] @ t
    candidate = np.zeros(C.shape[1])
    candidate[free] = z_free
    if float(np.min(candidate)) < -1e-11 * max(1.0, float(np.max(b))):
        return z
    candidate = np.maximum(candidate, 0.0)
    if np.any(C @ candidate > b + _row_band(tol_eq, b)):
        return z
    old = b - C @ z
    new = b - C @ candidate
    if float(new @ new) > float(old @ old) + 1e-12 * max(1.0, float(old @ old)):
        return z
    return candidate


def _kkt_residual(C, b, z, nu) -> float:
    """Relative KKT residual of min ||b - C z||^2 over z >= 0, C z <= b at z,
    with row multipliers ``nu``.  Negative entries of ``nu`` count as zero
    and complementarity is measured on every row, so a small value certifies
    z whatever supplies ``nu``.  The bound multipliers are the reduced
    gradient ``mu = C^T (nu - 2 (b - C z))``: nonnegative, zero where z > 0."""
    nu = np.maximum(nu, 0.0)
    r = b - C @ z
    mu = C.T @ (nu - 2.0 * r)
    grad_scale = max(1.0, 2.0 * float(np.max(np.abs(C.T @ b))))
    feasibility = max(0.0, -float(np.min(z)), -float(np.min(r))) / max(1.0, float(np.max(b)))
    dual = max(0.0, -float(np.min(mu))) / grad_scale
    complementarity = max(float(np.max(np.abs(mu * z))) / max(1.0, float(np.max(np.abs(z)))),
                          float(np.max(np.abs(nu * r)))) / grad_scale
    return max(feasibility, dual, complementarity)


def support_solution(A, b, support, tol_eq: float = DEFAULT_EQ_TOL) -> np.ndarray | None:
    """Nonnegative solution of the support-restricted system, if one exists.

    Solves sum_{j in support} a_ij z_j = b_i on the support rows and checks
    strict inequality on the rest; returns the full-length z (zeros off the
    support) or None.  This is the existence test for a candidate equality
    set of a partial-clearing equilibrium.  On a singular restricted matrix
    only its minimum-norm solution is tried; another one may be nonnegative.
    """
    A, b = _square_system(A, b)
    n = A.shape[0]
    rows = sorted(set(int(k) for k in support))
    if not rows or rows[0] < 0 or rows[-1] >= n:
        raise DomainError(f"support must be a nonempty subset of 0..{n - 1}")
    return _support(A, b, rows, tol_eq)


def _support(A, b, rows, tol_eq: float) -> np.ndarray | None:
    """:func:`support_solution` for a validated A and b and sorted, distinct
    support ``rows``."""
    n = A.shape[0]
    sub = A[np.ix_(rows, rows)]
    target = b[rows]
    gate = SUPPORT_GATE * max(1.0, float(np.max(target)))

    try:
        z_sub, within_gate = gated_solve(sub, target, gate)
    except SingularSystemError:
        return None
    if not within_gate or float(np.min(z_sub)) < -gate:
        return None  # no solution, or the one found is not nonnegative
    z = np.zeros(n)
    z[rows] = np.maximum(z_sub, 0.0)
    others = np.ones(n, dtype=bool)
    others[rows] = False
    if np.any((b - A @ z)[others] <= _row_band(tol_eq, b[others])):
        return None  # a row outside the support clears; not strict
    return z


def equilibrium_from_solution(A, b, z, cfg: ClearingConfig | None = None) -> ClearingEquilibrium:
    """Build and verify the equilibrium induced by a clearing solution.

    Detects the equality rows of A z <= b, solves the price-balance system
    restricted to them (prices vanish elsewhere), re-checks the nonlinear
    demand system against the original b, and assembles generalized prices
    and the excess supply level.
    """
    return solve_clearing(A, b, z, cfg).equilibrium


def solve_clearing(A, b, z=None, cfg: ClearingConfig | None = None) -> ClearingResult:
    """The equilibrium with partial clearing of A z <= b, for a square A:
    the one z induces if given; else the one the minimal-excess z induces if
    it verifies; else, as that z may weight columns of rows that do not
    clear, the one :func:`support_solution` on its equality rows induces.
    Raises NoEquilibriumError if the last candidate tried does not verify."""
    if cfg is None:
        cfg = ClearingConfig()
    if z is not None:
        A, b = _square_system(A, b)
        z = _nonnegative_z(z, A.shape[0], cfg.tol_eq)
        return ClearingResult(*_verified(A, b, z, cfg), ClearingMethod.GIVEN)
    problem = ClearingProblem(C=A, b=b)
    A, b = problem.C, problem.b
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"A must be square, got shape {A.shape}")
    z, *qp = _min_excess(A, b, cfg)  # qp: the objective, full clearing, KKT, steps
    rows = _clearing_rows(A, b, z, cfg.tol_eq)
    try:
        return ClearingResult(*_verified(A, b, z, cfg, rows), ClearingMethod.MIN_EXCESS, *qp)
    except NoEquilibriumError:
        z = _support(A, b, np.flatnonzero(rows[1]), cfg.tol_eq)
        if z is None:
            raise
    return ClearingResult(*_verified(A, b, z, cfg), ClearingMethod.SUPPORT_RETRY, *qp)


def _verified(A, b, z, cfg: ClearingConfig, rows=None) -> tuple[ClearingEquilibrium, ClearingCheck]:
    """The equilibrium z induces and its check, from the one demand evaluation
    that verified it; ``rows``, if given, are z's :func:`_clearing_rows`."""
    rows = _clearing_rows(A, b, z, cfg.tol_eq) if rows is None else rows
    equilibrium, evaluation = _equilibrium(A, b, z, rows, None, cfg)
    return equilibrium, _clearing_check(b, equilibrium.p.p, rows[1], ~rows[1], evaluation,
                                        cfg.verify_tol)


def _nonnegative_z(z, n: int, tol_eq: float) -> np.ndarray:
    """A clearing solution of length n; entries down to -tol_eq * max(1, max|z|)
    become 0."""
    z = _as_float_vector(z, "z", n)
    if float(np.min(z)) < -tol_eq * max(1.0, float(np.max(np.abs(z)))):
        raise NotASolutionError("z has negative components")
    return np.maximum(z, 0.0)


def _clearing_rows(A, b, z, tol_eq: float) -> tuple[np.ndarray, np.ndarray]:
    """Real consumption A z and the mask of the rows where it meets b within
    the band :func:`_row_band`, for a nonnegative z; raises unless A z <= b
    holds within the band with at least one row at equality."""
    b_bar = A @ z
    band = _row_band(tol_eq, b)
    slack = b - b_bar
    if np.any(slack < -band):
        raise NotASolutionError("z violates A z <= b")
    equality = slack <= band
    if not equality.any():
        raise DegenerateSupportError("no row of A z = b holds with equality")
    return b_bar, equality


def _equilibrium(A, b, z, rows: tuple[np.ndarray, np.ndarray], price: PriceVector | None,
                 cfg: ClearingConfig) -> tuple[ClearingEquilibrium, tuple]:
    """The equilibrium induced by a nonnegative z with ``rows`` from
    :func:`_clearing_rows`, for a validated A and b, and the
    :func:`_evaluate_rows` result that verified it."""
    b_bar, equality = rows
    n = A.shape[0]
    I = np.flatnonzero(equality)
    J = np.flatnonzero(~equality)

    if price is None:
        try:
            restricted = _solve_price_balance(A[np.ix_(I, I)], z[I], cfg.solver)
        except (DegenerateInputError, DomainError, ConvergenceError) as exc:
            w = A[np.ix_(I, I)] @ z[I]
            k = int(np.argmin(w))
            reason = exc if w[k] > 0 else (
                f"(A_II z_I) at industry {I[k]} is {w[k]}, where I holds the rows that "
                "clear; the cost denominator must be strictly positive")
            raise NoEquilibriumError(f"restricted price solve failed: {reason}") from exc
        p = np.zeros(n)
        p[I] = restricted.p
        price = replace(restricted, p=p)
    elif np.any(price.p[J] != 0):
        raise NoEquilibriumError("prices must vanish on the rows that do not clear")

    evaluation = _evaluate_rows(A, b, price.p, equality, cfg.verify_tol)
    _, row_ok, ok = evaluation
    if not ok:
        failing = np.flatnonzero(~row_ok).tolist()
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
    equilibrium = ClearingEquilibrium(z=z, I_set=frozenset(I.tolist()), J_set=frozenset(J.tolist()),
                                      b_bar=b_bar, p=price, p_u=p_u, R=R)
    return equilibrium, evaluation


def verify_partial_clearing(A, b, equilibrium: ClearingEquilibrium,
                            tol: float = 1e-8) -> ClearingCheck:
    """Re-evaluate the nonlinear demand system at the equilibrium prices.

    True iff every row in I_set clears within the band, every row in J_set
    shows demand strictly below supply, and prices vanish on J_set.
    Homogeneous of degree zero in the prices.
    """
    A, b = _square_system(A, b)
    n = A.shape[0]
    p = _as_float_vector(equilibrium.p, "equilibrium prices", n, held="p")
    equality = np.zeros(n, dtype=bool)
    equality[list(equilibrium.I_set)] = True
    slack = np.zeros(n, dtype=bool)
    slack[list(equilibrium.J_set)] = True
    return _clearing_check(b, p, equality, slack, _evaluate_rows(A, b, p, equality, tol), tol)


def _clearing_check(b, p, equality, slack, evaluation, tol) -> ClearingCheck:
    """The rows and verdict of :func:`_evaluate_rows`' ``evaluation`` at
    prices ``p``, where a ``slack`` row also fails if its price exceeds
    ``tol`` times the largest price."""
    demand, row_ok, ok = evaluation
    top = float(np.max(p)) if p.size else 0.0
    if top > 0:
        priced = slack & (p > tol * top)
        row_ok = row_ok & ~priced
        ok = ok and not bool(priced.any())
    rows = tuple(
        RowCheck(industry=k, demand=d, bound=bound, in_I=in_I, ok=row)
        for k, (d, bound, in_I, row) in enumerate(zip(
            demand.tolist(), b.tolist(), equality.tolist(), row_ok.tolist()))
    )
    return ClearingCheck(ok=ok, rows=rows)


def _square_system(A, b) -> tuple[np.ndarray, np.ndarray]:
    """Validated cost matrix A and a strictly positive b of its size."""
    A = _as_float_matrix(A, "cost matrix")
    return A, _positive_b(b, A.shape[0])


def _positive_b(b, n: int) -> np.ndarray:
    """b as a float vector of length n, which must be strictly positive."""
    b = _as_float_vector(b, "b", n)
    if np.any(b <= 0):
        raise DomainError("b must be strictly positive")
    return b


def _evaluate_rows(A, b, p, equality, tol) -> tuple[np.ndarray, np.ndarray, bool]:
    """Demand at prices ``p``, each row's verdict (an ``equality`` row clears
    within the band :func:`_row_band`, any other stays below it by more), and
    whether every row passes with no supply value dropped at zero cost."""
    demand, degenerate = _demand(A, b, p)
    band = _row_band(tol, b)
    row_ok = np.where(equality, np.abs(demand - b) <= band, b - demand > band)
    return demand, row_ok, bool(row_ok.all()) and not bool(degenerate.any())


def _validate_simplex(alpha, l: int) -> np.ndarray:
    """A point of the unit simplex in R^l, or an (m, l) stack of them, each
    row checked as one point; entries down to -1e-12 become 0."""
    try:
        shape = np.shape(alpha)
    except ValueError as exc:  # ragged nesting
        raise DomainError(f"alpha must be an array of numbers ({exc})") from exc
    points = _as_float_vector(np.ravel(alpha), "alpha").reshape(shape)
    if points.ndim not in (1, 2) or points.shape[-1] != l:
        raise DimensionError(f"alpha must have shape ({l},) or (m, {l}), got {points.shape}")
    if np.any(points < -1e-12) or np.any(np.abs(points.sum(axis=-1) - 1.0) > 1e-9):
        raise DomainError("alpha must lie on the unit simplex")
    return np.maximum(points, 0.0)
