"""Primal active-set solver for strictly convex QPs with bounds z >= 0.

Solves  min  0.5 z^T H z + g^T z  subject to  z >= 0,  C z <= b  for
symmetric positive definite H and b >= 0, so that z = 0 is a feasible
start.  Classical working-set method: each step solves the equality-
constrained subproblem on the working set, advances to the nearest
blocking constraint, and drops the constraint with the most negative
multiplier at stationary points (Nocedal & Wright, *Numerical
Optimization*, 2006, section 16.5).  Because H is positive definite, every
blocking constraint is linearly independent of the working set and the
iteration terminates; an iteration cap guards against degenerate cycling.
A full step lands on the working set's minimizer, so the step after it
goes straight to the multiplier check: re-solving there on a nearly
singular working set (parallel columns of C) returns roundoff noise whose
sign would otherwise flip from step to step.

The bounds never enter a linear system.  A variable that reaches its bound
is set to exactly zero and stays fixed while the bound is in the working
set, so each step solves only over the free variables and the working rows
of C.  The bordered matrix ``K = [[H, C^T], [C, 0]]`` is built once per
solve, and one mask over ``[variables; rows]`` marks the free variables and
the working rows: each step solves ``K[S, S] y = target[S]`` for the
masked set ``S``.  The multipliers of the fixed bounds are the
stationarity residuals on their variables, formed only at stationary
points.  Constraints are ordered bounds first, then rows, for the ratio
test's tie-break and for the reported multipliers.

At termination the working set and its multipliers are a KKT point of the
QP; the solution returns both, so callers need not guess the optimal face.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

_STEP_EPS = 1e-13


@dataclass(frozen=True)
class QPSolution:
    z: np.ndarray
    multipliers: np.ndarray  # one per bound, then one per row; zero off the final working set
    iterations: int
    free: np.ndarray          # bool per variable: not fixed on its bound at the end
    working_rows: np.ndarray  # bool per row of C: in the final working set


def solve_qp(H, g, C, b, *, tol: float = 1e-11,
             max_iter: int | None = None) -> QPSolution:
    """Minimize 0.5 z^T H z + g^T z over z >= 0, C z <= b, starting from z = 0."""
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    C = np.asarray(C, dtype=float)
    b = np.asarray(b, dtype=float)
    l = H.shape[0]
    m = l + C.shape[0]
    if max_iter is None:
        max_iter = 100 * (l + m + 1)

    K = np.zeros((m, m))
    K[:l, :l] = H
    K[:l, l:] = C.T
    K[l:, :l] = C
    G = np.vstack([-np.eye(l), C])  # constraint normals, for the ratio test
    base = np.concatenate([-g, b])
    is_row = np.arange(m) >= l
    # True for a free variable or a working row: the unknowns of each step.
    # A constraint is in the working set where mask == is_row, and adding
    # or dropping it flips its entry.
    mask = ~is_row
    z = np.zeros(l)
    grad_scale = max(1.0, float(np.abs(g).max()))
    stationary = False  # a full step lands on the working set's minimizer
    for iteration in range(1, max_iter + 1):
        target = base - K[:, :l] @ z  # [-grad; b - C z]
        S = mask.nonzero()[0]
        y = np.zeros(m)             # [step d; row multipliers]
        if S.size:  # else every variable sits on its bound
            K_S = K.take(S, 0).take(S, 1)
            rhs = target.take(S)
            try:
                solution = np.linalg.solve(K_S, rhs)
            except np.linalg.LinAlgError:  # exactly singular
                solution, *_ = np.linalg.lstsq(K_S, rhs, rcond=None)
            y[S] = solution
        d = y[:l]

        if stationary or float(np.abs(d).max()) <= tol * max(1.0, float(np.abs(z).max())):
            stationary = False
            active = (mask == is_row).nonzero()[0]
            # Bound multipliers are the stationarity residuals of the fixed
            # variables; row multipliers are the solved unknowns.
            lam = np.concatenate([K[:l] @ y - target[:l], y[l:]]).take(active)
            if active.size == 0 or float(lam.min()) >= -tol * grad_scale:
                multipliers = np.zeros(m)
                multipliers[active] = np.maximum(lam, 0.0)
                return QPSolution(z=z, multipliers=multipliers, iterations=iteration,
                                  free=mask[:l], working_rows=mask[l:])
            drop = active[lam.argmin()]
            mask[drop] = not mask[drop]
            continue

        step_rows = G @ d
        threshold = _STEP_EPS * max(1.0, float(np.abs(step_rows).max()))
        slack = np.maximum(np.concatenate([z, target[l:]]), 0.0)
        ratios = np.full(m, np.inf)
        np.divide(slack, step_rows, out=ratios,
                  where=(mask != is_row) & (step_rows > threshold))
        alpha = min(1.0, float(ratios[ratios.argmin()]))
        z = z + alpha * d
        stationary = alpha >= 1.0
        if alpha < 1.0:
            # deterministic tie-break: smallest constraint index at the minimum
            blocking = (ratios <= alpha * (1.0 + 1e-12) + 1e-15).argmax()
            mask[blocking] = not mask[blocking]
            if blocking < l:
                z[blocking] = 0.0  # exactly on the bound it reached

    raise ConvergenceError(f"active-set QP did not terminate within {max_iter} iterations")
