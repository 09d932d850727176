"""Structural analysis of the direct-cost matrix.

Covers the structural conditions the tax constructions rely on:
irreducibility (strong connectivity of the digraph of positive entries),
productivity (spectral radius below one), the Leontief inverse, and
membership of a target vector in the cone spanned by the columns of
A(E-A)^(-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, NotProductiveError, SingularSystemError
from .model import _as_float_matrix, _as_float_vector, _check_tol

DEFAULT_TOL = 1e-10
POWER_ITERATION_CAP = 10_000
# Residual gate for reproducing the target vector in cone_membership,
# relative to the max-norm of the target.
CONE_RESIDUAL_GATE = 1e-8


class ConeRegion(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class ConeMembership:
    """Location of a vector relative to the cone of columns of A(E-A)^(-1).

    ``z`` solves A z = v (least-squares when A is singular) and
    ``alpha = (E - A) z`` holds the combination weights; the vector lies in
    the cone's interior exactly when every weight is strictly positive.
    """

    region: ConeRegion
    alpha: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class MatrixProfile:
    """Structural facts about a nonnegative cost matrix.

    ``leontief_inverse`` is computed on first access: None unless the matrix
    is productive, and then the nonnegative solution of (E - A) Y = E.
    """

    A: np.ndarray
    irreducible: bool
    spectral_radius: float
    productive: bool

    @cached_property
    def leontief_inverse(self) -> np.ndarray | None:
        if not self.productive:
            return None
        n = self.A.shape[0]
        return np.linalg.solve(np.eye(n) - self.A, np.eye(n))


class GatedSolution(NamedTuple):
    """Result of :func:`gated_solve`; ``within_gate`` tells whether ``z``
    reproduces the right-hand side within the gate."""

    z: np.ndarray
    within_gate: bool


def nnls(M: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """``scipy.optimize.nnls(M, rhs)``: the nonnegative least-squares solution
    and its residual norm."""
    from scipy.optimize import nnls as scipy_nnls  # deferred: only clear and a rare fallback need it

    return scipy_nnls(M, rhs)


def gated_solve(M: np.ndarray, rhs: np.ndarray, gate: float) -> GatedSolution:
    """Solve M z = rhs under a gate on the residual max|M z - rhs|.

    Takes the LU solution when M is nonsingular and that solution passes the
    gate (it may then have negative entries); otherwise the nonnegative
    least-squares solution, flagged by whether it passes.  Raises
    SingularSystemError when the nonnegative solve itself fails.
    """
    try:
        z = np.linalg.solve(M, rhs)
        if float(np.max(np.abs(M @ z - rhs))) <= gate:
            return GatedSolution(z=z, within_gate=True)
    except np.linalg.LinAlgError:
        pass
    try:
        z, _ = nnls(M, rhs)
    except RuntimeError as exc:
        raise SingularSystemError(f"nonnegative least-squares solve failed: {exc}") from exc
    return GatedSolution(z=z, within_gate=float(np.max(np.abs(M @ z - rhs))) <= gate)


def _reachable(adjacency: np.ndarray, start: int) -> np.ndarray:
    """Boolean reachability from ``start`` in the digraph given by a boolean matrix."""
    n = adjacency.shape[0]
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    frontier = visited.copy()
    while frontier.any():
        reached = adjacency[frontier].any(axis=0)
        frontier = reached & ~visited
        visited |= frontier
    return visited


def is_irreducible(A: np.ndarray) -> bool:
    """Strong connectivity of the digraph with an edge (i -> j) iff a_ij > 0.

    Two reachability sweeps (forward and on the transpose graph); exact and
    O(n + nnz) up to dense bookkeeping.
    """
    adjacency = A > 0
    return bool(_reachable(adjacency, 0).all() and _reachable(adjacency.T, 0).all())


def spectral_radius(A: np.ndarray, tol: float = DEFAULT_TOL,
                    max_iter: int = POWER_ITERATION_CAP) -> float:
    """Dominant-eigenvalue estimate of a nonnegative matrix by power iteration.

    Iterates on A + E rather than A: the shift leaves the dominant
    eigenvector unchanged, maps the radius to radius + 1, and makes the
    iteration aperiodic so periodic matrices cannot stall it.  Deterministic
    all-ones start; stops when the Rayleigh-quotient eigenpair residual
    drops below ``tol`` relative to the estimate.  When the iteration makes
    no geometric progress (defective dominant eigenvalues decay only like
    1/k), the radius is taken from a dense eigenvalue solve instead.
    """
    n = A.shape[0]
    shifted = A + np.eye(n)
    v = np.full(n, 1.0 / np.sqrt(n))
    window_res = np.inf
    for k in range(max_iter):
        w = shifted @ v
        mu = float(v @ w)  # v has unit norm
        res = float(np.max(np.abs(w - mu * v)))
        if res <= tol * mu:
            return max(mu - 1.0, 0.0)  # roundoff in mu must not make it negative
        if k % 512 == 511:
            if res > 0.5 * window_res:
                break  # stalled; healthy geometric rates halve far sooner
            window_res = res
        v = w / np.linalg.norm(w)
    try:
        return float(np.max(np.abs(np.linalg.eigvals(A))))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"spectral radius estimate did not stabilize within {max_iter} iterations"
        ) from exc


def analyze_matrix(A, tol: float = DEFAULT_TOL) -> MatrixProfile:
    """Irreducibility, spectral radius and productivity.

    Productive means spectral radius < 1 - tol; only then does the
    profile's Leontief inverse exist.
    """
    A = _as_float_matrix(A, "matrix")
    _check_tol(tol)
    rho = spectral_radius(A, tol=tol)
    A.setflags(write=False)
    return MatrixProfile(
        A=A,
        irreducible=is_irreducible(A),
        spectral_radius=rho,
        productive=rho < 1.0 - tol,
    )


def cone_membership(profile: MatrixProfile, v, tol: float = 1e-9) -> ConeMembership:
    """Locate v relative to the cone of the columns of A(E-A)^(-1).

    Solves A z = v by :func:`gated_solve` and classifies by the signs of
    alpha = (E - A) z: Interior when every weight exceeds ``tol``,
    Boundary when none falls below ``-tol`` but some sit inside the band,
    Outside otherwise or when no nonnegative z reproduces v within the gate.
    """
    if not profile.productive:
        raise NotProductiveError("cone membership requires a productive matrix")
    A = profile.A
    v = _as_float_vector(v, "target vector", A.shape[0])
    if np.any(v <= 0):
        raise DomainError("cone membership requires a strictly positive target vector")

    solved = gated_solve(A, v, CONE_RESIDUAL_GATE * float(np.max(np.abs(v))))
    z = solved.z
    alpha = z - A @ z
    if not solved.within_gate:
        # No nonnegative z reproduces v, so no nonnegative weight vector
        # exists either (alpha >= 0 would force z = (E-A)^(-1) alpha >= 0).
        return ConeMembership(region=ConeRegion.OUTSIDE, alpha=alpha, z=z)
    if np.all(alpha > tol):
        region = ConeRegion.INTERIOR
    elif np.all(alpha >= -tol):
        region = ConeRegion.BOUNDARY
    else:
        region = ConeRegion.OUTSIDE
    return ConeMembership(region=region, alpha=alpha, z=z)
