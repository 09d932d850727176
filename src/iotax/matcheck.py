"""Structural analysis of the direct-cost matrix.

Covers the structural conditions the tax constructions rely on:
irreducibility (strong connectivity of the digraph of positive entries),
productivity (spectral radius below one), the Leontief inverse, and
membership of a target vector in the cone spanned by the columns of
A(E-A)^(-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, NotProductiveError, SingularSystemError
from .model import _as_float_matrix, _as_float_vector, _check_tol

DEFAULT_TOL = 1e-10
# Arnoldi vectors before spectral_radius falls back to a dense eigenvalue solve.
ARNOLDI_VECTORS = 64
# Basis size of spectral_radius's first Arnoldi check (then twice it, then
# the last); a matrix no larger than the second is certified on the whole
# space at once.
ARNOLDI_FIRST_CHECK = 16
# Residual gate for reproducing the target vector in cone_membership,
# relative to the max-norm of the target.
CONE_RESIDUAL_GATE = 1e-8
# Least-squares subproblems nnls may solve per column before it gives up
# (Lawson & Hanson's limit of 3n).
NNLS_ITERATIONS_PER_COLUMN = 3
# A column enters nnls's passive set only if its part outside the span of
# the passive columns exceeds this share of its norm.  The book's test (about
# 1e-14) let in a column independent by 5e-14 of its norm on a 9 x 11 float
# matrix of rank 8 up to roundoff; its coefficient of order 1e14 left a
# residual of 3.5 where the minimum is 0.45.
_INDEPENDENT = 1e3 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


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


def nnls(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The z >= 0 that minimizes ||M z - rhs||.

    Lawson & Hanson's active-set algorithm (*Solving Least Squares Problems*,
    1974, ch. 23).  The columns of the passive set (the variables free of
    their bound) are kept in front, in the order they entered, and reduced
    to an upper triangle R by Householder reflections; rhs is reflected with
    them.  A column enters only if it is independent of the passive columns
    (by a test stricter than the book's, see ``_INDEPENDENT``) and would
    take a positive value.  A column that leaves is moved behind the others
    and the triangle restored by Givens rotations.  R's inverse
    is updated alongside, bordered when a column enters and rotated like R
    when one leaves, so each least-squares subproblem on the passive set is
    one matrix-vector product.

    The reflections reach the other columns late, in one product: until a
    column leaves, they are held as ``E - V^T W`` (Schreiber & Van Loan's
    compact form, SIAM J. Sci. Stat. Comput. 10, 1989) and applied only to
    the candidate columns and, transposed, to the vector of the dual.  So
    each step reads the bound columns once, for the dual, instead of
    rewriting them.  Raises ConvergenceError after NNLS_ITERATIONS_PER_COLUMN
    subproblems per column of M.
    """
    A = np.array(M, dtype=float)
    r = np.array(rhs, dtype=float)
    m, n = A.shape
    order = np.arange(n)  # the variable in each column
    x = np.zeros(n)       # by column
    R_inv = np.zeros((min(m, n), min(m, n)))  # of R = A[:k, :k] in its top left
    # The first b rows of V and W: reflections from row f down that the
    # bound columns (k and after) have not received.
    V = np.zeros((min(m, n), m))
    W = np.zeros_like(V)
    b = f = k = 0         # k: passive columns, and rows of R
    cap = NNLS_ITERATIONS_PER_COLUMN * n
    iterations = 0
    while k < min(m, n):
        if b == 0:
            f = k
        dual = r[f:].copy()
        dual[:k - f] = 0.0
        dual -= W[:b, f:].T @ (V[:b, f:] @ dual)
        w = dual @ A[f:, k:]  # the dual vector on the bound variables
        while True:
            q = int(np.argmax(w))
            if w[q] <= 0.0:
                return _nnls_solution(order, x)
            col = A[:, k + q] - V[:b].T @ (W[:b] @ A[:, k + q])
            s = -np.copysign(_norm(col[k:]), col[k])  # R's diagonal entry if it enters
            u = col[k:].copy()
            u[0] -= s  # H = E + u u^T / (s u[0]) reflects col[k:] onto s e_1
            tau = s * u[0]
            if tau < 0.0 and abs(s) > _INDEPENDENT * math.hypot(_norm(col[:k]), s):
                reflect = float(u @ r[k:]) / tau
                if (r[k] + u[0] * reflect) / s > 0.0:
                    break
            w[q] = 0.0

        j = k + q
        A[:, j] = A[:, k]
        order[k], order[j] = order[j], order[k]
        A[:k, k] = col[:k]
        A[k, k] = s
        A[k + 1:, k] = 0.0
        r[k:] += u * reflect
        V[b, k:] = u
        W[b] = (V[b] - W[:b].T @ (V[:b] @ V[b])) / -tau
        b += 1
        R_inv[:k, k] = R_inv[:k, :k] @ col[:k] / -s
        R_inv[k, k] = 1.0 / s
        k += 1

        while True:
            iterations += 1
            if iterations > cap:
                raise ConvergenceError(
                    f"nonnegative least squares did not converge within {cap} iterations")
            trial = R_inv[:k, :k] @ r[:k]
            low = (trial <= 0.0).nonzero()[0]
            if low.size == 0:
                x[:k] = trial
                break
            # Step from x toward the trial point until the first variable
            # reaches zero; it leaves, with any other roundoff left at or below.
            ratios = x[low] / (x[low] - trial[low])
            first = low[ratios.argmin()]
            x[:k] += ratios.min() * (trial - x[:k])
            A[f:, k:] -= V[:b, f:].T @ (W[:b, f:] @ A[f:, k:])
            V[:b] = 0.0
            b = 0
            leaving = (x[:k] <= 0.0).nonzero()[0]
            for p in sorted({int(first), *leaving.tolist()}, reverse=True):
                _nnls_release(A, r, R_inv, order, x, p, k)
                k -= 1
    return _nnls_solution(order, x)


def _nnls_release(A, r, R_inv, order, x, p: int, k: int) -> None:
    """Move passive column ``p`` of ``k`` behind the others, restore the
    triangle with Givens rotations, and update its inverse to match."""
    for arr in (order, x):
        arr[p:k] = np.roll(arr[p:k], -1)
    A[:, p:k] = np.roll(A[:, p:k], -1, axis=1)
    x[k - 1] = 0.0
    for i in range(p, k - 1):
        h = math.hypot(A[i, i], A[i + 1, i])
        c, s = A[i, i] / h, A[i + 1, i] / h
        G = np.array([[c, s], [-s, c]])
        A[i:i + 2, i:] = G @ A[i:i + 2, i:]
        A[i + 1, i] = 0.0
        r[i:i + 2] = G @ r[i:i + 2]
        R_inv[:k, i:i + 2] = R_inv[:k, i:i + 2] @ G.T
    # Rotated like R, its rows but p and columns but the last invert the new R.
    R_inv[p:k - 1, :k - 1] = R_inv[p + 1:k, :k - 1]
    R_inv[k - 1, :k] = R_inv[:k, k - 1] = 0.0


def _nnls_solution(order: np.ndarray, x: np.ndarray) -> np.ndarray:
    z = np.zeros(x.size)
    z[order] = x
    return z


def _norm(v: np.ndarray) -> float:
    """Euclidean norm, rescaled where a square would overflow or underflow."""
    square = float(v @ v)
    if _TINY < square < np.inf:
        return math.sqrt(square)
    top = float(np.max(np.abs(v), initial=0.0))
    return top * math.sqrt(float((v / top) @ (v / top))) if top > 0.0 else 0.0


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
        z = nnls(M, rhs)
    except ConvergenceError as exc:
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


def spectral_radius(A: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Spectral radius of a nonnegative matrix, to ``tol`` relative accuracy.

    Arnoldi on ``B = A / s`` (``s`` the largest row sum, so rho(B) <= 1) from
    the all-ones vector, with classical Gram-Schmidt applied twice.  For a
    nonnegative matrix rho is the eigenvalue of largest real part, so at 16,
    32 and 64 vectors, at n vectors and at an invariant subspace the
    rightmost Ritz vector ``x`` is tested.  If x > 0, the Collatz-Wielandt
    bounds ``lo = min (Bx)_i / x_i <= rho(B) <= hi = max (Bx)_i / x_i`` hold
    whatever x is, and ``hi - lo <= tol * lo`` certifies their midpoint: ``tol``
    bounds the forward error.  At n <= 32, where Arnoldi's basis spans R^n
    by its second check and one dense eigendecomposition costs less, the
    rightmost eigenvector of B itself is tested instead.  Otherwise (a dominant
    eigenvector with zero entries, nearly decoupled blocks, strongly
    non-normal matrices) the radius comes from a dense eigenvalue solve.
    """
    n = A.shape[0]
    top = float(A.max())
    if top == 0.0:
        return 0.0
    if top > np.finfo(float).max / n:  # a row sum could overflow
        return top * spectral_radius(A / top, tol)
    s = float(np.max(A.sum(axis=1)))
    B = A / s
    rho = (_certified_radius(B, np.eye(n), B, tol) if n <= 2 * ARNOLDI_FIRST_CHECK
           else _arnoldi_radius(B, tol))
    if rho is not None:
        return s * rho
    try:
        return float(np.max(np.abs(np.linalg.eigvals(A))))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"spectral radius could not be computed: {exc}") from exc


def _arnoldi_radius(B: np.ndarray, tol: float) -> float | None:
    """rho(B) certified at one of Arnoldi's checks, or None."""
    n = B.shape[0]
    m = min(n, ARNOLDI_VECTORS)
    Q = np.empty((m, n))  # orthonormal basis, one vector per row
    H = np.zeros((m + 1, m))
    q = np.full(n, 1.0 / np.sqrt(n))
    for k in range(m):
        Q[k] = q
        w = B @ q
        scale = float(np.linalg.norm(w))
        for _ in range(2):
            h = Q[:k + 1] @ w
            w -= h @ Q[:k + 1]
            H[:k + 1, k] += h
        beta = float(np.linalg.norm(w))
        H[k + 1, k] = beta
        # An invariant subspace or a check.
        if beta <= 1e-14 * scale or k + 1 in (ARNOLDI_FIRST_CHECK, 2 * ARNOLDI_FIRST_CHECK, m):
            rho = _certified_radius(B, Q[:k + 1], H[:k + 1, :k + 1], tol)
            if rho is not None or beta == 0.0:
                return rho
        q = w / beta
    return None


def _certified_radius(B: np.ndarray, Q: np.ndarray, H: np.ndarray, tol: float) -> float | None:
    """Midpoint of the Collatz-Wielandt bracket of the rightmost Ritz vector
    of ``B`` on the basis ``Q``, or None when the eigensolve fails, that
    vector has a zero entry or the bracket is wider than ``tol`` relative."""
    try:
        theta, Y = np.linalg.eig(H)
    except np.linalg.LinAlgError:
        return None
    y = Y[:, np.argmax(theta.real)]
    # Real products only: a complex one wakes NumPy's OpenBLAS threads, which
    # then slowed the price solve that follows about 1.7x at n = 400 on 2 cores.
    x = np.hypot(y.real @ Q, y.imag @ Q)
    x /= x.max()
    if x.min() < np.finfo(float).tiny:  # also keeps (Bx)_i / x_i <= 1 / tiny finite
        return None
    ratios = (B @ x) / x
    lo, hi = float(ratios.min()), float(ratios.max())
    if hi - lo <= tol * lo:
        return 0.5 * (lo + hi)
    return None


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
