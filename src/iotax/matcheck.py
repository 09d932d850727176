"""Structural analysis of the direct-cost matrix.

Covers the structural conditions the tax constructions rely on:
irreducibility (strong connectivity of the digraph of positive entries)
and the closed classes of a reducible digraph, productivity (spectral
radius below one), the Leontief inverse, and membership of a target
vector in the cone spanned by the columns of A(E-A)^(-1).
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
# Arnoldi vectors before spectral_radius falls back to a dense eigenvalue solve.
ARNOLDI_VECTORS = 64
# Basis size of spectral_radius's first Arnoldi check (then twice it, then
# the last); a matrix no larger than the second is certified on the whole
# space at once.
ARNOLDI_FIRST_CHECK = 16
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

    ``z`` solves A z = v (minimum-norm least squares when A is singular) and
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
    reproduces the right-hand side within the gate.  When LU fails or misses
    the gate, ``z`` is the minimum-norm least-squares solution, the only
    other point tried."""

    z: np.ndarray
    within_gate: bool


def gated_solve(M: np.ndarray, rhs: np.ndarray, gate: float) -> GatedSolution:
    """Solve M z = rhs under a gate on the residual max|M z - rhs|.

    Takes the LU solution when M is nonsingular and that solution passes the
    gate; otherwise the minimum-norm least-squares solution (Golub & Van
    Loan, *Matrix Computations*, 5.5), flagged by whether it passes.  Either
    may have negative entries.  Raises SingularSystemError when the
    least-squares solve itself fails.
    """
    try:
        z = np.linalg.solve(M, rhs)
        if float(np.max(np.abs(M @ z - rhs))) <= gate:
            return GatedSolution(z=z, within_gate=True)
    except np.linalg.LinAlgError:
        pass
    try:
        z = np.linalg.lstsq(M, rhs, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"least-squares solve failed: {exc}") from exc
    return GatedSolution(z=z, within_gate=float(np.max(np.abs(M @ z - rhs))) <= gate)


def _pack(adjacency: np.ndarray) -> np.ndarray:
    """The rows of a boolean matrix, one bit per column, little-endian."""
    # packbits reads a transposed view about 5x slower than a copy of it.
    return np.packbits(np.ascontiguousarray(adjacency), axis=1, bitorder="little")


def _reach(packed: np.ndarray, start: int, within: int) -> int:
    """The states of ``within`` (an int, one bit per state) that ``start``,
    one of them, reaches through states of ``within``, in the digraph whose
    rows :func:`_pack` gave.  Each reached state's row is merged into the
    reach set at most once, and the sweep stops once all of ``within`` is
    reached."""
    frontier = 1 << start  # reached states whose row is not merged yet
    unreached = within & ~frontier
    while frontier and unreached:
        lowest = frontier & -frontier
        frontier ^= lowest
        new = int.from_bytes(packed[lowest.bit_length() - 1], "little") & unreached
        unreached ^= new
        frontier |= new
    return within & ~unreached


def is_irreducible(A: np.ndarray) -> bool:
    """Strong connectivity of the digraph with an edge (i -> j) iff a_ij > 0.

    Exact: state 0 must reach every state, first in the graph and then in
    its transpose.  Each sweep merges each reached state's packed row once,
    so it costs O(n) operations on n-bit ints, O(n^2 / 64) word operations,
    whatever the graph's diameter, after packing the n x n adjacency.
    """
    adjacency = A > 0
    everything = (1 << A.shape[0]) - 1
    return (_reach(_pack(adjacency), 0, everything) == everything
            and _reach(_pack(adjacency.T), 0, everything) == everything)


def closed_classes(adjacency: np.ndarray) -> list[np.ndarray]:
    """The closed classes (strong components that no edge leaves) of the
    digraph with an edge (k -> i) where ``adjacency[k, i]``, each as its
    states in increasing order, in the order of their first states.

    The component of the first state not yet placed is what it reaches
    (among all states) and what reaches it among the states not yet placed;
    it is closed when what it reaches is the component itself.
    """
    forward, backward = _pack(adjacency), _pack(adjacency.T)
    everything = unplaced = (1 << adjacency.shape[0]) - 1
    classes = []
    while unplaced:
        start = (unplaced & -unplaced).bit_length() - 1
        reached = _reach(forward, start, everything)
        component = reached & _reach(backward, start, unplaced)
        unplaced ^= component
        if reached == component:
            bits = component.to_bytes(forward.shape[1], "little")
            classes.append(np.flatnonzero(np.unpackbits(
                np.frombuffer(bits, dtype=np.uint8), bitorder="little")))
    return classes


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
    Outside otherwise or when no z reproduces v within the gate.  On a
    singular A only the minimum-norm solution is tried, so the answer is
    Boundary or Outside when that point has a weight at or below ``tol``,
    even if another solution's weights are all positive.
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
        # Not even the least-squares z reproduces v, so no weight vector does.
        return ConeMembership(region=ConeRegion.OUTSIDE, alpha=alpha, z=z)
    if np.all(alpha > tol):
        region = ConeRegion.INTERIOR
    elif np.all(alpha >= -tol):
        region = ConeRegion.BOUNDARY
    else:
        region = ConeRegion.OUTSIDE
    return ConeMembership(region=region, alpha=alpha, z=z)
