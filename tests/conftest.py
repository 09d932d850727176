"""Shared fixtures and random-instance generators.

Generators use numpy eigenvalues for spectral scaling so that tests of the
package's own spectral machinery stay independent of it.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import nnls

from iotax import ClearingProblem, load_economy

E1_DOC = {"A": [[0.0, 0.5], [0.5, 0.0]], "x": [2.0, 2.0],
          "c": [1.0, 1.0], "e": [0.0, 0.0], "i": [0.0, 0.0]}
E2_DOC = {"A": [[0.2, 0.3], [0.4, 0.1]], "x": [10.0, 10.0],
          "c": [5.0, 5.0], "e": [0.0, 0.0], "i": [0.0, 0.0]}
# Mixed-regime economy: x = [1, 3] with the anti-diagonal matrix gives
# final demand [-0.5, 2.5]; industry 0 needs subsidies.
SUBSIDY_DOC = {"A": [[0.0, 0.5], [0.5, 0.0]], "x": [1.0, 3.0],
               "c": [-0.5, 2.5], "e": [0.0, 0.0], "i": [0.0, 0.0]}


@pytest.fixture
def e1():
    return load_economy(E1_DOC)


@pytest.fixture
def e2():
    return load_economy(E2_DOC)


@pytest.fixture
def subsidy_economy():
    return load_economy(SUBSIDY_DOC)


def random_irreducible_productive(rng: np.random.Generator, n: int,
                                  rho_range=(0.3, 0.9)) -> np.ndarray:
    """Random irreducible nonnegative matrix scaled to a target spectral radius.

    A full cycle guarantees irreducibility; the scale uses numpy eigenvalues
    (independent of the package's own radius estimate).
    """
    A = rng.uniform(0.0, 1.0, size=(n, n))
    A[rng.uniform(size=(n, n)) < 0.3] = 0.0
    for i in range(n):
        A[i, (i + 1) % n] = max(A[i, (i + 1) % n], 0.2)
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    target = rng.uniform(*rho_range)
    return A * (target / rho)


def balanced_economy(rng: np.random.Generator, A: np.ndarray):
    """Economy on A with x = (E - A)^(-1) f for random positive final demand f."""
    n = A.shape[0]
    f = rng.uniform(0.5, 1.5, size=n)
    x = np.linalg.solve(np.eye(n) - A, f)
    return load_economy({"A": A.tolist(), "x": x.tolist(), "c": f.tolist(),
                         "e": [0.0] * n, "i": [0.0] * n})


def interior_generating_vector(rng: np.random.Generator, A: np.ndarray) -> np.ndarray:
    """z = (E - A)^(-1) alpha for random alpha > 0, so that z > A z holds."""
    n = A.shape[0]
    alpha = rng.uniform(0.2, 1.0, size=n)
    return np.linalg.solve(np.eye(n) - A, alpha)


def random_clearing_instance(rng: np.random.Generator, max_rows: int = 8,
                             require_outside_cone: bool = True) -> ClearingProblem:
    """Random (C, b) with positive row/column sums; by default b is rejected
    until it lies outside the cone of the columns (no exact nonnegative solve)."""
    for _ in range(200):
        n = int(rng.integers(2, max_rows + 1))
        l = int(rng.integers(1, n + 1))
        C = rng.uniform(0.0, 1.0, size=(n, l))
        C[rng.uniform(size=(n, l)) < 0.35] = 0.0
        C[np.arange(l) % n, np.arange(l)] += 0.3  # every column touched
        for k in range(n):
            if C[k].sum() == 0.0:
                C[k, int(rng.integers(l))] = rng.uniform(0.3, 1.0)
        b = rng.uniform(0.5, 1.5, size=n)
        if require_outside_cone:
            z, _ = nnls(C, b)
            if float(np.max(np.abs(C @ z - b))) <= 1e-7 * float(np.max(b)):
                continue
        return ClearingProblem(C=C, b=b)
    raise AssertionError("could not generate a clearing instance outside the cone")


def random_simplex(rng: np.random.Generator, l: int, size: int | None = None) -> np.ndarray:
    """Uniform Dirichlet(1,...,1) draws on the unit simplex."""
    shape = (size, l) if size is not None else (l,)
    g = rng.gamma(1.0, size=shape)
    return g / g.sum(axis=-1, keepdims=True)
