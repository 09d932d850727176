"""Input-output economy container, scenario loading, and balance checks.

The physical economy consists of a direct-cost matrix ``A`` (entry ``a[k, i]``
is the amount of good ``k`` consumed to produce one unit of good ``i``), a
strictly positive gross output vector ``x``, and final demand split into
consumption ``c``, export ``e``, and import ``m``.  A valid economy satisfies
the output balance ``x = A x + c + e - m`` componentwise.

Imports are called ``m`` internally to avoid clashing with index variables;
scenario documents use the key ``"i"``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import DimensionError, DomainError, ParseError

# Balance tolerance, applied relative to the max-norm of x.  The balance
# identity is a validation gate, never auto-repaired.
DEFAULT_BALANCE_TOL = 1e-9

_VECTOR_KEYS = ("x", "c", "e", "i")


class RegimeKind(Enum):
    """Sign pattern of final demand c + e - m."""

    ALL_POSITIVE = "all_positive"
    MIXED = "mixed"
    INVALID = "invalid"


@dataclass(frozen=True)
class DemandRegime:
    """Partition of industries by the sign of final demand.

    ``I_set`` holds industries with nonnegative final demand (values inside
    the tolerance band count as nonnegative), ``J_set`` those strictly
    negative.  Both are empty unless ``kind`` is MIXED, except that
    ALL_POSITIVE fills ``I_set`` with every industry.
    """

    kind: RegimeKind
    I_set: frozenset[int] = frozenset()
    J_set: frozenset[int] = frozenset()


def _as_float_vector(value, name: str, n: int | None = None, *,
                     held: str | None = None) -> np.ndarray:
    """Float copy of a finite one-dimensional vector, of length ``n`` if given.

    ``held`` names the attribute through which a result object stands for
    its vector (``"p"`` for a PriceVector, ``"pi"`` for a TaxVector).
    """
    if held is not None:
        value = getattr(value, held, value)
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a vector of numbers ({exc})") from exc
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be a one-dimensional vector, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise DimensionError(f"{name} has length {arr.shape[0]}, expected {n}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} contains non-finite entries")
    return arr


def _check_tol(tol, name: str = "tolerance") -> None:
    """Raise DomainError unless ``tol`` is positive and finite (NaN fails)."""
    if not 0 < tol < np.inf:
        raise DomainError(f"{name} must be positive and finite, got {tol}")


def _as_float_matrix(value, name: str, *, square: bool = True) -> np.ndarray:
    """Float copy of a nonempty, finite, nonnegative matrix, square unless
    ``square`` is False."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a rectangular array of numbers ({exc})") from exc
    if arr.ndim != 2 or (square and arr.shape[0] != arr.shape[1]):
        kind = "square" if square else "a matrix"
        raise DimensionError(f"{name} must be {kind}, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError(f"{name} has no entries")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        k, i = np.argwhere(arr < 0)[0]
        raise DomainError(f"{name} entry [{k},{i}] = {arr[k, i]} is negative")
    return arr


@dataclass(frozen=True)
class EconomyModel:
    """Validated input-output economy. Immutable; all operations are pure."""

    A: np.ndarray
    x: np.ndarray
    c: np.ndarray
    e: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        A = _as_float_matrix(self.A, "cost matrix")
        n = A.shape[0]
        x = _as_float_vector(self.x, "x", n)
        if np.any(x <= 0):
            k = int(np.argmin(x))
            raise DomainError(f"gross output x[{k}] = {x[k]} is not strictly positive")
        c = _as_float_vector(self.c, "c", n)
        e = _as_float_vector(self.e, "e", n)
        m = _as_float_vector(self.m, "i", n)
        for name, arr in (("A", A), ("x", x), ("c", c), ("e", e), ("m", m)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        """Number of industries."""
        return self.A.shape[0]

    @property
    def final_demand(self) -> np.ndarray:
        """Final demand vector c + e - m."""
        return self.c + self.e - self.m


def load_economy(source) -> EconomyModel:
    """Load and validate an economy from a scenario document.

    ``source`` may be a mapping with keys ``A``, ``x``, ``c``, ``e``, ``i``,
    or a path.  A ``.json`` path is read as such a mapping.  A ``.csv`` path
    is read as the matrix ``A`` (one row per line) with the vectors taken
    from a sidecar JSON document at the same path with suffix ``.json``.
    """
    if isinstance(source, Mapping):
        doc = source
    else:
        path = Path(source)
        if path.suffix.lower() == ".csv":
            doc = _read_csv_scenario(path)
        else:
            doc = _read_json(path)
    missing = [key for key in ("A", *_VECTOR_KEYS) if key not in doc]
    if missing:
        raise ParseError(f"scenario document is missing keys: {', '.join(missing)}")
    return EconomyModel(A=doc["A"], x=doc["x"], c=doc["c"], e=doc["e"], m=doc["i"])


def _read_text(path: Path, what: str = "scenario document") -> str:
    """Contents of a UTF-8 text file; a file that is missing, unreadable or
    not UTF-8 raises ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ParseError(f"{what} not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except OSError as exc:
        raise ParseError(f"{path}: cannot be read ({exc.strerror or exc})") from exc


def _read_json(path: Path, what: str = "scenario document") -> dict:
    try:
        doc = json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return doc


def _read_csv_scenario(path: Path) -> dict:
    lines = _read_text(path).splitlines()
    try:
        rows = [[float(cell) for cell in row if cell.strip() != ""]
                for row in csv.reader(lines) if row and any(cell.strip() for cell in row)]
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric CSV cell ({exc})") from exc
    if not rows:
        raise ParseError(f"{path}: empty CSV matrix")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ParseError(f"{path}: ragged CSV rows (widths {sorted(widths)})")
    sidecar = path.with_suffix(".json")
    doc = dict(_read_json(sidecar, f"sidecar vector file of CSV matrix {path}"))
    doc["A"] = rows
    return doc


def balance_residual(model: EconomyModel) -> np.ndarray:
    """Componentwise residual of the output balance, x - Ax - c - e + m.

    An all-zero result means the balance identity holds exactly.
    """
    return model.x - model.A @ model.x - model.c - model.e + model.m


def demand_regime(model: EconomyModel, tol: float = DEFAULT_BALANCE_TOL) -> DemandRegime:
    """Classify the sign pattern of final demand.

    Returns INVALID when the output balance fails at ``tol`` (relative to
    the max-norm of x), ALL_POSITIVE when no component of c + e - m falls
    below the symmetric tolerance band, and MIXED otherwise with the
    nonnegative side in ``I_set``.  INVALID is also returned in the
    degenerate case where every component is negative.
    """
    _check_tol(tol)
    scale = float(np.max(np.abs(model.x)))
    if float(np.max(np.abs(balance_residual(model)))) > tol * scale:
        return DemandRegime(kind=RegimeKind.INVALID)
    f = model.final_demand
    band = tol * scale
    negative = np.flatnonzero(f < -band)
    nonnegative = np.flatnonzero(f >= -band)
    if negative.size == 0:
        return DemandRegime(
            kind=RegimeKind.ALL_POSITIVE,
            I_set=frozenset(range(model.n)),
        )
    if nonnegative.size == 0:
        return DemandRegime(kind=RegimeKind.INVALID)
    return DemandRegime(
        kind=RegimeKind.MIXED,
        I_set=frozenset(int(k) for k in nonnegative),
        J_set=frozenset(int(k) for k in negative),
    )
