"""Exception hierarchy shared by all analysis modules.

Two broad families matter for callers (and for CLI exit codes):

* :class:`InputError` -- the supplied data is malformed (bad file, wrong
  shape, entries outside the admissible domain).  CLI exit code 1.
* :class:`AnalysisError` -- the data is well formed but fails a
  mathematical precondition, or the requested object does not exist /
  could not be certified.  CLI exit code 2.
"""


class IotaxError(Exception):
    """Base class for every error raised by this package."""


class InputError(IotaxError):
    """Malformed or inadmissible input data."""


class ParseError(InputError):
    """A scenario document could not be parsed."""


class DimensionError(InputError):
    """Array shapes are inconsistent (non-square matrix, length mismatch)."""


class DomainError(InputError):
    """Entries violate domain constraints (negative costs, nonpositive output)."""


class ZeroColumnError(DomainError):
    """A cost matrix column (or row) sums to zero where positivity is required."""


class AnalysisError(IotaxError):
    """Valid input that fails a mathematical precondition or has no solution."""


class BalanceError(AnalysisError):
    """The gross-output balance identity does not hold within tolerance."""


class NotProductiveError(AnalysisError):
    """The cost matrix has spectral radius >= 1; no Leontief inverse."""


class NotIrreducibleError(AnalysisError):
    """The cost matrix digraph is not strongly connected."""


class ConvergenceError(AnalysisError):
    """An iterative solver exhausted its iteration budget."""


class DegenerateInputError(AnalysisError):
    """A denominator required by the computation vanishes."""


class SingularSystemError(AnalysisError):
    """A linear solve failed and no usable fallback solution was found."""


class ConditionViolationError(AnalysisError):
    """The generating vector fails the strict markup condition z_i > (Az)_i."""

    def __init__(self, message: str, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class ScaleRangeError(AnalysisError):
    """The tax scale constant lies outside its open admissible interval."""


class NotEquilibriumError(AnalysisError):
    """Demand strictly exceeds supply in some industry; prices are not an equilibrium."""


class NoSubsidiesNeededError(AnalysisError):
    """Every industry covers its costs; there is nothing to subsidize."""


class AllSubsidizedError(AnalysisError):
    """Every industry would need subsidies, contradicting productivity."""


class NotASolutionError(AnalysisError):
    """A vector fails the feasibility or equality-row conditions of the system."""


class NoEquilibriumError(AnalysisError):
    """No equilibrium price vector exists for the given clearing solution."""


class DegenerateSupportError(NotASolutionError):
    """The equality-row set is empty; no market clears."""
