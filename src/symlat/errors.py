"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
anything else -> 3.
"""


class SymlatError(Exception):
    """Base class for all package-specific errors."""


class IncompatibleElementsError(SymlatError):
    """Raised when two group elements of mismatched kinds are combined."""


class DimensionMismatchError(SymlatError):
    """Raised when a vector or dataset dimension does not match an action."""


class NotFiniteError(SymlatError):
    """Raised when a finite-only operation is applied to a continuous group."""


class InvalidGroupError(SymlatError):
    """Raised when a Cayley table or group descriptor violates the group axioms."""


class LatticeError(SymlatError):
    """Raised when an order structure is not a valid lattice."""


class DegenerateMetricError(SymlatError):
    """Raised when the variation bound keeps evaluating to zero on redraws."""


class ConfigError(SymlatError):
    """Raised for malformed or inconsistent experiment configuration."""


class DataError(SymlatError):
    """Raised for malformed input data files (CSV/IDX ingestion)."""
