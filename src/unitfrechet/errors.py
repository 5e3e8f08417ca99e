"""Exception hierarchy for the unitfrechet package.

All library errors derive from :class:`UnitFrechetError` so callers can
catch everything with one clause. The subclasses map onto the CLI exit
codes: bad parameter values and bad function arguments are usage-level
problems, :class:`DataError` covers ingestion, and
:class:`NumericalError` marks internal numerical failures that should
never occur for valid inputs.
"""

__all__ = [
    "UnitFrechetError",
    "ParameterError",
    "DomainError",
    "DataError",
    "NumericalError",
]


class UnitFrechetError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(UnitFrechetError, ValueError):
    """A parameter vector violates its domain constraints."""


class DomainError(UnitFrechetError, ValueError):
    """A function argument lies outside the function's domain."""


class DataError(UnitFrechetError, ValueError):
    """Observed data failed validation at ingestion."""


class NumericalError(UnitFrechetError, ArithmeticError):
    """A numerical routine failed in a way that indicates a defect."""
