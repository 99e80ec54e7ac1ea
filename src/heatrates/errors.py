"""Shared exception types."""


class HeatratesError(Exception):
    """Base class for all package errors."""


class EvaluationError(HeatratesError):
    """A function evaluation produced a non-finite or invalid value."""


class BracketError(HeatratesError):
    """A root bracket does not straddle the target value."""


class PreconditionError(HeatratesError):
    """An operation's stated precondition is violated."""


class UnsupportedModelError(HeatratesError):
    """The kernel model does not support the requested operation."""


class UnsupportedRegimeError(HeatratesError):
    """Parameters fall outside the regime where a formula is valid."""


class DomainError(HeatratesError):
    """The requested quantity does not exist for this model (e.g. an
    infinite Green function for a recurrent process)."""
