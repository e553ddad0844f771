"""Exception hierarchy shared across the package."""

__all__ = [
    "SpinPhaseError",
    "DomainError",
    "ValidationError",
    "ConsistencyError",
    "BandLimitError",
]


class SpinPhaseError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SpinPhaseError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class ValidationError(SpinPhaseError, ValueError):
    """Ingested data violates a structural invariant (named in the message)."""


class ConsistencyError(SpinPhaseError, RuntimeError):
    """An internal identity that should hold to roundoff failed to."""


class BandLimitError(DomainError):
    """A quadrature grid is too coarse for the requested band limit."""
