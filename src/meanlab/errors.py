"""Exception hierarchy shared across the package.

Everything raised deliberately by meanlab derives from :class:`MeanlabError`,
so callers can catch one type at the boundary. Construction-time rejections
of malformed raw input (wrong shape, non-finite entries, bad JSON payloads)
use :class:`ValueError` subclasses where that is the idiomatic choice.
"""

from __future__ import annotations


class MeanlabError(Exception):
    """Base class for errors raised by meanlab operations."""


class DimMismatch(MeanlabError, ValueError):
    """Operands have incompatible dimensions."""


class DomainError(MeanlabError, ValueError):
    """A scalar or matrix argument lies outside the function's domain."""


class PositivityError(DomainError):
    """A matrix required to be positive definite is not."""


class SingularError(MeanlabError, ValueError):
    """A matrix required to be invertible is numerically singular."""


class ConvergenceFailure(MeanlabError, RuntimeError):
    """An iterative routine exhausted its iteration budget."""


class IllConditioned(MeanlabError, RuntimeError):
    """A linear system is too ill conditioned to solve reliably."""


class FitFailure(MeanlabError, RuntimeError):
    """A series fit produced residuals too large to trust."""


class NotKuboAndo(MeanlabError, ValueError):
    """The operation requires a mean from the Kubo-Ando class."""


class NotInCone(MeanlabError, ValueError):
    """The matrix lies outside the positive definite cone."""
