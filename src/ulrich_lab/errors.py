"""Exception hierarchy shared by every module in the package.

Every error raised on purpose derives from :class:`UlrichLabError`, so
callers can catch one base class at CLI boundaries while tests can pin
the precise subclass.
"""

from __future__ import annotations


class UlrichLabError(Exception):
    """Base class for all errors raised by this package."""


class DegreeOutOfRange(UlrichLabError):
    """Surface degree outside the supported range 3..8."""


class LatticeMismatch(UlrichLabError):
    """Divisor classes with incompatible exceptional-coordinate arity."""


class BadPermutation(UlrichLabError):
    """Sequence that is not a bijection of the exceptional indices."""


class ParseError(UlrichLabError):
    """Malformed divisor text.  Carries the 0-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class EmptySum(UlrichLabError):
    """Direct sum of an empty family of bundles."""


class ParityViolation(UlrichLabError):
    """Integer formula fed data of the wrong parity."""


class NoKernel(UlrichLabError):
    """Evaluation map with no kernel: h^0 does not exceed the rank."""


class OutOfTheoremScope(UlrichLabError):
    """Request outside the range where the implemented results hold."""


class NotUlrich(UlrichLabError):
    """Bundle numerics that fail the Ulrich candidate conditions."""


class NotUlrichCompatible(UlrichLabError):
    """Invariants that no Ulrich bundle of the given rank can have."""


class NonIntegerResult(UlrichLabError):
    """Exact closed-form evaluation failed to collapse to an integer."""


class BadSeedFile(UlrichLabError):
    """Seed file that cannot be read, is not JSON or holds a malformed entry."""
