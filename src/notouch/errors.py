"""Exception types raised across the package.

Everything derives from ``NoTouchError`` (itself a ``ValueError``) so callers
can catch the whole family or individual conditions.
"""


class NoTouchError(ValueError):
    """Base class for all errors raised by this package."""


class DuplicateMode(NoTouchError):
    """A mode index appears twice where single occupancy is required."""


class DimensionMismatch(NoTouchError):
    """Operands live in spaces of different size."""


class SameMode(NoTouchError):
    """A two-mode gate was requested on a single mode."""


class NotBijective(NoTouchError):
    """A one-line permutation entry list is not a bijection."""


class NotNormalized(NoTouchError):
    """A target state is not normalized within tolerance."""


class InvalidCircuit(NoTouchError):
    """A circuit failed structural validation."""


class PatternMismatch(NoTouchError):
    """A state term does not fit the one-particle-per-pair dual-rail pattern."""


class ZeroState(NoTouchError):
    """An operation received a state with no terms."""


class ZeroProbability(NoTouchError):
    """A post-selected quantity was requested for an impossible event."""


class TooManyHistories(NoTouchError):
    """Path-history enumeration would exceed the configured limit."""
