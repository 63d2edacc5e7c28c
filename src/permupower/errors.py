"""Exception types shared across the package."""


class PermupowerError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(PermupowerError):
    """A flat permutation's length is not the required d*d."""


class NotBijection(PermupowerError):
    """An image array repeats or omits values."""


class BudgetExceeded(PermupowerError):
    """The requested computation is outside the enumeration budget."""


class DimensionTooLarge(PermupowerError):
    """Local dimension above the supported cap."""


class DegenerateDimension(PermupowerError):
    """Operation undefined at d = 1."""


class NotUnitary(PermupowerError):
    """Matrix fails the unitarity check."""


class InsufficientSamples(PermupowerError):
    """Too few samples for the requested estimate."""


class ParameterOrderViolation(PermupowerError):
    """Canonical parameters violate |c3| <= c2 <= c1 <= pi/4."""


class NotOrthogonal(PermupowerError):
    """Two Latin squares are not an orthogonal pair."""


class UnsupportedOrder(PermupowerError):
    """No orthogonal Latin pair construction for this side."""


class ParseError(PermupowerError):
    """Malformed text input; message carries the position."""
