"""Exception types shared across the package: one per CLI exit code, two for
exit 3.  Errors of one class are told apart by their messages."""


class PermupowerError(Exception):
    """Exit 1: base class of every package error, raised as itself for an
    invalid request that no subclass names: a grid or flat image that is no
    bijection of [d]^2, d < 2 for a power, d above the cap of 215, a matrix
    that is not unitary, fewer than 2 samples, a seed outside [0, 2^32), or
    angles outside the canonical two-qubit chamber."""


class BudgetExceeded(PermupowerError):
    """Exit 4: the exhaustive enumeration budget, the dense oracle's cap of
    d <= 12, or a side with no reference census."""


class NotOrthogonal(PermupowerError):
    """Exit 3: two Latin squares are not an orthogonal pair."""


class UnsupportedOrder(PermupowerError):
    """Exit 3: no orthogonal Latin pair construction for this side, or a
    pair file whose side is not the one requested."""


class ParseError(PermupowerError):
    """Exit 2: malformed text input; the message carries the position."""
