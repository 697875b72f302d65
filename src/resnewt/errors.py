"""Exception types raised by the package."""


class ResnewtError(Exception):
    """Base class for all package errors."""


class ParseError(ResnewtError):
    """Malformed input file or option value."""


class NotEssential(ResnewtError):
    """The support family fails the essentiality condition.

    Attributes:
        blocks: tuple of block indices of a violating subfamily; an empty
            tuple means the union does not affinely span the full space.
    """

    def __init__(self, blocks, message):
        super().__init__(message)
        self.blocks = tuple(blocks)


class InvalidDirection(ResnewtError):
    """A zero vector was offered where a direction is required."""


class DegenerateInput(ResnewtError):
    """A point configuration does not span the expected dimension."""


class EmptyIntersection(ResnewtError):
    """A halfspace clip removed the whole polytope."""


class AmbiguousUnprojection(ResnewtError):
    """The specialized coordinates are not determined uniquely by the
    projected vertex, so full-space vertices cannot be recovered."""


class InvariantViolation(ResnewtError):
    """An internal exactness or call-bound invariant failed: a result the
    algorithm certifies would be wrong, so the run stops instead."""
