"""Exception types shared across the package."""


class FlagOrbitsError(Exception):
    """Base class for all package-specific errors."""


class MalformedInput(FlagOrbitsError):
    """Input text does not describe a valid permutation or matrix."""


class SizeMismatch(FlagOrbitsError):
    """Operands live in symmetric groups of different sizes."""


class PositionOutOfRange(FlagOrbitsError):
    """A 1-based position lies outside the allowed range."""


class TooLarge(FlagOrbitsError):
    """The request exceeds the desk-scale guard."""


class NotANeighbor(FlagOrbitsError):
    """The involution is not adjacent to the bottom vertex."""


class InInterval(FlagOrbitsError):
    """The vertex lies inside the interval, so no minor is defined."""


class DegenerateFlag(FlagOrbitsError):
    """The rows of the flag matrix are linearly dependent."""
