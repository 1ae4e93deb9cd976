"""Classification of orthogonal-group orbit closures in the flag variety.

Orbits are indexed by involutions in the symmetric group.  The package
decides (rational) smoothness of an orbit closure from its indexing
involution via graph degrees on the Bruhat interval, cross-checks the
pattern-avoidance classification, and builds the symbolic Gram-matrix slice
that certifies the even-size degree criterion.
"""

from .errors import (
    DegenerateFlag,
    FlagOrbitsError,
    InInterval,
    MalformedInput,
    NotANeighbor,
    PositionOutOfRange,
    SizeMismatch,
    TooLarge,
)
from .perms import Perm, enumerate_involutions, parse_perm, w0, w0_class
from .bruhat import bruhat_leq, interval, rank
from .orbit_graph import conjugate_degrees, export_dot, neighbors, w0_degree
from .patterns import EVEN_FIXED_BETWEEN, SPECS, PatternSpec

__all__ = [n for n in dir() if not n.startswith("_") and type(globals()[n]) is not type(perms)]
__version__ = "0.1.0"
