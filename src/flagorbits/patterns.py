"""Involution pattern containment on invariant index sets.

An index set witnesses a pattern only if it is a union of orbits of pi
(fixed points and 2-cycles), so that pi restricts to an involution of the
set.  The 2143 pattern carries an optional parity qualifier: a hit counts
only when the number of fixed points of pi strictly between the two swapped
pairs is even (zero included).

`pattern_masks` is the one containment decider; `occurrences` only finds
the witnesses of a pattern already known to occur, and is its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .errors import MalformedInput
from .perms import CHUNK_ROWS, Perm, fixed_points, involution_rows, is_involution, parse_perm
from .perms import guard_size, row_keys, two_cycles

EVEN_FIXED_BETWEEN = "even-fixed-between"

PATTERN_2143: Perm = (2, 1, 4, 3)
PATTERN_1324: Perm = (1, 3, 2, 4)

# The 24 singularity-forcing patterns, in canonical order.
_BAD_PATTERN_TEXT = (
    "14325 426153 154326 124356 153624 351426 213654 321465 "
    "3614725 1324657 2137654 4321576 5276143 5472163 2135467 1243576 "
    "1657324 4651327 57681324 65872143 13247856 34125768 "
    "341258967 749258163"
).split()


@dataclass(frozen=True)
class PatternSpec:
    pattern: Perm
    qualifier: str | None = None

    def __post_init__(self) -> None:
        if not is_involution(self.pattern):
            raise MalformedInput(f"pattern {self.pattern} is not an involution")
        if self.qualifier not in (None, EVEN_FIXED_BETWEEN):
            raise MalformedInput(f"unknown qualifier {self.qualifier!r}")
        if self.qualifier == EVEN_FIXED_BETWEEN and self.pattern != PATTERN_2143:
            raise MalformedInput("the parity qualifier applies only to 2143")


@dataclass(frozen=True)
class PatternHit:
    indices: tuple[int, ...]
    fixed_between: int


BAD_PATTERNS = tuple(PatternSpec(parse_perm(text)) for text in _BAD_PATTERN_TEXT)
QUALIFIED_2143 = PatternSpec(PATTERN_2143, EVEN_FIXED_BETWEEN)

# Bit k of a containment mask says that pi contains SPECS[k].  The first SINGULAR
# force singularity; plain 2143 and 1324 complete the smoothness conjecture.
SPECS = BAD_PATTERNS + (QUALIFIED_2143, PatternSpec(PATTERN_2143), PatternSpec(PATTERN_1324))
SINGULAR = len(BAD_PATTERNS) + 1
QUALIFIED_BIT = 1 << SPECS.index(QUALIFIED_2143)
_OWN_BIT = {spec.pattern: 1 << k for k, spec in enumerate(SPECS) if not spec.qualifier}


def standardize(values: tuple[int, ...]) -> Perm:
    """Relabel values by their sorted order to 1..r."""
    order = {v: k for k, v in enumerate(sorted(values), start=1)}
    return tuple(order[v] for v in values)


def occurrences(pi: Perm, spec: PatternSpec) -> list[PatternHit]:
    """All invariant index sets of pi whose standardization is the pattern.

    Index sets are unions of pi-orbits with the same number of 2-cycles and
    fixed points as the pattern; hits are sorted by index tuple.
    """
    pat = spec.pattern
    fixed = fixed_points(pi)
    cycles = two_cycles(pi)
    want_fixed = len(fixed_points(pat))
    want_cycles = len(two_cycles(pat))
    if want_fixed > len(fixed) or want_cycles > len(cycles):
        return []
    hits: list[PatternHit] = []
    for cyc in combinations(cycles, want_cycles):
        base = [i for pair in cyc for i in pair]
        for fix in combinations(fixed, want_fixed):
            idx = tuple(sorted(base + list(fix)))
            if standardize(tuple(pi[i - 1] for i in idx)) != pat:
                continue
            between = 0
            if pat == PATTERN_2143:
                lo, hi = idx[1], idx[2]
                between = sum(1 for k in fixed if lo < k < hi)
                if spec.qualifier == EVEN_FIXED_BETWEEN and between % 2:
                    continue
            hits.append(PatternHit(indices=idx, fixed_between=between))
    hits.sort(key=lambda h: h.indices)
    return hits


def qualified_2143(rows: np.ndarray) -> np.ndarray:
    """Whether each involution, a row of a (K, m) int8 array, contains 2143
    with an even number of fixed points strictly between the pairs.

    Two 2-cycles (a, b), (c, d) form a 2143 exactly when b < c, with an even
    number of fixed points between exactly when the fixed-point prefix counts
    at b and c have the same parity: c hits when some earlier end b has it.
    """
    pos = np.arange(1, rows.shape[1] + 1, dtype=np.int8)
    odd = np.cumsum(rows == pos, axis=1, dtype=np.int8) % 2 == 1
    hit = np.zeros(len(rows), dtype=bool)
    for parity in (odd, ~odd):
        seen = np.logical_or.accumulate((rows < pos) & parity, axis=1)
        hit |= ((rows > pos) & parity & seen).any(axis=1)
    return hit


def pattern_masks(rows: np.ndarray) -> np.ndarray:
    """Containment masks (int64) of the involutions in the rows of a (K, m)
    int8 array, m <= SIZE_GUARD, in the order given, CHUNK_ROWS rows at a
    time: whole levels would add 13 MB to a first classify at m = 12.

    An occurrence in pi misses an orbit of pi and survives its deletion; one in
    pi minus an orbit lifts back to pi.  So mask(pi) = own bit | the masks of pi
    minus each orbit, read from the cached tables of the smaller sizes.
    Deleting a fixed point flips the parity of the qualified 2143, so that bit
    is tested directly instead, and left out of the tables.
    """
    k = rows.shape[1]
    guard_size(k, "patterns")
    own = [(pat, bit) for pat, bit in _OWN_BIT.items() if len(pat) == k]
    pos = np.arange(1, k + 1, dtype=np.int8)
    masks = np.zeros(len(rows), dtype=np.int64)
    for s in range(0, len(rows), CHUNK_ROWS):
        chunk, out = rows[s : s + CHUNK_ROWS], masks[s : s + CHUNK_ROWS]
        out |= QUALIFIED_BIT * qualified_2143(chunk)
        for pat, bit in own:
            out[(chunk == pat).all(axis=1)] |= bit
        # delete each orbit {i, v} once: at a fixed point, or at a 2-cycle's start
        for at, size in ((chunk == pos, k - 1), (chunk > pos, k - 2)):
            r, c = np.nonzero(at)
            if not r.size:
                continue
            sub, i, v = chunk[r], pos[c, None], chunk[r, c, None]
            rest = sub[(sub != i) & (sub != v)].reshape(len(r), size)
            child = rest - (rest > i) - ((rest > v) & (v > i))
            keys, below = _level_masks(size)
            np.bitwise_or.at(out, r, below[np.searchsorted(keys, row_keys(child))])
    return masks


@cache
def _level_masks(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, masks) of every involution of S_k, in `involution_rows` order,
    built once per size as read-only arrays: ascending `row_keys` and the
    masks without the qualified bit."""
    rows = involution_rows(k)
    table = row_keys(rows), pattern_masks(rows) & ~QUALIFIED_BIT
    for a in table:
        a.flags.writeable = False
    return table
