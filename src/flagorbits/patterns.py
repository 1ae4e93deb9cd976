"""Involution pattern containment on invariant index sets.

An index set witnesses a pattern only if it is a union of orbits of pi
(fixed points and 2-cycles), so that pi restricts to an involution of the
set.  The 2143 pattern carries an optional parity qualifier: a hit counts
only when the number of fixed points of pi strictly between the two swapped
pairs is even (zero included).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations

from .errors import MalformedInput
from .perms import Perm, fixed_points, is_involution, parse_perm, two_cycles

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
    induced: Perm
    fixed_between: int


BAD_PATTERNS = tuple(PatternSpec(parse_perm(text)) for text in _BAD_PATTERN_TEXT)
QUALIFIED_2143 = PatternSpec(PATTERN_2143, EVEN_FIXED_BETWEEN)

# Bit k of a containment mask says that pi contains SPECS[k].  The first SINGULAR
# force singularity; plain 2143 and 1324 complete the smoothness conjecture.
SPECS = BAD_PATTERNS + (QUALIFIED_2143, PatternSpec(PATTERN_2143), PatternSpec(PATTERN_1324))
SINGULAR = len(BAD_PATTERNS) + 1
QUALIFIED_BIT = 1 << SPECS.index(QUALIFIED_2143)
_OWN_BIT = {spec.pattern: 1 << k for k, spec in enumerate(SPECS) if not spec.qualifier}


def bad_patterns() -> list[PatternSpec]:
    """The 24 unqualified singularity-forcing patterns."""
    return list(BAD_PATTERNS)


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
            induced = standardize(tuple(pi[i - 1] for i in idx))
            if induced != pat:
                continue
            between = 0
            if pat == PATTERN_2143:
                lo, hi = idx[1], idx[2]
                between = sum(1 for k in fixed if lo < k < hi)
                if spec.qualifier == EVEN_FIXED_BETWEEN and between % 2:
                    continue
            hits.append(PatternHit(indices=idx, induced=induced, fixed_between=between))
    hits.sort(key=lambda h: h.indices)
    return hits


def contains(pi: Perm, spec: PatternSpec) -> bool:
    return bool(occurrences(pi, spec))


def pattern_mask(pi: Perm) -> int:
    """The containment mask of one involution, by scanning occurrences."""
    return sum(1 << k for k, spec in enumerate(SPECS) if contains(pi, spec))


def contains_qualified_2143(pi: Perm) -> bool:
    """2143 with an even number of fixed points strictly between the pairs."""
    fixed_upto = list(accumulate((v == i for i, v in enumerate(pi, start=1)), initial=0))
    cycles = [(i, v) for i, v in enumerate(pi, start=1) if v > i]
    # two 2-cycles (a, b), (c, d) form a 2143 exactly when b < c
    between = (fixed_upto[c - 1] - fixed_upto[b] for _, b in cycles for c, _ in cycles if b < c)
    return any(count % 2 == 0 for count in between)


def pattern_masks(invs: list[Perm]) -> list[int]:
    """Containment masks of the given involutions, in the order given.

    An occurrence in pi misses an orbit of pi and survives its deletion; one in
    pi minus an orbit lifts back to pi.  So mask(pi) = own bit | the masks of pi
    minus each orbit, memoised over the deletion closure of invs only.
    Deleting a fixed point flips the parity of the qualified 2143, so that bit
    is tested directly instead.
    """
    memo: dict[Perm, int] = {(): 0}
    return [_deletion_mask(pi, memo) | QUALIFIED_BIT * contains_qualified_2143(pi) for pi in invs]


def _deletion_mask(pi: Perm, memo: dict[Perm, int]) -> int:
    # A module-level function: a recursive closure would hold memo in a
    # reference cycle past the call.
    bits = _OWN_BIT.get(pi, 0)
    for i, v in enumerate(pi, start=1):
        if v >= i:  # delete the orbit {i, v}, relabelling the rest
            child = tuple(w - (w > i) - (w > v > i) for w in pi if w != i and w != v)
            got = memo.get(child)
            bits |= _deletion_mask(child, memo) if got is None else got
    memo[pi] = bits
    return bits


def pattern_singular(pi: Perm) -> tuple[bool, list[tuple[PatternSpec, PatternHit]]]:
    """Singularity by pattern containment, with one witness per matching pattern.

    True iff pi contains one of the 24 bad patterns, or contains 2143 with an
    even number of fixed points between the pairs.
    """
    certificates = [(spec, hits[0]) for spec in SPECS[:SINGULAR] if (hits := occurrences(pi, spec))]
    return bool(certificates), certificates


def conjectured_rationally_smooth(pi: Perm) -> bool:
    """Avoidance of every singularity-forcing pattern (sufficiency is open)."""
    return not pattern_singular(pi)[0]


def conjectured_smooth(pi: Perm) -> bool:
    """Avoids the 24 bad patterns, plain 2143, and 1324 (open in general)."""
    return not pattern_mask(pi)
