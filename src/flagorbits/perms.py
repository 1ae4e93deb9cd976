"""Permutations and involutions in 1-based one-line notation.

A permutation of {1..m} is stored as a tuple of its values, so ``p[i-1]``
is the image of position ``i``; `involution_rows` holds many as the rows of
an int8 array.  All operations are pure; tuples are never mutated.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import MalformedInput, PositionOutOfRange, TooLarge

Perm = tuple[int, ...]
# A transposition is an ordered pair (a, b) of positions with a < b.
Transposition = tuple[int, int]

# The largest m whose involutions sweep, classify, interval, enumerate_involutions
# and w0_class enumerate (140,152 involutions at m = 12).
SIZE_GUARD = 12
# Rows, vertices or class members that a chunked loop handles at once.
CHUNK_ROWS = 1024


def guard_size(m: int, what: str) -> None:
    """Raise TooLarge for m above SIZE_GUARD, before any work is done."""
    if m > SIZE_GUARD:
        raise TooLarge(f"{what} guard is m <= {SIZE_GUARD}, got {m}")


def validate_size(m: int, what: str) -> int:
    """The one size rule: m is an int, not a bool, with m >= 1; MalformedInput otherwise."""
    if type(m) is not int or m < 1:
        raise MalformedInput(f"{what} needs m >= 1, got {m!r}")
    return m


def _int_entries(entries: Iterable[int]) -> Perm:
    """The entries as a tuple, each an int (a bool, float or str is not);
    MalformedInput otherwise, a non-iterable included.  Nothing is coerced."""
    try:
        p = tuple(entries)
    except TypeError:
        raise MalformedInput(f"not a sequence of entries: {entries!r}") from None
    if not all(type(x) is int for x in p):
        raise MalformedInput(f"entries must be ints: {p!r}")
    return p


def validate_perm(entries: Iterable[int]) -> Perm:
    """Check that the entries are ints forming a bijection of {1..m}, m >= 1,
    and return them as a tuple."""
    p = _int_entries(entries)
    if not p or sorted(p) != list(range(1, len(p) + 1)):
        raise MalformedInput(f"not a permutation of 1..{len(p)}: {p}")
    return p


def validate_involution(entries: Iterable[int]) -> Perm:
    """`validate_perm`'s entry rule, then check that the entries are an
    involution of m >= 1 (pi(pi(i)) = i makes pi a bijection)."""
    p = _int_entries(entries)
    if not p or not is_involution(p):
        raise MalformedInput(f"not an involution of m >= 1: {format_perm(p) or '()'}")
    return p


def parse_perm(text: str) -> Perm:
    """Parse one-line notation.

    A contiguous digit string is read digit by digit (sound only for m <= 9);
    the comma-separated form works for any size.

    >>> parse_perm("21435")
    (2, 1, 4, 3, 5)
    >>> parse_perm("10,2,3,4,5,6,7,8,9,1")[0]
    10
    """
    if type(text) is not str:
        raise MalformedInput(f"permutation text must be a str, got {text!r}")
    text = text.strip()
    if not text:
        raise MalformedInput("empty permutation text")
    parts = text.split(",") if "," in text else list(text)
    try:
        entries = [int(s) for s in parts]
    except ValueError:
        raise MalformedInput(f"non-numeric permutation text: {text!r}") from None
    return validate_perm(entries)


def format_perm(p: Perm) -> str:
    """Canonical text form: digit string for m <= 9, comma-separated above."""
    return ("" if len(p) <= 9 else ",").join(map(str, p))


def identity(m: int) -> Perm:
    return tuple(range(1, m + 1))


def w0(m: int) -> Perm:
    """The order-reversing involution m, m-1, ..., 1."""
    return tuple(range(validate_size(m, "w0"), 0, -1))


def is_involution(p: Perm) -> bool:
    """p(p(i)) = i for every i; False for entries outside 1..m."""
    return all(0 < v <= len(p) and p[v - 1] == i for i, v in enumerate(p, start=1))


def fixed_points(pi: Perm) -> tuple[int, ...]:
    """Sorted positions with pi(i) = i."""
    return tuple(i for i, v in enumerate(pi, start=1) if v == i)


def two_cycles(pi: Perm) -> tuple[Transposition, ...]:
    """Sorted pairs (a, b), a < b, swapped by the involution pi."""
    return tuple((i, v) for i, v in enumerate(pi, start=1) if v > i)


def insert_fixed_point(pi: Perm, pos: int) -> Perm:
    """Add a fixed point at position pos, shifting larger indices and values up.

    >>> insert_fixed_point((2, 1, 4, 3), 5)
    (2, 1, 4, 3, 5)
    >>> insert_fixed_point((2, 1, 4, 3), 3)
    (2, 1, 3, 5, 4)
    """
    m = len(pi)
    if not (1 <= pos <= m + 1):
        raise PositionOutOfRange(f"need 1 <= pos <= {m + 1}, got {pos}")
    out = []
    for i in range(1, m + 2):
        if i == pos:
            out.append(pos)
        else:
            v = pi[(i if i < pos else i - 1) - 1]
            out.append(v if v < pos else v + 1)
    return tuple(out)


def involution_count(m: int) -> int:
    """I(m) = I(m-1) + (m-1) I(m-2)."""
    a, b = 1, 1  # I(0), I(1)
    if m <= 1:
        return 1
    for k in range(2, m + 1):
        a, b = b, b + (k - 1) * a
    return b


def involution_rows(m: int) -> np.ndarray:
    """All involutions of S_m as an (I(m), m) int8 array, one per row, in
    lexicographic one-line order.

    Built by the recurrence of `involution_count`: the rows with pi(1) = 1 are
    S_{m-1} shifted up by one, and for j = 2..m the rows with pi(1) = j and
    pi(j) = 1 carry S_{m-2} on the other positions and values.  Relabelling
    keeps order, so each block is lexicographic and the blocks come in order
    of pi(1).  Each level reads only the two before it.
    """
    older = old = np.zeros((1, 0), dtype=np.int8)  # size 0; older is unread at k = 1
    for k in range(1, m + 1):
        blocks = [np.insert(old + 1, 0, 1, axis=1)]
        for j in range(2, k + 1):
            rest = np.insert(older + 1 + (older >= j - 1), j - 2, 1, axis=1)
            blocks.append(np.insert(rest, 0, j, axis=1))
        older, old = old, np.concatenate(blocks)
    return old


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per one-line row (last axis): its base-(m+1) digits, most
    significant first, so keys sort as the rows do lexicographically.  Keys are
    below (m+1)^m, past int64 from m = 16, so those widths raise TooLarge first."""
    m = rows.shape[-1]
    if (m + 1) ** m > np.iinfo(np.int64).max:
        raise TooLarge(f"row keys overflow int64 at m = {m}; they hold m <= 15")
    keys = np.zeros(rows.shape[:-1], dtype=np.int64)
    for k in range(m):
        keys = keys * (m + 1) + rows[..., k]
    return keys


def key_rows(keys: np.ndarray, m: int) -> np.ndarray:
    """The inverse of `row_keys`: int8 one-line rows of width m, on a new last axis."""
    return (keys[..., None] // (m + 1) ** np.arange(m - 1, -1, -1) % (m + 1)).astype(np.int8)


def enumerate_involutions(m: int) -> list[Perm]:
    """All involutions of S_m, 1 <= m <= SIZE_GUARD, in lexicographic one-line order."""
    guard_size(validate_size(m, "enumerate_involutions"), "enumerate_involutions")
    return [tuple(row.tolist()) for row in involution_rows(m)]


def w0_class_rows(m: int) -> np.ndarray:
    """Involutions with the cycle type of w0, floor(m/2) two-cycles, as the
    rows of an int8 array in lexicographic one-line order: the rows of
    `involution_rows(m)` with m mod 2 fixed points.
    """
    rows = involution_rows(m)
    return rows[(rows == np.arange(1, m + 1)).sum(axis=1) == m % 2]


def w0_class(m: int) -> list[Perm]:
    """The rows of `w0_class_rows` as tuples, 1 <= m <= SIZE_GUARD."""
    guard_size(validate_size(m, "w0_class"), "w0_class")
    return [tuple(row.tolist()) for row in w0_class_rows(m)]


def all_transpositions(m: int) -> list[Transposition]:
    return [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
