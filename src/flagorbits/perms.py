"""Permutations and involutions in 1-based one-line notation.

A permutation of {1..m} is stored as a tuple of its values, so ``p[i-1]``
is the image of position ``i``.  All operations are pure; tuples are never
mutated.
"""

from __future__ import annotations

from typing import Iterable

from .errors import MalformedInput, PositionOutOfRange, SizeMismatch

Perm = tuple[int, ...]
# A transposition is an ordered pair (a, b) of positions with a < b.
Transposition = tuple[int, int]


def validate_perm(entries: Iterable[int]) -> Perm:
    """Check that the entries are a bijection of {1..m} and return a tuple."""
    p = tuple(int(x) for x in entries)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise MalformedInput(f"not a permutation of 1..{len(p)}: {p}")
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
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def identity(m: int) -> Perm:
    return tuple(range(1, m + 1))


def w0(m: int) -> Perm:
    """The order-reversing involution m, m-1, ..., 1."""
    if m < 1:
        raise MalformedInput(f"w0 needs m >= 1, got {m}")
    return tuple(range(m, 0, -1))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p, start=1):
        out[v - 1] = i
    return tuple(out)


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    if len(p) != len(q):
        raise SizeMismatch(f"sizes {len(p)} and {len(q)}")
    return tuple(p[v - 1] for v in q)


def is_involution(p: Perm) -> bool:
    return all(p[v - 1] == i for i, v in enumerate(p, start=1))


def transposition(a: int, b: int, m: int) -> Perm:
    """The transposition (a b) as an element of S_m."""
    if not (1 <= a < b <= m):
        raise PositionOutOfRange(f"need 1 <= a < b <= {m}, got ({a}, {b})")
    out = list(range(1, m + 1))
    out[a - 1], out[b - 1] = b, a
    return tuple(out)


def conjugate(mu: Perm, t: Transposition) -> Perm:
    """t mu t for a transposition t = (a, b); always an involution when mu is."""
    a, b = t
    m = len(mu)
    if not (1 <= a < b <= m):
        raise SizeMismatch(f"transposition ({a}, {b}) does not fit size {m}")
    lst = list(mu)
    lst[a - 1], lst[b - 1] = lst[b - 1], lst[a - 1]
    return tuple(b if v == a else a if v == b else v for v in lst)


def left_multiply(t: Transposition, mu: Perm) -> Perm:
    """compose(t, mu): swap the values a and b in mu."""
    a, b = t
    return tuple(b if v == a else a if v == b else v for v in mu)


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


def delete_position(sigma: Perm, pos: int) -> Perm:
    """Remove the fixed point at pos; inverse of insert_fixed_point."""
    m = len(sigma)
    if not (1 <= pos <= m):
        raise PositionOutOfRange(f"need 1 <= pos <= {m}, got {pos}")
    if sigma[pos - 1] != pos:
        raise MalformedInput(f"position {pos} is not fixed by {sigma}")
    out = []
    for i in range(1, m + 1):
        if i == pos:
            continue
        v = sigma[i - 1]
        out.append(v if v < pos else v - 1)
    return tuple(out)


def involution_count(m: int) -> int:
    """I(m) = I(m-1) + (m-1) I(m-2)."""
    a, b = 1, 1  # I(0), I(1)
    if m <= 1:
        return 1
    for k in range(2, m + 1):
        a, b = b, b + (k - 1) * a
    return b


def _involutions(m: int, fixes: int) -> list[Perm]:
    """Involutions of S_m with at most `fixes` fixed points, in lexicographic
    one-line order."""
    if m < 0:
        raise MalformedInput(f"involutions need m >= 0, got {m}")
    out: list[Perm] = []
    _fill([0] * m, 0, fixes, out)
    return out


def _fill(entry: list[int], pos: int, fixes_left: int, out: list[Perm]) -> None:
    # Fix the first free position (budget allowing), then pair it with each
    # later free position in turn.  A module-level function: a recursive
    # closure would hold out in a reference cycle past the call.
    m = len(entry)
    while pos < m and entry[pos]:
        pos += 1
    if pos == m:
        out.append(tuple(entry))
        return
    i = pos + 1
    if fixes_left:
        entry[pos] = i
        _fill(entry, pos + 1, fixes_left - 1, out)
        entry[pos] = 0
    for j in range(i + 1, m + 1):
        if entry[j - 1] == 0:
            entry[pos] = j
            entry[j - 1] = i
            _fill(entry, pos + 1, fixes_left, out)
            entry[pos] = entry[j - 1] = 0


def enumerate_involutions(m: int) -> list[Perm]:
    """All involutions of S_m in lexicographic one-line order."""
    return _involutions(m, m)


def w0_class(m: int) -> list[Perm]:
    """Involutions with the cycle type of w0: floor(m/2) two-cycles.

    Lexicographic order on one-line notation.  The number of fixed points has
    the parity of m, so a budget of m % 2 leaves exactly m % 2 of them.
    """
    if m < 1:
        raise MalformedInput(f"w0_class needs m >= 1, got {m}")
    return _involutions(m, m % 2)


def all_transpositions(m: int) -> list[Transposition]:
    return [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
