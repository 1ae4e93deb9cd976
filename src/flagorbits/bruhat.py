"""Bruhat order, the rank grading on involutions, and interval computation.

The comparison used everywhere is the sorted-prefix criterion: u <= v iff
for every prefix length i, sorting the first i entries of each increasingly
gives u'_j <= v'_j for all j.  Orbit-closure containment corresponds to the
reverse of this order, so the interval below pi consists of the involutions
Bruhat-above pi.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .errors import SizeMismatch
from .perms import Perm, enumerate_involutions


def prefix_violation(u: Perm, v: Perm) -> tuple[int, int] | None:
    """The first failure of the sorted-prefix test for u <= v in Bruhat order.

    Returns the least prefix length i, then the least j, with
    sorted(u[:i])[j-1] > sorted(v[:i])[j-1]; None when u <= v.
    """
    if len(u) != len(v):
        raise SizeMismatch(f"sizes {len(u)} and {len(v)}")
    su: list[int] = []
    sv: list[int] = []
    for i, (a, b) in enumerate(zip(u, v), start=1):
        insort(su, a)
        insort(sv, b)
        for j, (x, y) in enumerate(zip(su, sv), start=1):
            if x > y:
                return i, j
    return None


def bruhat_leq(u: Perm, v: Perm) -> bool:
    """Sorted-prefix test for u <= v in Bruhat order."""
    return prefix_violation(u, v) is None


def dominance(p: Perm) -> tuple[int, ...]:
    """Flattened table d[i][j] = #{k <= i : p(k) <= j}, 0-based row-major.

    u <= v in Bruhat order iff dominance(u) >= dominance(v) entrywise
    (smaller elements accumulate small values earlier); the vectorizable
    form of the sorted-prefix test.
    """
    m = len(p)
    flat: list[int] = []
    row = [0] * m
    for i in range(m):
        for j in range(p[i] - 1, m):
            row[j] += 1
        flat.extend(row)
    return tuple(flat)


def max_rank(m: int) -> int:
    """floor(m^2 / 4), the rank of the identity (open orbit)."""
    return m * m // 4


def rank(pi: Perm) -> int:
    """Grading of the involution pi: distance above the closed orbit."""
    m = len(pi)
    drop = 0
    for i in range(1, m + 1):
        j = pi[i - 1]
        if i < j:
            crossings = sum(1 for k in range(i + 1, j) if pi[k - 1] < i)
            drop += j - i - crossings
    return max_rank(m) - drop


def codim(pi: Perm) -> int:
    """Codimension of the orbit of pi: floor(m^2/4) - rank(pi)."""
    return max_rank(len(pi)) - rank(pi)


@dataclass(frozen=True)
class Interval:
    """The involutions weakly above base in Bruhat order."""

    base: Perm
    m: int
    members: frozenset[Perm]

    def __contains__(self, v: Perm) -> bool:
        return v in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[Perm]:
        return sorted(self.members)


def interval(pi: Perm) -> Interval:
    """I_pi: all involutions v with pi <= v, by filtering the enumeration."""
    m = len(pi)
    dom_pi = dominance(pi)
    members = frozenset(
        v
        for v in enumerate_involutions(m)
        if all(a >= b for a, b in zip(dom_pi, dominance(v)))
    )
    return Interval(base=pi, m=m, members=members)
