"""The graph structure on involution intervals.

Two involutions mu, nu are adjacent iff nu = t mu t != mu for some
transposition t, or (only when m is even) nu = t mu for some t commuting
with mu.  Degrees are counted over distinct vertices, not transpositions:
t and its mirror can produce the same conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import NotInInterval, TooLarge
from .perms import (
    Perm,
    Transposition,
    all_transpositions,
    conjugate,
    format_perm,
    left_multiply,
    w0,
    w0_class,
)
from .bruhat import Interval, bruhat_leq

DOT_VERTEX_GUARD = 5000


@dataclass(frozen=True)
class NeighborSet:
    center: Perm
    neighbors: frozenset[Perm]


def edges(mu: Perm) -> Iterator[tuple[Transposition, Perm]]:
    """The edges at mu as (t, nu), one per transposition t, in transposition order.

    nu = t mu t when that differs from mu, else t mu when m is even; for odd m
    a transposition commuting with mu gives no edge.  Never nu = mu.
    """
    m = len(mu)
    for t in all_transpositions(m):
        nu = conjugate(mu, t)
        if nu != mu:
            yield t, nu
        elif m % 2 == 0:
            yield t, left_multiply(t, mu)


def neighbors(mu: Perm) -> NeighborSet:
    """All distinct vertices adjacent to mu."""
    return NeighborSet(center=mu, neighbors=frozenset(nu for _, nu in edges(mu)))


def degree_in(v: Perm, iv: Interval) -> int:
    """Number of neighbors of v lying in the interval."""
    if v not in iv.members:
        raise NotInInterval(f"{format_perm(v)} not in interval of {format_perm(iv.base)}")
    return len(neighbors(v).neighbors & iv.members)


def w0_degree(pi: Perm) -> int:
    """Degree of the bottom vertex w0 in I_pi.

    Counts neighbors u of w0 with pi <= u; avoids building the interval.
    """
    m = len(pi)
    return sum(1 for u in neighbors(w0(m)).neighbors if bruhat_leq(pi, u))


def conjugate_degrees(pi: Perm) -> dict[Perm, int]:
    """Degree in I_pi of every w0-conjugate lying in I_pi."""
    m = len(pi)
    out: dict[Perm, int] = {}
    for c in w0_class(m):
        if bruhat_leq(pi, c):
            out[c] = sum(1 for u in neighbors(c).neighbors if bruhat_leq(pi, u))
    return out


def export_dot(iv: Interval) -> str:
    """DOT text for the interval graph; deterministic node and edge order."""
    if len(iv) > DOT_VERTEX_GUARD:
        raise TooLarge(f"interval has {len(iv)} vertices, guard is {DOT_VERTEX_GUARD}")
    nodes = iv.sorted_members()
    edges: set[tuple[Perm, Perm]] = set()
    for v in nodes:
        for u in neighbors(v).neighbors & iv.members:
            edges.add((min(u, v), max(u, v)))
    lines = ["graph interval {"]
    for v in nodes:
        lines.append(f'  "{format_perm(v)}";')
    for u, v in sorted(edges):
        lines.append(f'  "{format_perm(u)}" -- "{format_perm(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
