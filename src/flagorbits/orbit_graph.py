"""The graph structure on involution intervals.

Two involutions mu, nu are adjacent iff nu = t mu t != mu for some
transposition t, or (only when m is even) nu = t mu for some t commuting
with mu.  Degrees are counted over distinct vertices, not transpositions:
t and its mirror can produce the same conjugate.

`edge_rows` holds the edge rule, for an array of one-line rows at once;
`edges` reads it for one involution, and `neighbors`, `degree_in` and
`export_dot` read `edges`.  `class_rows` builds the w0-class once per size.
The degrees compare with `bruhat.above`, one involution pi against many
rows: `conjugate_degrees` at the class members above pi, `w0_degree` at the
neighbours of w0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator

import numpy as np

from .errors import NotInInterval, TooLarge
from .perms import Perm, Transposition, all_transpositions, format_perm, w0, w0_class
from .bruhat import Interval, above
from .bruhat import bruhat_leq  # noqa: F401  (bench/tracer.py patches it here)

DOT_VERTEX_GUARD = 5000
# Neighbour rows conjugate_degrees holds at once.
EDGE_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class NeighborSet:
    center: Perm
    neighbors: frozenset[Perm]


def edges(mu: Perm) -> Iterator[tuple[Transposition, Perm]]:
    """The edges at mu as (t, nu), one per transposition t, in transposition order.

    nu = t mu t when that differs from mu, else t mu when m is even; for odd m
    a transposition commuting with mu gives no edge.  Never nu = mu.  The
    rule is `edge_rows` on the single row mu.
    """
    m = len(mu)
    rows = edge_rows(np.array(mu, dtype=np.int8).reshape(1, m))[0].tolist()
    for t, nu in zip(all_transpositions(m), map(tuple, rows)):
        if nu != mu:
            yield t, nu


def neighbors(mu: Perm) -> NeighborSet:
    """All distinct vertices adjacent to mu."""
    return NeighborSet(center=mu, neighbors=frozenset(nu for _, nu in edges(mu)))


def degree_in(v: Perm, iv: Interval) -> int:
    """Number of neighbors of v lying in the interval."""
    if v not in iv.members:
        raise NotInInterval(f"{format_perm(v)} not in interval of {format_perm(iv.base)}")
    return len(neighbors(v).neighbors & iv.members)


def edge_rows(rows: np.ndarray) -> np.ndarray:
    """The rule of `edges` for every row of a (K, m) int8 array of involutions.

    Returns (K, T, m): out[k, s] is the neighbour of mu = rows[k] along the
    s-th transposition t = (a, b), that is t mu t, else t mu when that leaves
    mu unchanged and m is even.  Where t gives no edge (odd m) out[k, s] is
    mu itself.  t mu t pairs a with t(mu(b)) and b with t(mu(a)) and agrees
    with mu elsewhere, so each row changes in at most four places.
    """
    m = rows.shape[1]
    a, b = np.array(all_transpositions(m), dtype=np.int8).reshape(-1, 2).T
    out = np.repeat(rows[:, None, :], len(a), axis=1)
    flat = out.reshape(-1)
    at = np.arange(out.shape[0] * out.shape[1]).reshape(out.shape[:2]) * m
    mu_a, mu_b = rows[:, a - 1], rows[:, b - 1]
    ta, tb = (np.where(v == a, b, np.where(v == b, a, v)) for v in (mu_b, mu_a))
    flat[at + a - 1] = ta
    flat[at + b - 1] = tb
    flat[at + ta - 1] = a
    flat[at + tb - 1] = b
    if m % 2 == 0:
        same = ta == mu_a  # t commutes with mu: left-multiply instead
        flat[at[same] + mu_a[same] - 1] = np.broadcast_to(b, same.shape)[same]
        flat[at[same] + mu_b[same] - 1] = np.broadcast_to(a, same.shape)[same]
    return out


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per one-line row (last axis): its base-(m+1) digits, most
    significant first, so keys sort as the rows do lexicographically."""
    m = rows.shape[-1]
    keys = np.zeros(rows.shape[:-1], dtype=np.int64)
    for k in range(m):
        keys = keys * (m + 1) + rows[..., k]
    return keys


def edge_keys(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`edge_rows` and their (K, T) keys, with -1 where t gives no edge."""
    nbr = edge_rows(rows)
    keys = row_keys(nbr)
    keys[keys == row_keys(rows)[:, None]] = -1
    return nbr, keys


def distinct_keys(keys: np.ndarray) -> np.ndarray:
    """Sort each row of (K, T) neighbour keys and blank repeats with -1, so
    that each row holds each distinct vertex once; -1 entries stay -1."""
    keys = np.sort(keys, axis=1)
    keys[:, 1:][keys[:, 1:] == keys[:, :-1]] = -1
    return keys


@cache
def class_rows(m: int) -> np.ndarray:
    """The w0-class of S_m as one read-only (C, m) int8 array, in the
    lexicographic order of `w0_class`; built once per size."""
    rows = np.array(w0_class(m), dtype=np.int8).reshape(-1, m)
    rows.flags.writeable = False
    return rows


def conjugate_degrees(pi: Perm) -> dict[Perm, int]:
    """Degree in I_pi of every w0-conjugate lying in I_pi, in lexicographic
    order of the conjugates.

    The class members above pi are found with `above`; then the neighbour
    rows of those members, EDGE_CHUNK_ROWS at a time, are compared against pi
    and counted as distinct vertices by their keys.
    """
    m = len(pi)
    rows = class_rows(m)
    hit = np.flatnonzero(above(pi, rows))
    step = max(1, EDGE_CHUNK_ROWS // max(1, m * (m - 1) // 2))
    out: dict[Perm, int] = {}
    for s in range(0, len(hit), step):
        part = rows[hit[s : s + step]]
        nbr, keys = edge_keys(part)
        # compare each distinct neighbour of the chunk once
        _, first, back = np.unique(keys, return_index=True, return_inverse=True)
        ok = above(pi, nbr.reshape(-1, m)[first])[back]
        keys[~ok.reshape(keys.shape)] = -1
        degs = (distinct_keys(keys) >= 0).sum(axis=1)
        out.update(zip(map(tuple, part.tolist()), degs.tolist()))
    return out


def w0_degree(pi: Perm) -> int:
    """Degree of the bottom vertex w0 in I_pi: the number of distinct
    neighbours of w0 above pi, by `above`."""
    m = len(pi)
    top = np.array(list(neighbors(w0(m)).neighbors), dtype=np.int8).reshape(-1, m)
    return int(above(pi, top).sum())


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
