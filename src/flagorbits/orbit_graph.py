"""The graph structure on involution intervals.

Two involutions mu, nu are adjacent iff nu = t mu t != mu for some
transposition t, or (only when m is even) nu = t mu for some t commuting
with mu.  Degrees are counted over distinct vertices, not transpositions:
t and its mirror can produce the same conjugate.

`edge_rows` holds the edge rule for an array of one-line rows, and only
`neighbor_keys` reads it, for each row's distinct neighbours as `row_keys`.
`neighbors` reads those for one involution, `w0_neighbors` once per size on
w0's row (for `w0_degree`, `sweep` and the slice geometry), `class_graph` once
per size on the w0-class (for `conjugate_degrees` and `sweep`), and `export_dot`
once per interval.  The degrees compare with `bruhat.above`.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import MalformedInput, TooLarge
from .perms import CHUNK_ROWS, Perm, all_transpositions, format_perm, guard_size
from .perms import key_rows, row_keys, validate_involution, w0, w0_class_rows
from .bruhat import above
from .bruhat import bruhat_leq  # noqa: F401  (bench/tracer.py patches it here)

DOT_VERTEX_GUARD = 5000


@dataclass(frozen=True)
class NeighborSet:
    center: Perm
    neighbors: frozenset[Perm]


def neighbors(mu: Perm) -> NeighborSet:
    """All distinct vertices adjacent to mu, from its `neighbor_keys`.  A
    non-involution raises MalformedInput, and m >= 16 TooLarge."""
    mu = validate_involution(mu)
    keys = neighbor_keys(np.array([mu], dtype=np.int8))[0]
    rows = key_rows(keys[keys >= 0], len(mu)).tolist()
    return NeighborSet(center=mu, neighbors=frozenset(map(tuple, rows)))


def edge_rows(rows: np.ndarray) -> np.ndarray:
    """The edge rule for every row of a (K, m) int8 array of involutions.

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


def neighbor_keys(rows: np.ndarray) -> np.ndarray:
    """Each row's distinct neighbours, for a (K, m) int8 array of involutions, as
    (K, T) int64 `row_keys`: ascending, -1 elsewhere.  The key limit fires first."""
    own = row_keys(rows)
    keys = row_keys(edge_rows(rows))
    keys[keys == own[:, None]] = -1  # t gives no edge
    keys.sort(axis=1)
    keys[:, 1:][keys[:, 1:] == keys[:, :-1]] = -1  # each vertex once
    return keys


@cache
def class_graph(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The graph at the w0-class of S_m, built once per size, as read-only
    arrays: rows (C, m) int8, the class in `w0_class_rows` order; inner (C, D)
    int16, the distinct class neighbours of rows[k] as ascending indices into
    rows; outer (C, H, m) int8, its distinct neighbours outside the class.
    The `neighbor_keys` are built CHUNK_ROWS class members at a time.

    The graph is regular, D = m(m-2)/4 and H = m/2 for even m, D = (m^2-1)/4
    and H = 0 for odd m, and the arrays are reshaped on that assumption.
    """
    guard_size(m, "class graph")
    rows = w0_class_rows(m)
    own = row_keys(rows)  # ascending, as the rows are lexicographic
    inner, outer = [], []
    for s in range(0, len(rows), CHUNK_ROWS):
        found = neighbor_keys(rows[s : s + CHUNK_ROWS])
        at = np.searchsorted(own, found).clip(max=len(own) - 1)
        cls = own[at] == found
        inner.append(at[cls].reshape(len(found), -1).astype(np.int16))
        outer.append(key_rows(found[~cls & (found >= 0)].reshape(len(found), -1), m))
    graph = rows, np.concatenate(inner), np.concatenate(outer)
    for a in graph:
        a.flags.writeable = False
    return graph


def conjugate_degrees(pi: Perm) -> dict[Perm, int]:
    """Degree in I_pi of every w0-conjugate lying in I_pi, in lexicographic
    order of the conjugates.

    `above` marks the class members above pi; a member's degree counts its
    `class_graph` neighbours among them, plus its outside neighbours above pi.
    """
    pi = validate_involution(pi)
    m = len(pi)
    rows, inner, outer = class_graph(m)
    ok = above(pi, rows)
    hit = np.flatnonzero(ok)
    degs = ok[inner[hit]].sum(axis=1)
    degs += above(pi, outer[hit].reshape(-1, m)).reshape(len(hit), -1).sum(axis=1)
    return dict(zip(map(tuple, rows[hit].tolist()), degs.tolist()))


@cache
def w0_neighbors(m: int) -> np.ndarray:
    """The distinct neighbours of w0(m), sorted, as a read-only (N, m) int8 array
    for `w0_degree`, `sweep` and the slice geometry: the rows of w0's `neighbor_keys`."""
    keys = neighbor_keys(np.array([w0(m)], dtype=np.int8))[0]
    rows = key_rows(keys[keys >= 0], m)
    rows.flags.writeable = False
    return rows


def w0_degree(pi: Perm) -> int:
    """Degree of the bottom vertex w0 in I_pi: the number of `w0_neighbors`
    above pi, by `above`.  m > SIZE_GUARD raises TooLarge."""
    pi = validate_involution(pi)
    guard_size(len(pi), "w0 degree")
    return int(above(pi, w0_neighbors(len(pi))).sum())


def export_dot(iv: frozenset[Perm]) -> str:
    """DOT text, in a fixed order, for the interval graph on involutions of one size m >= 1."""
    if not isinstance(iv, Collection):
        raise MalformedInput(f"a DOT graph needs a collection of involutions, got {iv!r}")
    if len(iv) > DOT_VERTEX_GUARD:
        raise TooLarge(f"interval has {len(iv)} vertices, guard is {DOT_VERTEX_GUARD}")
    nodes = sorted(map(validate_involution, iv))
    if not nodes or len(set(map(len, nodes))) > 1:
        raise MalformedInput("a DOT graph needs one or more involutions of one size")
    rows = np.array(nodes, dtype=np.int8)
    own = row_keys(rows)  # ascending, as the nodes are sorted
    keys = neighbor_keys(rows)
    at = np.searchsorted(own, keys).clip(max=len(own) - 1)
    u, t = np.nonzero((own[at] == keys) & (at > np.arange(len(nodes))[:, None]))  # each edge once
    names = list(map(format_perm, nodes))
    lines = ["graph interval {"] + [f'  "{name}";' for name in names]
    lines += [f'  "{names[i]}" -- "{names[j]}";' for i, j in zip(u.tolist(), at[u, t].tolist())]
    return "\n".join(lines + ["}"]) + "\n"
