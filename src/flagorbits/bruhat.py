"""Bruhat order, the rank grading on involutions, and interval computation.

The scalar comparison is the sorted-prefix criterion: u <= v iff for every
prefix length i, sorting the first i entries of each increasingly gives
u'_j <= v'_j for all j.  Its vectorized form is Fulton's rank-table
criterion on many involutions at once: u <= v iff u's table
d[i][j] = #{k <= i : u(k) <= j} is entrywise >= v's.  Orbit-closure
containment corresponds to the reverse of this order, so the interval
below pi consists of the involutions Bruhat-above pi.

The grading is floor(m^2/4) minus Incitti's rank of the involution poset,
(inv(pi) + #{i : pi(i) > i}) / 2 (J. Algebraic Combin. 20, 2004), read by
`ranks` off a whole array of involutions at once.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from .errors import SizeMismatch
from .perms import CHUNK_ROWS, Perm, guard_size, involution_rows, validate_involution


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


def dominance_table(rows: np.ndarray, entries: np.ndarray | None = None) -> np.ndarray:
    """Reduced dominance tables of involutions, entry-major, shape (entries, K).

    rows is a (K, m) int8 array of one-line involutions.  Column k is the
    table of rows[k], and its row e holds d[i][j] (0-based) for the e-th pair
    i <= j <= m-2 of np.triu_indices(m - 1).  The table of an involution is
    symmetric and its last row and column are constant, so these m(m-1)/2
    entries decide comparisons between involutions.  `entries` selects a
    subset of the rows e, all of them by default.  The table is filled
    CHUNK_ROWS columns at a time, so the comparison indicators behind it stay
    small.
    """
    m = rows.shape[1]
    i, j = np.triu_indices(max(m - 1, 0))
    if entries is not None:
        i, j = i[entries], j[entries]
    out = np.empty((len(i), len(rows)), dtype=np.int8)
    if not len(i):
        return out
    cols, jpos = np.unique(j, return_inverse=True)
    top = int(i.max()) + 1
    prefix = np.ascontiguousarray(rows[:, :top].T)
    bounds = (cols + 1).astype(np.int8)[None, :, None]
    for s in range(0, len(rows), CHUNK_ROWS):
        hits = prefix[:, None, s : s + CHUNK_ROWS] <= bounds
        out[:, s : s + CHUNK_ROWS] = np.cumsum(hits, axis=0, dtype=np.int8)[i, jpos]
    return out


def above(pi: Perm, rows: np.ndarray) -> np.ndarray:
    """mask[k] = pi <= rows[k] in Bruhat order, for a (K, m) int8 array of
    involutions.

    Compares only the entries where pi's table is below its cap i + 1: no
    involution exceeds the cap, so the other entries hold for every row.
    """
    col = dominance_table(np.array([pi], dtype=np.int8))[:, 0]
    i, _ = np.triu_indices(max(len(pi) - 1, 0))
    live = np.flatnonzero(col <= i)
    return (dominance_table(rows, live) <= col[live, None]).all(axis=0)


def threshold_bits(rows: np.ndarray) -> np.ndarray:
    """bits[e, t, w]: word w of (table[e] >= t) for the `dominance_table` of
    a (K, m) int8 array of involutions and each value t in 0..m-1 an entry
    can take.  Row k is bit k of the uint8 view in np.packbits order, so
    `np.unpackbits` of that view lists the rows in order; bits past K are 0."""
    m = rows.shape[1]
    table = dominance_table(rows)
    bits = np.zeros((len(table), m, -(-len(rows) // 64) * 8), dtype=np.uint8)
    for t in range(m):  # one (entries, K) comparison at a time, not (entries, m, K)
        bits[:, t, : -(-len(rows) // 8)] = np.packbits(table >= t, axis=1)
    return bits.view(np.uint64)


def essential_entries(rows: np.ndarray) -> np.ndarray:
    """ess[k, e]: reduced entry e of `dominance_table` is a Fulton corner (p, q)
    of the involution v = rows[k]: v(p) <= q < v(p+1), v(q) <= p < v(q+1).

    Elsewhere u's table >= v's at (p, q) follows from the same at a
    neighbouring entry, where v's steps by one and u's by at most one, or
    v's stays and u's cannot fall; so the corners decide u <= v (Fulton's
    essential set, Duke Math. J. 65, 1992).
    """
    m = rows.shape[1]
    q = np.arange(1, m)
    step = (rows[:, :-1, None] <= q) & (rows[:, 1:, None] > q)  # [k, p-1, q-1]
    i, j = np.triu_indices(max(m - 1, 0))
    return (step & step.transpose(0, 2, 1))[:, i, j]


def below_masks(bits: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, int]:
    """Packed <=-masks, laid out as `threshold_bits`: bit k of out[r] says
    that row k behind `bits` is <= vertices[r]; bits past the last row are
    unspecified.  Each mask is the AND of one threshold row per essential
    entry of its vertex, CHUNK_ROWS vertices at a time.  Also returns the
    number of entries compared."""
    out = np.empty((len(vertices), bits.shape[2]), dtype=np.uint64)
    compared = 0
    for s in range(0, len(vertices), CHUNK_ROWS):
        part, masks = vertices[s : s + CHUNK_ROWS], out[s : s + CHUNK_ROWS]
        ess, col = essential_entries(part), dominance_table(part)
        masks[:] = ~np.uint64(0)
        for e in np.flatnonzero(ess.any(axis=0)):
            hit = np.flatnonzero(ess[:, e])
            masks[hit] &= bits[e, col[e, hit]]
        compared += int(ess.sum())
    return out, compared


def max_rank(m: int) -> int:
    """floor(m^2 / 4), the rank of the identity (open orbit)."""
    return m * m // 4


def ranks(rows: np.ndarray) -> np.ndarray:
    """`rank` of each involution in the rows of a (K, m) integer array, as int64:
    floor(m^2/4) - (inversions + #{i : pi(i) > i}) // 2.  Position pairs are
    compared CHUNK_ROWS rows at a time."""
    m = rows.shape[1]
    i, j = np.nonzero(~np.tri(m, dtype=bool))  # the pairs i < j, built faster than triu_indices
    pos = np.arange(1, m + 1, dtype=rows.dtype)
    twice = np.empty(len(rows), dtype=np.int64)
    for s in range(0, len(rows), CHUNK_ROWS):
        part = rows[s : s + CHUNK_ROWS]
        twice[s : s + CHUNK_ROWS] = (part[:, i] > part[:, j]).sum(axis=1) + (part > pos).sum(axis=1)
    return max_rank(m) - twice // 2


def rank(pi: Perm) -> int:
    """Grading of the involution pi, distance above the closed orbit:
    floor(m^2/4) minus Incitti's (inv(pi) + exc(pi)) / 2, by `ranks` on its
    one row, held as int64 so that any m fits.  A non-involution, m = 0
    included, raises MalformedInput.

    >>> rank((1, 2, 3, 4)), rank((4, 3, 2, 1)), rank((3, 4, 1, 2))
    (4, 0, 1)
    """
    pi = validate_involution(pi)
    return int(ranks(np.array([pi], dtype=np.int64))[0])


def interval(pi: Perm) -> frozenset[Perm]:
    """I_pi: all involutions v with pi <= v, by filtering the enumeration."""
    guard_size(len(pi), "interval")
    pi = validate_involution(pi)
    rows = involution_rows(len(pi))
    return frozenset(map(tuple, rows[above(pi, rows)].tolist()))
