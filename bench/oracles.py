"""Independent checks and input helpers for the benchmark.

Nothing here imports flagorbits: every check is written from the
definitions, so a defect in the program cannot hide in its own oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# Involutions
# ---------------------------------------------------------------------------


def involution_count(m: int) -> int:
    a, b = 1, 1  # I(0), I(1)
    for k in range(2, m + 1):
        a, b = b, b + (k - 1) * a
    return b


def random_involution(m: int, rng: random.Random) -> Perm:
    """Uniform involution of S_m: the largest free point is fixed with
    probability I(r-1)/I(r), otherwise paired with a uniform free point."""
    free = list(range(1, m + 1))
    out = [0] * m
    while free:
        r = len(free)
        x = free.pop()
        if rng.randrange(involution_count(r)) < involution_count(r - 1):
            out[x - 1] = x
        else:
            y = free.pop(rng.randrange(r - 1))
            out[x - 1], out[y - 1] = y, x
    return tuple(out)


def matchings(m: int) -> list[Perm]:
    """Involutions of S_m with floor(m/2) two-cycles (the class of w0)."""
    out: list[Perm] = []
    entry = [0] * m

    def fill(pos: int, fixes: int) -> None:
        while pos < m and entry[pos]:
            pos += 1
        if pos == m:
            out.append(tuple(entry))
            return
        if fixes:
            entry[pos] = pos + 1
            fill(pos + 1, fixes - 1)
            entry[pos] = 0
        for j in range(pos + 1, m):
            if not entry[j]:
                entry[pos], entry[j] = j + 1, pos + 1
                fill(pos + 1, fixes)
                entry[pos] = entry[j] = 0

    fill(0, m % 2)
    return out


def rank(pi: Perm) -> int:
    """floor(m^2/4) minus Incitti's involution rank (inv + exc) / 2."""
    m = len(pi)
    inv = sum(1 for i in range(m) for j in range(i + 1, m) if pi[i] > pi[j])
    exc = sum(1 for i, v in enumerate(pi, start=1) if v > i)
    return m * m // 4 - (inv + exc) // 2


def leq(u: Perm, v: Perm) -> bool:
    """Bruhat order by sorted prefixes, each prefix sorted anew."""
    for i in range(1, len(u) + 1):
        if any(a > b for a, b in zip(sorted(u[:i]), sorted(v[:i]))):
            return False
    return True


def bottom_neighbors(m: int) -> list[Perm]:
    """Vertices adjacent to w0: t w0 t != w0, and t w0 for the t that
    commute with w0 when m is even."""
    bottom = tuple(range(m, 0, -1))
    found = set()
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            swap = {a: b, b: a}
            t = [swap.get(i, i) for i in range(1, m + 1)]
            conj = tuple(t[bottom[t[i] - 1] - 1] for i in range(m))
            if conj != bottom:
                found.add(conj)
            elif m % 2 == 0:
                found.add(tuple(t[bottom[i] - 1] for i in range(m)))
    found.discard(bottom)
    return sorted(found)


def w0_degree(pi: Perm) -> int:
    return sum(1 for u in bottom_neighbors(len(pi)) if leq(pi, u))


def dominance_tables(perms: list[Perm]) -> np.ndarray:
    """Row k holds d[i][j] = #{l <= i : p(l) <= j}; u <= v iff d(u) >= d(v)."""
    n, m = len(perms), len(perms[0])
    onehot = np.zeros((n, m, m), dtype=np.int8)
    onehot[np.arange(n)[:, None], np.arange(m)[None, :], np.array(perms) - 1] = 1
    return onehot.cumsum(axis=1, dtype=np.int8).cumsum(axis=2, dtype=np.int8).reshape(n, -1)


def count_above(pis: list[Perm], targets: list[Perm]) -> list[int]:
    """For each pi, the number of targets u with pi <= u."""
    tab = dominance_tables(targets)
    return [int((tab <= row).all(axis=1).sum()) for row in dominance_tables(pis)]


def slice_cost_keys(pis: list[Perm], targets: list[Perm]) -> list[int]:
    """For each pi, the sum of 3**i + 3**j over the targets v with pi not <= v,
    where i is the first prefix length at which pi <= v fails and j the first
    failing place of its sorted prefixes: the slice computes an i x i and a
    j x j minor for v, and a cofactor determinant costs about three times
    more per size.

    At the first failing row i, the first failing place j is d_v[i][x] for
    the least column x with d_pi[i][x] < d_v[i][x]."""
    m = len(pis[0])
    tv = dominance_tables(targets).reshape(1, len(targets), m, m)
    keys = []
    for start in range(0, len(pis), 512):
        tp = dominance_tables(pis[start:start + 512]).reshape(-1, 1, m, m)
        fail = tp < tv
        rows = fail.any(axis=3)
        excluded = rows.any(axis=2)
        i = rows.argmax(axis=2)
        x = np.take_along_axis(fail, i[..., None, None], axis=2)[:, :, 0].argmax(axis=2)
        j = tv[0, np.arange(len(targets))[None, :], i, x]
        cost = np.where(excluded, 3 ** (i + 1) + 3 ** j.astype(np.int64), 0)
        keys += cost.sum(axis=1).tolist()
    return keys


def stratified(pool: list, keys: list[int], count: int) -> list:
    """count items at evenly spaced quantiles of keys (ties keep pool order),
    so every seed draws the same cost profile from its own pool."""
    order = sorted(range(len(pool)), key=lambda i: keys[i])
    return [pool[order[(2 * k + 1) * len(pool) // (2 * count)]] for k in range(count)]


# ---------------------------------------------------------------------------
# Flags
# ---------------------------------------------------------------------------


def flag_orbit(flag) -> Perm | None:
    """Orbit of a flag by incremental elimination on its Gram matrix.

    Row i of G = F J F^T adds one new leading column to the echelon form
    of rows 1..i; that column is pi(i).  None when the rows are dependent.
    """
    m = len(flag)
    gram = [
        [sum((flag[a][k] * flag[b][m - 1 - k] for k in range(m)), Fraction(0)) for b in range(m)]
        for a in range(m)
    ]
    basis: list[tuple[int, list[Fraction]]] = []
    out = []
    for row in gram:
        w = list(row)
        for lead, r in sorted(basis, key=lambda x: x[0]):
            if w[lead]:
                f = w[lead] / r[lead]
                w = [x - f * y for x, y in zip(w, r)]
        lead = next((j for j, x in enumerate(w) if x), None)
        if lead is None:
            return None
        basis.append((lead, w))
        out.append(lead + 1)
    return tuple(out)
