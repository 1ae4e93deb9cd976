"""Reference definitions that the tests compare the program against.

Each is written from its definition, and the program calls none of them:
composition, conjugation and transpositions, and from them the edge rule, the
degree of a vertex in an interval, the Gram matrix of the slice as B J B^T, the
predicted torus weights of the slice variables, and the flag file format
that `parse_flag_file` reads.
"""

from __future__ import annotations

from itertools import combinations

from flagorbits.errors import PositionOutOfRange, SizeMismatch
from flagorbits.geometry import FlagMatrix, Weight, slice_basis, slice_gram, slice_vars
from flagorbits.geometry import variable_weight
from flagorbits.orbit_graph import neighbors
from flagorbits.perms import Perm, Transposition
from flagorbits.poly import Poly


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    if len(p) != len(q):
        raise SizeMismatch(f"sizes {len(p)} and {len(q)}")
    return tuple(p[v - 1] for v in q)


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


def oracle_edge(mu: Perm, t: Transposition) -> Perm | None:
    """The neighbour of mu along t = (a, b) from the definition, or None:
    t mu t when that differs from mu, else the product t mu for even m."""
    nu = conjugate(mu, t)
    if nu != mu:
        return nu
    return compose(transposition(*t, len(mu)), mu) if len(mu) % 2 == 0 else None


def oracle_neighbors(mu: Perm) -> set[Perm]:
    """The distinct neighbours of mu: oracle_edge along every transposition."""
    nbrs = {oracle_edge(mu, t) for t in combinations(range(1, len(mu) + 1), 2)}
    return nbrs - {None}


def degree_in(v: Perm, iv: frozenset[Perm]) -> int:
    """Number of neighbours of v lying in the interval iv, for v in iv."""
    return len(neighbors(v).neighbors & iv)


def gram_from_basis(n: int) -> list[list[Poly]]:
    """Gram matrix of the slice basis computed directly as B J B^T."""
    m = 2 * n
    basis = slice_basis(n)
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            total = Poly()
            for k in range(m):
                # (e_k, e_{m+1-k}) = 1 is the only nonzero pairing
                total = total + basis[i][k] * basis[j][m - 1 - k]
            row.append(total)
        out.append(row)
    return out


def gram_diagnostic(n: int) -> list[tuple[int, int, Poly]]:
    """Entries where the case table `slice_gram` and B J B^T disagree."""
    table = slice_gram(n)
    prod = gram_from_basis(n)
    out = []
    for i in range(2 * n):
        for j in range(2 * n):
            diff = table[i][j] - prod[i][j]
            if diff:
                out.append((i + 1, j + 1, diff))
    return out


def expected_weights(n: int) -> list[Weight]:
    """The predicted multiset {2e_i} u {e_i+e_j} u {e_i-e_j}, sorted."""
    out: list[Weight] = []

    def vec(pairs: dict[int, int]) -> Weight:
        w = [0] * n
        for k, c in pairs.items():
            w[k - 1] += c
        return tuple(w)

    for i in range(1, n + 1):
        out.append(vec({i: 2}))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(vec({i: 1, j: 1}))
            out.append(vec({i: 1, j: -1}))
    return sorted(out)


def attractiveness_check(n: int) -> bool:
    """All n^2 weights distinct, as predicted, and strictly positive on the
    functional k -> n+1-k (so they lie on one side of a hyperplane)."""
    weights = sorted(variable_weight(v, n) for v in slice_vars(n))
    if weights != expected_weights(n):
        return False
    lam = [n + 1 - k for k in range(1, n + 1)]
    return all(sum(l * w for l, w in zip(lam, wt)) > 0 for wt in weights)


def format_flag_file(flag: FlagMatrix) -> str:
    """The text `parse_flag_file` reads: m, then one line of m entries per row."""
    lines = [str(len(flag))]
    for row in flag:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
