"""Exact flags, orbit identification, and the symbolic Gram-matrix slice.

The slice coordinates are parameters a_ij indexed by pairs with i <= n < j
or n < i < j, subject to the mirror identification a_ij = a_{2n+1-j,2n+1-i}
in the first family.  The Gram matrix of the slice basis is polynomial in
these parameters; its minors cut out the orbit-closure slice, and the torus
weights of the parameters drive the attractive-fixed-point analysis.

The slice is built only for even sizes m = 2n.  For odd m only the standard
form and flag orbit identification are available.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import DegenerateFlag, InInterval, MalformedInput, NotANeighbor, TooLarge
from .perms import Perm, format_perm, guard_size, validate_involution, w0
from .bruhat import prefix_violation
from .orbit_graph import w0_neighbors
from .poly import Poly, Var, determinant

FlagMatrix = tuple[tuple[Fraction, ...], ...]
Weight = tuple[int, ...]

FLAG_SIZE_GUARD = 64  # orbit_of_flag takes about 4 s on a random flag at m = 80


# ---------------------------------------------------------------------------
# Slice variables and weights
# ---------------------------------------------------------------------------


def canonical_var(i: int, j: int, n: int) -> Var:
    """Representative of the mirror class {(i,j), (2n+1-j, 2n+1-i)}."""
    m = 2 * n
    if not (1 <= i <= n < j <= m or n < i < j <= m):
        raise MalformedInput(f"({i}, {j}) is not a slice variable for n={n}")
    if i <= n:
        mi, mj = m + 1 - j, m + 1 - i
        return (i, j) if i <= mi else (mi, mj)
    return (i, j)


def slice_vars(n: int) -> list[Var]:
    """The n^2 canonical slice variables, sorted."""
    m = 2 * n
    out = set()
    for i in range(1, n + 1):
        for j in range(n + 1, m + 1):
            out.add(canonical_var(i, j, n))
    for i in range(n + 1, m + 1):
        for j in range(i + 1, m + 1):
            out.add((i, j))
    return sorted(out)


def variable_weight(v: Var, n: int) -> Weight:
    """Torus weight of a canonical slice variable as a vector in e_1..e_n.

    Scaling row/column i by t_i (i <= n) and by t_{2n+1-i}^{-1} (i > n)
    multiplies each Gram entry by the product of its row and column factors;
    the weight records how the variable must scale to compensate.
    """
    i, j = canonical_var(*v, n)
    m = 2 * n
    w = [0] * n
    if i <= n:
        w[i - 1] += 1
        w[m - j] += 1  # e_{2n+1-j}; equals e_i when j is the mirror of i
    else:
        w[m - j] += 1
        w[m - i] -= 1
    return tuple(w)


@cache
def _bottom_table(n: int) -> Mapping[Perm, Var]:
    """The rows of `w0_neighbors(2n)`, in their lexicographic order, each mapped
    to its canonical slice variable, once per n.  A row u is t w0 t or t w0 for
    t = (a, b): a is the first position where u differs from w0, b = m + 1 - u(a),
    and t is mirrored where b <= n leaves it no slice index.  Every minor path
    reads this table first, so it holds the slice guard.
    """
    m = 2 * n
    guard_size(m, "slice")
    table: dict[Perm, Var] = {}
    for u in map(tuple, w0_neighbors(m).tolist()):
        a = next(i for i, x in enumerate(u, start=1) if x != m + 1 - i)
        b = m + 1 - u[a - 1]
        if b <= n:
            a, b = m + 1 - b, m + 1 - a
        table[u] = canonical_var(a, b, n)
    return MappingProxyType(table)


def neighbor_variable(v: Perm, n: int) -> Var:
    """The canonical variable attached to a neighbor v of the bottom vertex.

    The transposition t with v = t.w0 is determined up to the mirror pair
    {t, w0 t w0}, which lands on the same canonical variable.
    """
    var = _bottom_table(n).get(v)
    if var is None:
        raise NotANeighbor(f"{format_perm(v)} is not adjacent to {format_perm(w0(2 * n))}")
    return var


# ---------------------------------------------------------------------------
# Slice basis and Gram matrix
# ---------------------------------------------------------------------------


def slice_basis(n: int) -> list[list[Poly]]:
    """Symbolic rows b_i of the slice basis in e-coordinates (m = 2n)."""
    m = 2 * n
    rows: list[list[Poly]] = []
    for i in range(1, m + 1):
        row = [Poly() for _ in range(m)]
        row[i - 1] = Poly.const(1)
        start = n + 1 if i <= n else i + 1
        for j in range(start, m + 1):
            row[j - 1] = Poly.var(canonical_var(i, j, n))
        rows.append(row)
    return rows


@cache
def slice_gram(n: int) -> tuple[tuple[Poly, ...], ...]:
    """The 2n x 2n symbolic Gram matrix, per the closed-form case table.

    Symmetric, zero below the antidiagonal, ones on the antidiagonal.  Built
    once per n and shared by every caller; Poly is immutable.
    """
    m = 2 * n

    def entry(i: int, j: int) -> Poly:
        if j < i:
            return entry(j, i)
        if j <= n:  # i <= j <= n
            return Poly.var(canonical_var(i, m + 1 - j, n), 2)
        if i <= n and j == m + 1 - i:
            return Poly.const(1)
        if i <= n and j < m + 1 - i:
            return Poly.var(canonical_var(j, m + 1 - i, n))
        return Poly()

    return tuple(tuple(entry(i, j) for j in range(1, m + 1)) for i in range(1, m + 1))


# ---------------------------------------------------------------------------
# Minors and the slice ideal
# ---------------------------------------------------------------------------


def _failure_row(pi: Perm, c: Perm, n: int) -> int:
    """Row i of the first prefix failure of pi <= c, for c in the slice table."""
    if c not in _bottom_table(n):
        raise NotANeighbor(f"{format_perm(c)} is not adjacent to the bottom vertex")
    hit = prefix_violation(pi, c)
    if hit is None:
        raise InInterval(f"{format_perm(c)} lies in the interval of {format_perm(pi)}")
    return hit[0]


def _minor_ii(c: Perm, i: int, n: int) -> Poly:
    return determinant(slice_gram(n), range(1, i + 1), sorted(c[:i]))


def minor_condition_ii(pi: Perm, c: Perm, n: int) -> Poly:
    """Minor on the first i rows and columns c_1..c_i at the first prefix
    failure of pi <= c; its vanishing cuts the slice along c's direction.
    pi is taken unchecked, as `slice_ideal` accepts it."""
    return _minor_ii(c, _failure_row(pi, c, n), n)


def slice_ideal(pi: Perm, n: int) -> list[tuple[Perm, Poly]]:
    """Defining minors of the slice, one per excluded bottom-vertex neighbor v,
    in lexicographic neighbor order; MalformedInput unless pi is an involution of S_2n.

    At the first prefix failure (i, j) of pi <= v, the minor is the j x j one
    on rows r_1..r_j (positions of the j smallest prefix values of v) and
    columns v'_1..v'_j.
    """
    pi = validate_involution(pi)
    m = 2 * n
    if len(pi) != m:
        raise MalformedInput(f"{format_perm(pi)} has size {len(pi)}, expected {m}")
    out = []
    for v in _bottom_table(n):
        hit = prefix_violation(pi, v)
        if hit is not None:
            i, j = hit
            v_sorted = sorted(v[:i])
            rows = [v.index(x) + 1 for x in v_sorted[:j]]
            out.append((v, determinant(slice_gram(n), rows, v_sorted[:j])))
    return out


def monomial_claim(pi: Perm, v: Perm, n: int) -> bool:
    """Exactly one monomial of the column-set minor (ii) is a first or second power of v's
    variable; decided once per (v, i, n), as pi (taken unchecked) sets only the row i."""
    return _claim(v, _failure_row(pi, v, n), n)


@cache
def _claim(v: Perm, i: int, n: int) -> bool:
    """`monomial_claim` at failure row i, decided once per (v, i, n): n^2 * 2n keys per n."""
    x = neighbor_variable(v, n)
    return sum(mono in (((x, 1),), ((x, 2),)) for mono in _minor_ii(v, i, n).terms) == 1


# ---------------------------------------------------------------------------
# Flags and orbit identification
# ---------------------------------------------------------------------------


def flag_matrix(rows: Sequence[Sequence[Fraction | int | str]]) -> FlagMatrix:
    """The rows as an m x m matrix of Fractions, 1 <= m <= FLAG_SIZE_GUARD (TooLarge
    above it, before any entry is read); MalformedInput otherwise.  Text entries
    take no exponent: Fraction("1e20000000") alone takes tens of seconds."""
    m = len(rows)
    if m > FLAG_SIZE_GUARD:
        raise TooLarge(f"flag guard is m <= {FLAG_SIZE_GUARD}, got {m}")
    if m < 1:
        raise MalformedInput("a flag needs m >= 1 rows")
    out = []
    for row in rows:
        try:
            if any("e" in x.lower() for x in row if isinstance(x, str)):
                raise ValueError
            vals = tuple(Fraction(x) for x in row)
        except (ValueError, ZeroDivisionError):
            raise MalformedInput(f"bad rational in row: {' '.join(map(str, row))!r}") from None
        if len(vals) != m:
            raise MalformedInput(f"expected {m} entries per row, got {len(vals)}")
        out.append(vals)
    return tuple(out)


def parse_flag_file(text: str) -> FlagMatrix:
    """Plain text: first line m, then m lines of m rationals ('p/q' or int)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MalformedInput("empty flag file")
    try:
        m = int(lines[0])
    except ValueError:
        raise MalformedInput(f"bad size line: {lines[0]!r}") from None
    if len(lines) != m + 1:
        raise MalformedInput(f"expected {m} rows, got {len(lines) - 1}")
    return flag_matrix([ln.split() for ln in lines[1:]])


def orbit_of_flag(flag: Sequence[Sequence[Fraction | int | str]]) -> Perm:
    """Identify the orbit of the flag spanned by the row prefixes.

    pi is the rank profile of the Gram matrix G = F J F^T: the rank of the
    form on V_i x V_j is #{k <= i : pi(k) <= j}.  G is symmetric, so this
    profile is an involution.  One elimination finds it
    (Dumas, Pernet and Sultan, J. Symbolic Comput. 83, 2017): row i's
    leftmost nonzero column c is pi(i); column operations clear row i right
    of c, after which the row operations that zero column c below row i
    change nothing else.  Adding a multiple of an earlier row or column to a
    later one keeps every leading-block rank.  G is singular exactly when the
    rows of F are dependent, so a row without a pivot raises DegenerateFlag.
    """
    flag = flag_matrix(flag)
    m = len(flag)
    # Gram matrix of the rows under the antidiagonal form; symmetric
    gram = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            gram[a][b] = gram[b][a] = sum(flag[a][k] * flag[b][m - 1 - k] for k in range(m))
    pi = []
    for i, row in enumerate(gram):
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            raise DegenerateFlag("flag rows are linearly dependent")
        pi.append(c + 1)
        hits = [r for r in gram[i + 1 :] if r[c]]
        for j in range(c + 1, m):
            if row[j]:
                f = row[j] / row[c]
                for r in hits:
                    r[j] -= f * r[c]
        for r in hits:
            r[c] = 0
    return tuple(pi)


def specialize_basis(n: int, values: dict[Var, Fraction]) -> FlagMatrix:
    """Numeric flag from the slice basis at the given parameter values;
    unlisted variables are 0."""
    point = {v: values.get(v, Fraction(0)) for v in slice_vars(n)}
    return tuple(tuple(p.evaluate(point) for p in row) for row in slice_basis(n))
