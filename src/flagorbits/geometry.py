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
from typing import Sequence

from .errors import (
    DegenerateFlag,
    InInterval,
    MalformedInput,
    NotANeighbor,
    NotAnOrbitTable,
)
from .perms import Perm, format_perm, is_involution, w0
from .bruhat import bruhat_leq, prefix_violation
from .orbit_graph import edges, neighbors
from .poly import Poly, Var, determinant, exact_rank

FlagMatrix = tuple[tuple[Fraction, ...], ...]
Weight = tuple[int, ...]


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


def neighbor_variable(v: Perm, n: int) -> Var:
    """The canonical variable attached to a neighbor v of the bottom vertex.

    The transposition t with v = t.w0 is determined up to the mirror pair
    {t, w0 t w0}, which lands on the same canonical variable.
    """
    m = 2 * n
    bottom = w0(m)
    for t, u in edges(bottom):
        if u == v:
            a, b = t
            if b == m + 1 - a:
                return (a, b)
            if b <= n:
                return (m + 1 - b, m + 1 - a)
            if a > n:
                return (a, b)
            return canonical_var(a, b, n)
    raise NotANeighbor(f"{format_perm(v)} is not adjacent to {format_perm(bottom)}")


# ---------------------------------------------------------------------------
# Slice basis and Gram matrix
# ---------------------------------------------------------------------------


def standard_gram(m: int) -> tuple[tuple[int, ...], ...]:
    """The form matrix: (e_i, e_j) = 1 iff i + j = m + 1."""
    return tuple(
        tuple(1 if i + j == m + 1 else 0 for j in range(1, m + 1))
        for i in range(1, m + 1)
    )


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


def slice_gram(n: int) -> list[list[Poly]]:
    """The 2n x 2n symbolic Gram matrix, per the closed-form case table.

    Symmetric, zero below the antidiagonal, ones on the antidiagonal.
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

    return [[entry(i, j) for j in range(1, m + 1)] for i in range(1, m + 1)]


def gram_from_basis(n: int) -> list[list[Poly]]:
    """Gram matrix computed directly as B J B^T; diagnostic cross-check."""
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
    """Entries where the case table and the bilinear products disagree."""
    table = slice_gram(n)
    prod = gram_from_basis(n)
    out = []
    for i in range(2 * n):
        for j in range(2 * n):
            diff = table[i][j] - prod[i][j]
            if not diff.is_zero():
                out.append((i + 1, j + 1, diff))
    return out


# ---------------------------------------------------------------------------
# Minors and the slice ideal
# ---------------------------------------------------------------------------


def _require_excluded_neighbor(pi: Perm, v: Perm, n: int) -> tuple[int, int]:
    m = 2 * n
    if v not in neighbors(w0(m)).neighbors:
        raise NotANeighbor(f"{format_perm(v)} is not adjacent to the bottom vertex")
    hit = prefix_violation(pi, v)
    if hit is None:
        raise InInterval(f"{format_perm(v)} lies in the interval of {format_perm(pi)}")
    return hit


def minor_condition_ii(pi: Perm, c: Perm, n: int) -> Poly:
    """Minor on the first i rows and columns c_1..c_i at the first prefix
    failure of pi <= c; its vanishing cuts the slice along c's direction."""
    i, _ = _require_excluded_neighbor(pi, c, n)
    gram = slice_gram(n)
    rows = list(range(1, i + 1))
    cols = sorted(c[:i])
    return determinant(gram, rows, cols)


def minor_condition_i(pi: Perm, v: Perm, n: int) -> Poly:
    """The j x j minor on rows r_1..r_j (positions of the j smallest prefix
    values of v) and columns v'_1..v'_j, at the first prefix failure."""
    i, j = _require_excluded_neighbor(pi, v, n)
    gram = slice_gram(n)
    prefix = v[:i]
    v_sorted = sorted(prefix)
    rows = [prefix.index(v_sorted[k]) + 1 for k in range(j)]
    cols = v_sorted[:j]
    return determinant(gram, rows, cols)


def slice_ideal(pi: Perm, n: int) -> list[tuple[Perm, Poly]]:
    """Defining minors of the slice, one per excluded bottom-vertex neighbor,
    in lexicographic neighbor order."""
    m = 2 * n
    if len(pi) != m:
        raise MalformedInput(f"{format_perm(pi)} has size {len(pi)}, expected {m}")
    out = []
    for v in sorted(neighbors(w0(m)).neighbors):
        if not bruhat_leq(pi, v):
            out.append((v, minor_condition_i(pi, v, n)))
    return out


def monomial_claim(pi: Perm, v: Perm, n: int) -> bool:
    """Exactly one monomial of the column-set minor is a first or second
    power of the variable attached to v."""
    poly = minor_condition_ii(pi, v, n)
    x = neighbor_variable(v, n)
    count = sum(
        1
        for mono in poly.terms
        if len(mono) == 1 and mono[0][0] == x and mono[0][1] in (1, 2)
    )
    return count == 1


# ---------------------------------------------------------------------------
# Flags and orbit identification
# ---------------------------------------------------------------------------


def flag_matrix(rows: Sequence[Sequence[Fraction | int | str]]) -> FlagMatrix:
    m = len(rows)
    out = []
    for row in rows:
        vals = tuple(Fraction(x) for x in row)
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
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        try:
            rows.append([Fraction(p) for p in parts])
        except (ValueError, ZeroDivisionError):
            raise MalformedInput(f"bad rational in row: {ln!r}") from None
    return flag_matrix(rows)


def format_flag_file(flag: FlagMatrix) -> str:
    lines = [str(len(flag))]
    for row in flag:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def orbit_of_flag(flag: FlagMatrix) -> Perm:
    """Identify the orbit of the flag spanned by the row prefixes.

    The rank of the form on V_i x V_j determines pi via the first column
    where the i-th row increments the rank; the result is validated against
    the full rank table.
    """
    m = len(flag)
    if exact_rank(flag) != m:
        raise DegenerateFlag("flag rows are linearly dependent")
    # Gram matrix of the rows under the antidiagonal form
    gram = [
        [sum(flag[a][k] * flag[b][m - 1 - k] for k in range(m)) for b in range(m)]
        for a in range(m)
    ]
    table = [[0] * (m + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            table[i][j] = exact_rank([row[:j] for row in gram[:i]])
    pi = []
    for i in range(1, m + 1):
        j = next(
            (j for j in range(1, m + 1) if table[i][j] == table[i - 1][j] + 1), None
        )
        if j is None:
            raise NotAnOrbitTable(f"row {i} never increments the rank table")
        pi.append(j)
    result = tuple(pi)
    if not is_involution(result):
        raise NotAnOrbitTable(f"rank table yields non-involution {result}")
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if table[i][j] != sum(1 for k in range(1, i + 1) if result[k - 1] <= j):
                raise NotAnOrbitTable("rank table mismatch after reconstruction")
    return result


def specialize_basis(n: int, values: dict[Var, Fraction]) -> FlagMatrix:
    """Numeric flag from the slice basis at the given parameter values;
    unlisted variables are 0."""
    rows = []
    for row in slice_basis(n):
        rows.append(
            tuple(
                p.evaluate({v: values.get(v, Fraction(0)) for v in slice_vars(n)})
                for p in row
            )
        )
    return tuple(rows)
