"""Sparse integer-coefficient multivariate polynomials and exact linear algebra.

Variables are ordered pairs (i, j); monomials are sorted tuples of
(variable, exponent) with positive exponents; zero coefficients are never
stored.  Enough arithmetic for Gram-matrix minors at desk scale, plus a
fraction-free exact rank for rational matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Var = tuple[int, int]
Monomial = tuple[tuple[Var, int], ...]

_ONE: Monomial = ()


class Poly:
    """Immutable sparse polynomial with int coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = (
            {m: c for m, c in terms.items() if c} if terms else {}
        )

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls({_ONE: c})

    @classmethod
    def var(cls, v: Var, coeff: int = 1) -> "Poly":
        return cls({((v, 1),): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mul_monomials(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    def scale(self, c: int) -> "Poly":
        return Poly({m: c * k for m, k in self.terms.items()})

    def monomials(self) -> list[Monomial]:
        """Graded-lexicographic order, largest first."""
        return sorted(self.terms, key=_grlex_key, reverse=True)

    def coefficient(self, m: Monomial) -> int:
        return self.terms.get(m, 0)

    def evaluate(self, values: Mapping[Var, Fraction]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            prod = Fraction(c)
            for v, e in m:
                prod *= values[v] ** e
            total += prod
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in self.monomials():
            c = self.terms[m]
            body = "*".join(
                _var_name(v) + (f"^{e}" if e > 1 else "") for v, e in m
            )
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    __repr__ = __str__


def _var_name(v: Var) -> str:
    i, j = v
    return f"a{i}{j}" if j <= 9 else f"a{i}_{j}"


def _mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    exps: dict[Var, int] = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _grlex_key(m: Monomial):
    total = sum(e for _, e in m)
    # negated exponents so lexicographically earlier variables dominate
    return (total, tuple((v, e) for v, e in m))


def determinant(matrix: Sequence[Sequence[Poly]], rows: Sequence[int], cols: Sequence[int]) -> Poly:
    """Determinant of the submatrix on the given 1-based rows and columns.

    Cofactor expansion along the first row, memoized on column subsets;
    exact and fast enough for the <= 9 x 9 minors that occur here.
    """
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise ValueError("minor must be square")
    memo: dict[tuple[int, Monomial | tuple], Poly] = {}

    def expand(depth: int, cs: tuple[int, ...]) -> Poly:
        if not cs:
            return Poly.const(1)
        key = (depth, cs)
        got = memo.get(key)
        if got is not None:
            return got
        r = rows[depth]
        total = Poly()
        for k, c in enumerate(cs):
            entry = matrix[r - 1][c - 1]
            if entry.is_zero():
                continue
            sub = expand(depth + 1, cs[:k] + cs[k + 1 :])
            term = entry * sub
            total = total + (term if k % 2 == 0 else -term)
        memo[key] = total
        return total

    return expand(0, cols)


def exact_rank(matrix: Iterable[Iterable[Fraction | int]]) -> int:
    """Rank over the rationals via fraction-free (Bareiss-style) elimination."""
    rows: list[list[int]] = []
    for row in matrix:
        frs = [Fraction(x) for x in row]
        lcm = math.lcm(*(f.denominator for f in frs))
        rows.append([int(f * lcm) for f in frs])
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            for c in range(col, ncols):
                rows[r][c] = (rows[r][c] * p - f * rows[rank][c]) // prev
        prev = p
        rank += 1
        if rank == len(rows):
            break
    return rank
