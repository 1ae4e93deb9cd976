import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from definitions import attractiveness_check, expected_weights, format_flag_file
from definitions import gram_diagnostic, oracle_edge, oracle_neighbors
from flagorbits.cli import main
from flagorbits.errors import (
    DegenerateFlag,
    InInterval,
    MalformedInput,
    NotANeighbor,
    TooLarge,
)
from flagorbits.perms import enumerate_involutions, identity, is_involution, parse_perm, w0
from flagorbits.bruhat import bruhat_leq, max_rank, rank
from flagorbits.orbit_graph import neighbors, w0_degree, w0_neighbors
from flagorbits.poly import Poly, determinant
from flagorbits.geometry import (
    FLAG_SIZE_GUARD,
    _bottom_table,
    canonical_var,
    flag_matrix,
    minor_condition_ii,
    monomial_claim,
    neighbor_variable,
    orbit_of_flag,
    parse_flag_file,
    slice_basis,
    slice_gram,
    slice_ideal,
    slice_vars,
    specialize_basis,
    variable_weight,
)


def test_canonical_vars():
    assert canonical_var(1, 4, 2) == (1, 4)
    assert canonical_var(2, 4, 2) == (1, 3)  # mirror of (1,3)
    assert canonical_var(3, 4, 2) == (3, 4)
    for n in range(1, 5):
        assert len(slice_vars(n)) == n * n
    with pytest.raises(MalformedInput):
        canonical_var(1, 2, 2)


def test_slice_basis():
    rows = slice_basis(1)
    assert rows[0] == [Poly.const(1), Poly.var((1, 2))]
    assert rows[1] == [Poly(), Poly.const(1)]
    rows = slice_basis(2)
    assert rows[2][3] == Poly.var((3, 4))  # b_3 = e_3 + a34 e_4
    # all parameters zero gives the identity flag
    m = 4
    flag = specialize_basis(2, {})
    assert flag == tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(m)) for i in range(m)
    )


def test_slice_gram_small_cases():
    g = slice_gram(1)
    assert g[0][0] == Poly.var((1, 2), 2)
    assert g[0][1] == Poly.const(1) and g[1][0] == Poly.const(1)
    assert g[1][1] == Poly()
    g = slice_gram(2)
    assert g[0][2] == Poly.var((3, 4))
    assert g[0][0] == Poly.var((1, 4), 2)
    assert g[1][1] == Poly.var((2, 3), 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_slice_gram_structure(n):
    m = 2 * n
    g = slice_gram(n)
    for i in range(m):
        for j in range(m):
            assert g[i][j] == g[j][i]
            if i + j + 2 > m + 1:
                assert not g[i][j]
            if i + j + 2 == m + 1:
                assert g[i][j] == Poly.const(1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_slice_gram_structure_random_specializations(n):
    rng = random.Random(20260824 + n)
    g = slice_gram(n)
    m = 2 * n
    for _ in range(100 // (n * n)):
        vals = {
            v: Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            for v in slice_vars(n)
        }
        num = [[entry.evaluate(vals) for entry in row] for row in g]
        for i in range(m):
            for j in range(m):
                assert num[i][j] == num[j][i]
                if i + j + 2 > m + 1:
                    assert num[i][j] == 0
                if i + j + 2 == m + 1:
                    assert num[i][j] == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gram_table_matches_bilinear_products(n):
    assert gram_diagnostic(n) == []


def test_variable_weights_n2():
    assert variable_weight((1, 4), 2) == (2, 0)
    assert variable_weight((1, 3), 2) == (1, 1)
    assert variable_weight((2, 3), 2) == (0, 2)
    assert variable_weight((3, 4), 2) == (1, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weight_multiset_and_attractiveness(n):
    weights = sorted(variable_weight(v, n) for v in slice_vars(n))
    assert weights == expected_weights(n)
    assert len(weights) == n * n
    assert attractiveness_check(n)


def test_neighbor_variable_examples():
    assert neighbor_variable((1, 3, 2, 4), 2) == (1, 4)
    assert neighbor_variable((2, 1, 4, 3), 2) == (1, 3)
    assert neighbor_variable((3, 4, 1, 2), 2) == (3, 4)
    assert neighbor_variable((4, 2, 3, 1), 2) == (2, 3)
    with pytest.raises(NotANeighbor):
        neighbor_variable((1, 2, 3, 4), 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_neighbor_variable_bijection(n):
    verts = sorted(neighbors(w0(2 * n)).neighbors)
    assert len(verts) == n * n
    image = {neighbor_variable(v, n) for v in verts}
    assert image == set(slice_vars(n))


def oracle_variable(a, b, n):
    """The slice variable of the pair a < b: the least slice index (i < j
    with j > n) in its mirror class {(a, b), (2n+1-b, 2n+1-a)}."""
    return min(p for p in ((a, b), (2 * n + 1 - b, 2 * n + 1 - a)) if p[1] > n)


def oracle_neighbor_variables(n):
    """Each neighbour of w0(2n) mapped to its slice variable, from oracle_edge."""
    m = 2 * n
    pairs = combinations(range(1, m + 1), 2)
    return {oracle_edge(w0(m), t): oracle_variable(*t, n) for t in pairs}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_bottom_table_matches_transposition_oracle(n):
    # keyed by w0_neighbors in its order; every transposition reaching a
    # neighbour names that neighbour's variable
    m = 2 * n
    table = _bottom_table(n)
    assert list(table) == list(map(tuple, w0_neighbors(m).tolist()))
    named = {}
    for t in combinations(range(1, m + 1), 2):
        named.setdefault(oracle_edge(w0(m), t), set()).add(oracle_variable(*t, n))
    assert {u: {var} for u, var in table.items()} == named


def test_slice_ideal_excludes_exactly_the_neighbours_not_above():
    for n in (1, 2, 3, 4):
        bottom = sorted(oracle_neighbors(w0(2 * n)))
        for pi in enumerate_involutions(2 * n):
            want = [u for u in bottom if not bruhat_leq(pi, u)]
            assert [v for v, _ in slice_ideal(pi, n)] == want, pi


def test_minor_examples():
    p = (3, 4, 1, 2)
    assert minor_condition_ii(p, (1, 3, 2, 4), 2) == Poly.var((1, 4), 2)
    assert minor_condition_ii(p, (4, 2, 3, 1), 2) == Poly.var((2, 3), -2)
    assert minor_condition_ii((4, 2, 3, 1), (3, 4, 1, 2), 2) == Poly.var((3, 4))
    minor_i = dict(slice_ideal(p, 2))
    assert minor_i[(1, 3, 2, 4)] == Poly.var((1, 4), 2)
    assert minor_i[(4, 2, 3, 1)] == Poly.var((2, 3), 2)
    # well defined even when the degree test fails for the base involution
    assert dict(slice_ideal((2, 1, 4, 3), 2))[(1, 3, 2, 4)] == Poly.var((1, 4), 2)
    with pytest.raises(InInterval):
        minor_condition_ii(p, (3, 4, 1, 2), 2)


def test_slice_ideal_examples():
    ideal = slice_ideal((3, 4, 1, 2), 2)
    got = {v: p for v, p in ideal}
    assert set(got) == {(1, 3, 2, 4), (2, 1, 4, 3), (4, 2, 3, 1)}
    assert got[(1, 3, 2, 4)] == Poly.var((1, 4), 2)
    assert got[(2, 1, 4, 3)] == Poly.var((1, 3), 2)
    assert got[(4, 2, 3, 1)] in (Poly.var((2, 3), 2), Poly.var((2, 3), -2))
    assert slice_ideal(identity(4), 2) == []
    got = {v: p for v, p in slice_ideal((4, 2, 3, 1), 2)}
    assert got[(3, 4, 1, 2)] in (Poly.var((3, 4)), Poly.var((3, 4), -1))


def test_slice_ideal_rejects_non_involutions():
    # not a permutation, and a 3-cycle: neither indexes an orbit
    for bad in ((1, 1, 1, 1), (2, 3, 1, 4)):
        with pytest.raises(MalformedInput):
            slice_ideal(bad, 2)


def test_slice_ideal_takes_the_size_rule_on_n():
    for n in (True, None, 2.0, "2", 0, -1):
        with pytest.raises(MalformedInput):
            slice_ideal((2, 1, 4, 3), n)


def test_slice_ideal_builds_shared_data_once(monkeypatch):
    import flagorbits.geometry as geo

    pi = parse_perm("21436587")

    def run():
        ideal = slice_ideal(pi, 4)
        return ideal, [monomial_claim(pi, v, 4) for v, _ in ideal]

    run()  # warm-up: builds the n = 4 neighbour table and Gram matrix
    # canonical_var names every Gram entry and every neighbour's variable
    calls = {"w0_neighbors": 0, "canonical_var": 0, "prefix_violation": 0, "determinant": 0}
    for name in calls:
        real = getattr(geo, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(geo, name, counted)
    ideal, claims = run()
    assert all(claims)
    # slice_ideal's own minors only: every claim was decided in the warm-up
    assert calls == {
        "w0_neighbors": 0,
        "canonical_var": 0,
        "prefix_violation": 16 + len(ideal),
        "determinant": len(ideal),
    }


def test_slice_guard_fires_before_work(monkeypatch):
    import flagorbits.geometry as geo

    def no_work(*args):
        raise AssertionError("slice started work")

    for name in ("w0_neighbors", "prefix_violation", "determinant", "slice_gram"):
        monkeypatch.setattr(geo, name, no_work)
    for n, raised in ((7, TooLarge), (6, AssertionError)):  # the guard admits m = 12
        pi, v = identity(2 * n), min(neighbors(w0(2 * n)).neighbors)
        with pytest.raises(raised):
            slice_ideal(pi, n)
        for call in (minor_condition_ii, monomial_claim):
            with pytest.raises(raised):
                call(pi, v, n)
    with pytest.raises(TooLarge):
        neighbor_variable(w0(14), 7)


def _first_failure(u, v):
    """The least i, then the least j, with sorted(u[:i])[j-1] > sorted(v[:i])[j-1]."""
    for i in range(1, len(u) + 1):
        for j, (a, b) in enumerate(zip(sorted(u[:i]), sorted(v[:i])), start=1):
            if a > b:
                return i, j
    return None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_minors_against_sympy_determinants(n):
    # the Gram matrix as B J B^T in sympy, independent of slice_gram and determinant;
    # monomial_claim, cold and then warm, against the claim counted on the sympy minor (ii)
    import flagorbits.geometry as geo

    geo._claim.cache_clear()
    m = 2 * n
    syms = {v: sympy.Symbol(f"a{v[0]}_{v[1]}") for v in slice_vars(n)}

    def to_sympy(poly):
        return sympy.Add(*(
            c * sympy.Mul(*(syms[v] ** e for v, e in mono)) for mono, c in poly.terms.items()
        ))

    basis = sympy.Matrix([[to_sympy(p) for p in row] for row in slice_basis(n)])
    form = sympy.Matrix(m, m, lambda i, j: int(i + j == m - 1))
    gram = (basis * form * basis.T).applyfunc(sympy.expand)

    def oracle(rows, cols):
        return gram.extract([r - 1 for r in rows], [c - 1 for c in cols]).det(method="berkowitz")

    def sympy_claim(minor, x):
        gens = list(syms.values())
        pure = {tuple(e * (g == syms[x]) for g in gens) for e in (1, 2)}
        return sum(mono in pure for mono in sympy.Poly(minor, *gens).monoms()) == 1

    variables = oracle_neighbor_variables(n)
    bottom = sorted(neighbors(w0(m)).neighbors)
    claims = {}
    checked = 0
    for pi in enumerate_involutions(m):
        ideal = dict(slice_ideal(pi, n))
        for v in bottom:
            hit = _first_failure(pi, v)
            if hit is None:
                continue
            i, j = hit
            prefix = sorted(v[:i])
            rows_i = [v.index(x) + 1 for x in prefix[:j]]
            got_i = to_sympy(ideal[v])
            assert sympy.expand(oracle(rows_i, prefix[:j]) - got_i) == 0, (pi, v)
            want_ii = sympy.expand(oracle(range(1, i + 1), prefix))
            assert sympy.expand(want_ii - to_sympy(minor_condition_ii(pi, v, n))) == 0, (pi, v)
            claims[pi, v] = sympy_claim(want_ii, variables[v])
            assert monomial_claim(pi, v, n) == claims[pi, v], (pi, v)
            checked += 1
    assert checked == {1: 1, 2: 18, 3: 286}[n]
    misses = geo._claim.cache_info().misses
    assert all(monomial_claim(pi, v, n) == want for (pi, v), want in claims.items())
    assert geo._claim.cache_info().misses == misses  # the warm pass decides nothing again


def test_claim_table_matches_uncached_minors_at_n4():
    # the claim counted on a fresh minor_condition_ii per pair, as the claim was
    # decided before it had a table; the table's keys stay within n^2 * 2n
    import flagorbits.geometry as geo

    n = 4
    variables = oracle_neighbor_variables(n)
    geo._claim.cache_clear()
    pairs = 0
    for pi in enumerate_involutions(2 * n):
        for v, x in variables.items():
            if bruhat_leq(pi, v):
                continue
            count = sum(
                1
                for mono in minor_condition_ii(pi, v, n).terms
                if len(mono) == 1 and mono[0][0] == x and mono[0][1] in (1, 2)
            )
            assert monomial_claim(pi, v, n) == (count == 1), (pi, v)
            pairs += 1
    info = geo._claim.cache_info()
    assert info.hits + info.misses == pairs
    assert info.misses == info.currsize <= n * n * 2 * n


def test_monomial_claim_holds_for_every_minor_up_to_m10():
    # every (pi, v) with v a neighbour of w0 outside I_pi, for every involution with m <= 10
    pairs = {}
    for n in range(1, 6):
        bottom = list(map(tuple, w0_neighbors(2 * n).tolist()))
        pairs[n] = 0
        for pi in enumerate_involutions(2 * n):
            for v in bottom:
                try:
                    holds = monomial_claim(pi, v, n)
                except InInterval:
                    continue
                assert holds, (pi, v)
                pairs[n] += 1
    assert pairs == {1: 1, 2: 18, 3: 286, 4: 4_718, 5: 84_592}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_slice_ideal_count_and_monomial_claim(n):
    m = 2 * n
    for pi in enumerate_involutions(m):
        if w0_degree(pi) != rank(pi):
            continue
        ideal = slice_ideal(pi, n)
        assert len(ideal) == max_rank(m) - rank(pi)
        for v, poly in ideal:
            assert poly
            assert poly.coefficient(()) == 0  # vanishes at the origin
            assert monomial_claim(pi, v, n)


def rank_oracle(rows):
    """Rank over Q by plain Fraction row reduction."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            for c in range(col, ncols):
                rows[r][c] -= f * rows[rank][c]
        rank += 1
    return rank


def gram_oracle(flag):
    """G = F J F^T under the antidiagonal form."""
    m = len(flag)
    return [
        [sum((Fraction(a[k]) * b[m - 1 - k] for k in range(m)), Fraction(0)) for b in flag]
        for a in flag
    ]


def rank_table_oracle(gram):
    """table[i][j] = rank of the leading i x j block, one elimination each."""
    m = len(gram)
    return [
        [rank_oracle([row[:j] for row in gram[:i]]) if i and j else 0 for j in range(m + 1)]
        for i in range(m + 1)
    ]


def orbit_from_rank_table(table):
    """pi(i) is the first column where row i increments the rank table."""
    m = len(table) - 1
    return tuple(
        next(j for j in range(1, m + 1) if table[i][j] == table[i - 1][j] + 1)
        for i in range(1, m + 1)
    )


def random_flag(rng, m, sparse):
    """Independent rows: dense random rationals, or a scrambled permutation
    matrix with a few extra entries (so that small orbits occur)."""
    while True:
        if sparse:
            cols = rng.sample(range(m), m)
            rows = [[Fraction(0)] * m for _ in range(m)]
            for i, c in enumerate(cols):
                rows[i][c] = Fraction(rng.randint(1, 5))
            for _ in range(rng.randint(0, m)):
                extra = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                rows[rng.randrange(m)][rng.randrange(m)] = extra
        else:
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(m)]
                for _ in range(m)
            ]
        if rank_oracle(rows) == m:
            return flag_matrix(rows)


def test_orbit_of_flag_matches_rank_table_oracle():
    rng = random.Random(2017)
    seen = set()
    for m in range(1, 11):
        flags = [random_flag(rng, m, sparse) for sparse in (False, False, True, True, True)]
        if m % 2 == 0:
            variables = slice_vars(m // 2)
            for _ in range(3):
                chosen = rng.sample(variables, max(1, len(variables) // 4))
                vals = {v: Fraction(rng.randint(1, 9), rng.randint(1, 5)) for v in chosen}
                flags.append(specialize_basis(m // 2, vals))
        for flag in flags:
            table = rank_table_oracle(gram_oracle(flag))
            pi = orbit_of_flag(flag)
            assert pi == orbit_from_rank_table(table)
            assert is_involution(pi)  # G is symmetric
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    assert table[i][j] == sum(1 for k in range(i) if pi[k] <= j)
            seen.add(pi)
    # the sparse flags reach orbits other than the open one at every size m > 1
    assert all(any(len(pi) == m and pi != identity(m) for pi in seen) for m in range(2, 11))


def test_orbit_of_flag_identity_flags():
    for m in range(2, 9):
        ident = flag_matrix(
            [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        )
        assert orbit_of_flag(ident) == w0(m)


def test_orbit_of_flag_a34_specialization():
    flag = specialize_basis(2, {(3, 4): Fraction(1)})
    assert orbit_of_flag(flag) == (3, 4, 1, 2)


def test_orbit_of_flag_generic_is_open_orbit():
    rng = random.Random(99)
    for n in (1, 2, 3):
        for _ in range(5):
            vals = {
                v: Fraction(rng.randint(1, 30), rng.randint(1, 7))
                for v in slice_vars(n)
            }
            assert orbit_of_flag(specialize_basis(n, vals)) == identity(2 * n)


def test_orbit_of_flag_linear_ideal_specialization():
    # zeroing the ideal's variables lands weakly above the base involution
    for n in (2, 3):
        rng = random.Random(7 * n)
        for pi in enumerate_involutions(2 * n):
            if w0_degree(pi) != rank(pi):
                continue
            ideal = slice_ideal(pi, n)
            # only usable when every generator is a single linear monomial
            linear = all(
                len(poly.terms) == 1
                and all(len(mono) == 1 and mono[0][1] == 1 for mono in poly.terms)
                for _, poly in ideal
            )
            if not linear:
                continue
            killed = {
                mono[0][0] for _, poly in ideal for mono in poly.terms
            }
            vals = {
                v: Fraction(0) if v in killed else Fraction(rng.randint(1, 9))
                for v in slice_vars(n)
            }
            assert all(poly.evaluate(vals) == 0 for _, poly in ideal)
            v = orbit_of_flag(specialize_basis(n, vals))
            assert bruhat_leq(pi, v)


def test_orbit_of_flag_degenerate():
    with pytest.raises(DegenerateFlag):
        orbit_of_flag(flag_matrix([[1, 0], [1, 0]]))


def dependent_flags(rng, m):
    """A flag with a zero row, and one whose last row is a rational
    combination of the m - 1 independent rows above it."""
    rows = [list(row) for row in random_flag(rng, m, sparse=False)]
    zero_row = rows[:2] + [[Fraction(0)] * m] + rows[3:]
    coeffs = [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(m - 1)]
    last = [sum((c * row[k] for c, row in zip(coeffs, rows)), Fraction(0)) for k in range(m)]
    combo = rows[:-1] + [last]
    # rows 1..m-1 of G are independent, so every pivot but the last is found
    assert rank_oracle(gram_oracle(combo)[:-1]) == m - 1
    return flag_matrix(zero_row), flag_matrix(combo)


@pytest.mark.parametrize("m", [5, 8])
def test_orbit_of_flag_degenerate_past_2x2(m, tmp_path, capsys):
    zero_row, combo = dependent_flags(random.Random(m), m)
    for flag in (zero_row, combo):
        with pytest.raises(DegenerateFlag):
            orbit_of_flag(flag)
    path = tmp_path / "flag.txt"
    path.write_text(format_flag_file(combo))
    assert main(["orbit-of-flag", str(path)]) == 65
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "flagorbits: malformed input: flag rows are linearly dependent\n"


def test_orbit_of_flag_rejects_malformed_shapes():
    with pytest.raises(MalformedInput):
        orbit_of_flag(((1, 0, 0), (0, 1, 0)))  # 2 x 3
    with pytest.raises(MalformedInput):
        orbit_of_flag(())
    for token in ("x", "1/0", "1E5"):
        with pytest.raises(MalformedInput):
            orbit_of_flag([[token]])


@pytest.mark.parametrize(
    "flag",
    [[[float("inf")]], [[None]], [None], [[None, None], [1, 2]], 5],
    ids=["inf-entry", "none-entry", "none-row", "none-row-of-two", "int-flag"],
)
def test_orbit_of_flag_refuses_malformed_flags(flag):
    with pytest.raises(MalformedInput):
        orbit_of_flag(flag)


def test_flag_guard_fires_before_any_fraction(monkeypatch):
    import flagorbits.geometry as geo

    big = [[int(i == j) for j in range(FLAG_SIZE_GUARD + 1)] for i in range(FLAG_SIZE_GUARD + 1)]
    text = format_flag_file(big)

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(geo, "Fraction", no_fraction)
    for call in (lambda: flag_matrix(big), lambda: orbit_of_flag(big), lambda: parse_flag_file(text)):
        with pytest.raises(TooLarge):
            call()
    monkeypatch.undo()
    at_guard = [row[1:] for row in big[1:]]
    assert orbit_of_flag(at_guard) == w0(FLAG_SIZE_GUARD)  # the guard admits m = 64


def test_flag_file_round_trip():
    flag = flag_matrix([[Fraction(1, 2), 0], [3, Fraction(-2, 5)]])
    text = format_flag_file(flag)
    assert parse_flag_file(text) == flag
    with pytest.raises(MalformedInput):
        parse_flag_file("2\n1 0\n")
    with pytest.raises(MalformedInput):
        parse_flag_file("2\n1 0\nx y\n")


def test_polynomial_determinant_against_numeric():
    rng = random.Random(11)
    g = slice_gram(3)
    vals = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for v in slice_vars(3)}
    num = [[e.evaluate(vals) for e in row] for row in g]

    def det_oracle(rows_idx, cols_idx):
        import itertools

        total = Fraction(0)
        k = len(rows_idx)
        for perm in itertools.permutations(range(k)):
            sign = 1
            for i in range(k):
                for j in range(i + 1, k):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = Fraction(1)
            for i in range(k):
                prod *= num[rows_idx[i] - 1][cols_idx[perm[i]] - 1]
            total += sign * prod
        return total

    for rows_idx, cols_idx in [
        ((1, 2), (2, 4)),
        ((1, 2, 3), (1, 2, 3)),
        ((2, 3, 4), (1, 3, 5)),
        ((1, 2, 3, 4), (2, 3, 4, 5)),
    ]:
        sym = determinant(g, rows_idx, cols_idx)
        assert sym.evaluate(vals) == det_oracle(rows_idx, cols_idx)
