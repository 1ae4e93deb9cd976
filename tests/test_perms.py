import itertools

import pytest

from flagorbits.errors import MalformedInput, PositionOutOfRange, SizeMismatch
from flagorbits.perms import (
    all_transpositions,
    compose,
    conjugate,
    delete_position,
    enumerate_involutions,
    fixed_points,
    format_perm,
    identity,
    insert_fixed_point,
    inverse,
    involution_count,
    is_involution,
    parse_perm,
    transposition,
    two_cycles,
    validate_perm,
    w0,
    w0_class,
)


def test_parse_digit_string():
    assert parse_perm("21435") == (2, 1, 4, 3, 5)
    assert parse_perm("1") == (1,)


def test_parse_comma_form():
    p = parse_perm("10,2,3,4,5,6,7,8,9,1")
    assert len(p) == 10 and p[0] == 10 and p[9] == 1
    assert is_involution(p)


@pytest.mark.parametrize("text", ["", "12a", "122", "130", "1,2,2", "0,1"])
def test_parse_rejects(text):
    with pytest.raises(MalformedInput):
        parse_perm(text)


def test_format_round_trip_exhaustive_small():
    for m in range(1, 6):
        for p in itertools.permutations(range(1, m + 1)):
            assert parse_perm(format_perm(p)) == p


def test_format_uses_commas_above_nine():
    p = tuple(range(1, 11))
    assert "," in format_perm(p)
    assert parse_perm(format_perm(p)) == p


def test_w0():
    assert w0(4) == (4, 3, 2, 1)
    assert w0(1) == (1,)
    assert w0(5) == (5, 4, 3, 2, 1)


def _compose_oracle(p, q):
    # independent table-based evaluation of (p o q)(i) = p(q(i))
    table = {i: v for i, v in enumerate(p, start=1)}
    return tuple(table[q[i - 1]] for i in range(1, len(p) + 1))


def test_compose():
    t23 = (1, 3, 2, 4)
    assert compose(t23, (4, 3, 2, 1)) == (4, 2, 3, 1)
    for p in itertools.permutations(range(1, 5)):
        assert compose(identity(4), p) == p
        assert compose(p, inverse(p)) == identity(4)
        for q in itertools.permutations(range(1, 5)):
            assert compose(p, q) == _compose_oracle(p, q)


def test_compose_size_mismatch():
    with pytest.raises(SizeMismatch):
        compose((1, 2), (1, 2, 3))


def test_conjugate_examples():
    assert conjugate((4, 3, 2, 1), (1, 3)) == (2, 1, 4, 3)
    assert conjugate((4, 3, 2, 1), (1, 4)) == (4, 3, 2, 1)
    assert conjugate(identity(5), (2, 5)) == identity(5)


def test_conjugate_matches_composition_oracle():
    for mu in enumerate_involutions(5):
        for a, b in all_transpositions(5):
            t = transposition(a, b, 5)
            expected = compose(t, compose(mu, t))
            got = conjugate(mu, (a, b))
            assert got == expected
            assert is_involution(got)
            assert conjugate(got, (a, b)) == mu  # involutive


def test_fixed_points_and_cycles():
    assert fixed_points((2, 1, 3, 5, 4)) == (3,)
    assert two_cycles((2, 1, 3, 5, 4)) == ((1, 2), (4, 5))
    assert fixed_points(identity(4)) == (1, 2, 3, 4)
    assert two_cycles(identity(4)) == ()
    assert fixed_points(w0(4)) == ()
    assert two_cycles(w0(4)) == ((1, 4), (2, 3))


def test_insert_fixed_point_examples():
    assert insert_fixed_point((2, 1, 4, 3), 5) == (2, 1, 4, 3, 5)
    assert insert_fixed_point((2, 1, 4, 3), 3) == (2, 1, 3, 5, 4)
    assert insert_fixed_point((1,), 1) == (1, 2)
    with pytest.raises(PositionOutOfRange):
        insert_fixed_point((1, 2), 4)


def test_insert_delete_round_trip_exhaustive():
    for m in range(1, 7):
        for pi in enumerate_involutions(m):
            for pos in range(1, m + 2):
                sigma = insert_fixed_point(pi, pos)
                assert sigma[pos - 1] == pos
                assert is_involution(sigma)
                assert delete_position(sigma, pos) == pi


def test_enumeration_counts_and_order():
    assert enumerate_involutions(1) == [(1,)]
    assert len(enumerate_involutions(4)) == 10
    assert len(enumerate_involutions(8)) == 764
    for m in range(0, 9):
        invs = enumerate_involutions(m)
        assert len(invs) == involution_count(m)
        assert invs == sorted(invs)
        assert len(set(invs)) == len(invs)
        assert all(is_involution(p) for p in invs)


def test_enumeration_matches_brute_force():
    for m in range(0, 6):
        brute = sorted(
            p
            for p in itertools.permutations(range(1, m + 1))
            if is_involution(p)
        )
        assert enumerate_involutions(m) == brute
    with pytest.raises(MalformedInput):
        enumerate_involutions(-1)


def test_w0_class():
    assert sorted(w0_class(4)) == [(2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    assert w0_class(2) == [(2, 1)]
    cls5 = w0_class(5)
    assert len(cls5) == 15
    assert all(len(fixed_points(p)) == 1 for p in cls5)
    for m in range(1, 8):
        # same members in the same lexicographic order
        want = [p for p in enumerate_involutions(m) if len(two_cycles(p)) == m // 2]
        assert w0_class(m) == want


def test_validate_perm_rejects_non_bijection():
    with pytest.raises(MalformedInput):
        validate_perm([1, 1, 3])
