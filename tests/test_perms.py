import itertools
import math

import numpy as np
import pytest

from definitions import compose, conjugate, transposition
from flagorbits.errors import MalformedInput, PositionOutOfRange, SizeMismatch, TooLarge
from flagorbits.perms import (
    all_transpositions,
    enumerate_involutions,
    fixed_points,
    format_perm,
    identity,
    insert_fixed_point,
    involution_count,
    involution_rows,
    is_involution,
    key_rows,
    parse_perm,
    row_keys,
    two_cycles,
    validate_involution,
    validate_perm,
    w0,
    w0_class,
    w0_class_rows,
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
                # delete the fixed point at pos: drop it and shift larger values down
                rest = sigma[: pos - 1] + sigma[pos:]
                assert tuple(v - (v > pos) for v in rest) == pi


def test_enumeration_counts_and_order():
    assert enumerate_involutions(1) == [(1,)]
    assert len(enumerate_involutions(4)) == 10
    assert len(enumerate_involutions(8)) == 764
    with pytest.raises(MalformedInput):
        enumerate_involutions(0)  # involution_rows(0) is checked with the other row counts
    for m in range(1, 9):
        invs = enumerate_involutions(m)
        assert len(invs) == involution_count(m)
        assert invs == sorted(invs)
        assert len(set(invs)) == len(invs)
        assert all(is_involution(p) for p in invs)


def test_involution_rows_count_order_and_cycle_type():
    for m in range(0, 13):
        rows = involution_rows(m)
        assert rows.dtype == np.int8 and rows.shape == (involution_count(m), m)
        positions = np.arange(1, m + 1)
        assert (np.take_along_axis(rows, rows.astype(np.intp) - 1, axis=1) == positions).all()
        assert (np.diff(row_keys(rows)) > 0).all()  # strictly lexicographic


def test_key_rows_invert_row_keys():
    for m in range(0, 10):
        rows = involution_rows(m)
        back = key_rows(row_keys(rows), m)
        assert back.dtype == np.int8 and np.array_equal(back, rows), m
    rng = np.random.default_rng(25)
    for m in range(12, 16):
        rows = np.array([w0(m)] + [rng.permutation(m) + 1 for _ in range(200)], dtype=np.int8)
        assert np.array_equal(key_rows(row_keys(rows), m), rows), m


def test_row_keys_refuse_widths_past_int64():
    # 16^15 < 2^63 < 17^16: the largest key of width 15 is exact, width 16 is refused
    assert row_keys(np.array([w0(15)], dtype=np.int8))[0] == sum(
        v * 16 ** (14 - k) for k, v in enumerate(w0(15))
    )
    with pytest.raises(TooLarge):
        row_keys(np.zeros((0, 16), dtype=np.int8))


def test_enumeration_matches_brute_force():
    for m in range(0, 6):
        brute = sorted(
            p
            for p in itertools.permutations(range(1, m + 1))
            if is_involution(p)
        )
        assert list(map(tuple, involution_rows(m).tolist())) == brute
        if m:
            assert enumerate_involutions(m) == brute
    for m in (0, -1):
        with pytest.raises(MalformedInput):
            enumerate_involutions(m)


def test_enumeration_guard_fires_before_work(monkeypatch):
    import flagorbits.perms as perms

    def no_work(*args):
        raise AssertionError("enumeration started work")

    monkeypatch.setattr(perms, "involution_rows", no_work)
    for call in (enumerate_involutions, w0_class):
        with pytest.raises(TooLarge):
            call(13)
        with pytest.raises(AssertionError):
            call(12)  # the guard admits m = 12


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


def test_w0_class_rows_count_cycle_type_and_order():
    # (m-1)!! perfect matchings at even m; at odd m, m choices of the fixed
    # point times a matching of the rest
    for m in range(1, 13):
        rows = w0_class_rows(m)
        count = math.prod(range(m - 1, 0, -2)) if m % 2 == 0 else m * math.prod(range(m - 2, 0, -2))
        assert rows.dtype == np.int8 and rows.shape == (count, m), m
        positions = np.arange(1, m + 1)
        assert (np.take_along_axis(rows, rows.astype(np.intp) - 1, axis=1) == positions).all()
        assert ((rows == positions).sum(axis=1) == m % 2).all()
        assert (np.diff(row_keys(rows)) > 0).all()  # strictly lexicographic


def test_validate_perm_rejects_non_bijection():
    with pytest.raises(MalformedInput):
        validate_perm([1, 1, 3])


def test_validate_involution():
    assert validate_involution([2, 1, 3]) == (2, 1, 3)
    assert not is_involution((5,))  # an entry outside 1..m, not an IndexError
    for bad in ((), (5,), (1, 1), (3, 1, 2, 4), (2, 3, 1)):
        with pytest.raises(MalformedInput):
            validate_involution(bad)
