from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flagorbits.errors import MalformedInput, TooLarge
from flagorbits.perms import (
    enumerate_involutions,
    fixed_points,
    insert_fixed_point,
    involution_rows,
    is_involution,
    parse_perm,
    w0,
)
from flagorbits.patterns import (
    BAD_PATTERNS,
    EVEN_FIXED_BETWEEN,
    PATTERN_1324,
    PATTERN_2143,
    QUALIFIED_2143,
    SINGULAR,
    SPECS,
    PatternSpec,
    _level_masks,
    occurrences,
    pattern_masks,
    qualified_2143,
    standardize,
)
from flagorbits.smoothness import classify


def test_occurrences_qualified_examples():
    hits = occurrences(parse_perm("21354687"), QUALIFIED_2143)
    assert [(h.indices, h.fixed_between) for h in hits] == [((1, 2, 7, 8), 2)]
    assert occurrences(parse_perm("21354"), QUALIFIED_2143) == []
    hits = occurrences(PATTERN_2143, QUALIFIED_2143)
    assert len(hits) == 1 and hits[0].fixed_between == 0


def test_contains_examples():
    cases = [
        ((3, 4, 1, 2), PatternSpec(PATTERN_2143), False),
        (parse_perm("14325"), PatternSpec(parse_perm("14325")), True),
        (parse_perm("21435"), QUALIFIED_2143, True),
    ]
    masks = [pattern_masks(np.array([pi], dtype=np.int8))[0] for pi, _, _ in cases]
    for (pi, spec, contained), mask in zip(cases, masks):
        assert bool(mask >> SPECS.index(spec) & 1) == contained
        assert bool(occurrences(pi, spec)) == contained


def test_bad_patterns_list():
    specs = BAD_PATTERNS
    assert len(specs) == 24
    assert specs[10].pattern == parse_perm("2137654")
    assert specs[0].pattern == parse_perm("14325")
    assert specs[-1].pattern == parse_perm("749258163")
    for spec in specs:
        assert is_involution(spec.pattern)
        assert spec.qualifier is None


def test_pattern_spec_holds_the_validated_tuple():
    spec = PatternSpec([2, 1, 4, 3])
    assert spec.pattern == PATTERN_2143 and spec == PatternSpec(PATTERN_2143)
    assert hash(spec) == hash(PatternSpec(PATTERN_2143))


def test_specs_layout():
    assert SPECS[:24] == BAD_PATTERNS
    assert SPECS[24:] == (QUALIFIED_2143, PatternSpec(PATTERN_2143), PatternSpec(PATTERN_1324))


def _oracle_mask(pi):
    return sum(1 << k for k, spec in enumerate(SPECS) if occurrences(pi, spec))


def _tuples(m):
    """The involutions of S_m as tuples, m = 0 included (`enumerate_involutions` starts at 1)."""
    return list(map(tuple, involution_rows(m).tolist()))


def test_masks_match_occurrences_exhaustively():
    # every bit, the qualified 2143 included, on every involution up to m=8
    for m in range(0, 9):
        invs = _tuples(m)
        assert pattern_masks(involution_rows(m)).tolist() == [_oracle_mask(pi) for pi in invs], m


def _dict_masks(invs):
    """A second oracle: the orbit-deletion DP memoised in a dict, per
    involution, with the qualified 2143 from fixed-point prefix counts."""
    own = {spec.pattern: 1 << k for k, spec in enumerate(SPECS) if not spec.qualifier}
    memo = {(): 0}

    def deletion_mask(pi):
        if pi not in memo:
            bits = own.get(pi, 0)
            for i, v in enumerate(pi, start=1):
                if v >= i:  # delete the orbit {i, v}, relabelling the rest
                    child = tuple(w - (w > i) - (w > v > i) for w in pi if w != i and w != v)
                    bits |= deletion_mask(child)
            memo[pi] = bits
        return memo[pi]

    qualified = 1 << SPECS.index(QUALIFIED_2143)
    return [deletion_mask(pi) | qualified * _prefix_count_2143(pi) for pi in invs]


def _prefix_count_2143(pi):
    """2143 with an even number of fixed points strictly between the pairs."""
    fixed_upto = list(accumulate((v == i for i, v in enumerate(pi, start=1)), initial=0))
    cycles = [(i, v) for i, v in enumerate(pi, start=1) if v > i]
    # two 2-cycles (a, b), (c, d) form a 2143 exactly when b < c
    between = (fixed_upto[c - 1] - fixed_upto[b] for _, b in cycles for c, _ in cycles if b < c)
    return any(count % 2 == 0 for count in between)


def test_masks_match_dict_dp():
    for m in range(0, 11):
        assert pattern_masks(involution_rows(m)).tolist() == _dict_masks(_tuples(m)), m


def test_qualified_2143_matches_prefix_counts():
    for m in range(0, 11):
        got = qualified_2143(involution_rows(m)).tolist()
        assert got == [_prefix_count_2143(pi) for pi in _tuples(m)], m


def test_classify_builds_tables_below_its_size_only():
    _level_masks.cache_clear()
    classify(parse_perm("2,1,4,3,6,5,8,7,10,9,11,12"))
    assert _level_masks.cache_info().currsize == 12
    for k in range(12):
        _level_masks(k)
    assert _level_masks.cache_info().currsize == 12  # exactly the sizes 0..11


def left_multiply(t, p):
    """t p for the transposition t = (a, b): swap the values a and b in p."""
    a, b = t
    return tuple(b if v == a else a if v == b else v for v in p)


@st.composite
def involutions(draw, max_size=12):
    m = draw(st.integers(0, max_size))
    order = draw(st.permutations(range(1, m + 1)))
    pairs = draw(st.integers(0, m // 2))
    pi = list(range(1, m + 1))
    for a, b in zip(order[: 2 * pairs : 2], order[1 : 2 * pairs : 2]):
        pi[a - 1], pi[b - 1] = b, a
    return tuple(pi)


@st.composite
def around_2143(draw, max_size=12):
    """A 2143 with fixed points between its pairs, in random other orbits."""
    between = draw(st.integers(0, 4))
    pi = (2, 1) + tuple(range(3, between + 3)) + (between + 4, between + 3)
    while len(pi) < max_size and draw(st.booleans()):
        pi = insert_fixed_point(pi, draw(st.integers(1, len(pi) + 1)))
    fixed = fixed_points(pi)
    for _ in range(draw(st.integers(0, len(fixed) // 2))):
        a, b = sorted(draw(st.sampled_from(fixed)) for _ in range(2))
        if a < b and pi[a - 1] == a and pi[b - 1] == b:
            pi = left_multiply((a, b), pi)
    return pi


@settings(max_examples=40, deadline=None)
@given(st.one_of(involutions(), around_2143()))
@example(parse_perm("21354"))  # one fixed point between the pairs
@example(parse_perm("213465"))  # two between
@example(parse_perm("21354687"))  # the outer pairs have two between
def test_masks_match_occurrences_random(pi):
    assert pattern_masks(np.array([pi], dtype=np.int8)).tolist() == [_oracle_mask(pi)]


def test_masks_of_mixed_sizes():
    invs = [parse_perm("21354687"), (1,), parse_perm("2143"), (), parse_perm("426153")]
    for pi in invs:  # one call per size
        assert pattern_masks(np.array([pi], dtype=np.int8)).tolist() == [_oracle_mask(pi)]


def test_pattern_masks_guard_fires_before_work(monkeypatch):
    # a 13-wide row would otherwise enumerate every S_k, k <= 12, for the tables
    import flagorbits.patterns as pat

    def no_work(*args):
        raise AssertionError("work ran past the guard")

    monkeypatch.setattr(pat, "involution_rows", no_work)
    _level_masks.cache_clear()
    try:
        with pytest.raises(TooLarge):
            pattern_masks(np.array([w0(13)], dtype=np.int8))
    finally:
        _level_masks.cache_clear()


def test_pattern_spec_validation():
    with pytest.raises(MalformedInput):
        PatternSpec((2, 3, 1))  # not an involution
    with pytest.raises(MalformedInput):
        PatternSpec((1, 2), EVEN_FIXED_BETWEEN)  # qualifier only for 2143


def _oracle_singular(pi):
    return any(occurrences(pi, spec) for spec in SPECS[:SINGULAR])


def test_pattern_singular():
    for pi, singular in [(PATTERN_2143, True), ((3, 4, 1, 2), False), (parse_perm("14325"), True)]:
        assert classify(pi).pattern_singular == _oracle_singular(pi) == singular
    certs = classify(parse_perm("14325")).certificates
    assert any(spec.pattern == parse_perm("14325") for spec, _ in certs)


def test_conjectured_flags():
    # (pi, conjectured rationally smooth, conjectured smooth)
    for pi, rat_smooth, smooth in [
        (PATTERN_1324, True, False),
        ((3, 4, 1, 2), True, True),
        (PATTERN_2143, False, False),
    ]:
        rep = classify(pi)
        assert rep.conjectured_rationally_smooth == (not _oracle_singular(pi)) == rat_smooth
        assert rep.conjectured_smooth == (_oracle_mask(pi) == 0) == smooth


def test_self_containment_unique_hit():
    for m in range(1, 7):
        for pi in enumerate_involutions(m):
            hits = occurrences(pi, PatternSpec(pi))
            assert len(hits) == 1
            assert hits[0].indices == tuple(range(1, m + 1))


def _is_invariant(pi, indices):
    s = set(indices)
    return all(pi[i - 1] in s for i in s)


def test_hits_are_invariant_and_standardize():
    # independent re-verification of every hit on a mixed sample
    sample = [
        parse_perm("21354687"),
        parse_perm("2137654"),
        parse_perm("21435"),
        parse_perm("4321576"),
    ]
    specs = [QUALIFIED_2143, PatternSpec(PATTERN_2143), PatternSpec(PATTERN_1324)]
    specs += BAD_PATTERNS[:8]
    for pi in sample:
        for spec in specs:
            if len(spec.pattern) > len(pi):
                continue
            for hit in occurrences(pi, spec):
                assert _is_invariant(pi, hit.indices)
                values = tuple(pi[i - 1] for i in hit.indices)
                order = {v: k for k, v in enumerate(sorted(values), start=1)}
                assert tuple(order[v] for v in values) == spec.pattern


def test_fixed_between_counts_strictly_inside():
    # endpoints of the pairs are never counted; only fixed points of pi
    pi = parse_perm("21354687")
    hits = occurrences(pi, PatternSpec(PATTERN_2143))
    by_idx = {h.indices: h.fixed_between for h in hits}
    assert by_idx[(1, 2, 4, 5)] == 1  # fixed point 3
    assert by_idx[(1, 2, 7, 8)] == 2  # fixed points 3 and 6
    assert by_idx[(4, 5, 7, 8)] == 1  # fixed point 6
    assert set(by_idx) == {(1, 2, 4, 5), (1, 2, 7, 8), (4, 5, 7, 8)}


def test_standardize():
    assert standardize((5, 1, 9)) == (2, 1, 3)
    assert standardize((4, 3, 2, 1)) == (4, 3, 2, 1)
