import pytest
from hypothesis import example, given, settings, strategies as st

from flagorbits.errors import MalformedInput
from flagorbits.perms import (
    enumerate_involutions,
    fixed_points,
    insert_fixed_point,
    is_involution,
    left_multiply,
    parse_perm,
)
from flagorbits.patterns import (
    EVEN_FIXED_BETWEEN,
    PATTERN_1324,
    PATTERN_2143,
    QUALIFIED_2143,
    SPECS,
    PatternSpec,
    bad_patterns,
    conjectured_rationally_smooth,
    conjectured_smooth,
    contains,
    occurrences,
    pattern_masks,
    pattern_singular,
    standardize,
)


def test_occurrences_qualified_examples():
    hits = occurrences(parse_perm("21354687"), QUALIFIED_2143)
    assert [(h.indices, h.fixed_between) for h in hits] == [((1, 2, 7, 8), 2)]
    assert occurrences(parse_perm("21354"), QUALIFIED_2143) == []
    hits = occurrences(PATTERN_2143, QUALIFIED_2143)
    assert len(hits) == 1 and hits[0].fixed_between == 0


def test_contains_examples():
    assert not contains((3, 4, 1, 2), PatternSpec(PATTERN_2143))
    assert contains(parse_perm("14325"), PatternSpec(parse_perm("14325")))
    assert contains(parse_perm("21435"), QUALIFIED_2143)


def test_bad_patterns_list():
    specs = bad_patterns()
    assert len(specs) == 24
    assert specs[10].pattern == parse_perm("2137654")
    assert specs[0].pattern == parse_perm("14325")
    assert specs[-1].pattern == parse_perm("749258163")
    for spec in specs:
        assert is_involution(spec.pattern)
        assert spec.qualifier is None


def test_bad_patterns_returns_a_copy():
    specs = bad_patterns()
    specs.clear()
    assert len(bad_patterns()) == 24


def test_specs_layout():
    assert SPECS[:24] == tuple(bad_patterns())
    assert SPECS[24:] == (QUALIFIED_2143, PatternSpec(PATTERN_2143), PatternSpec(PATTERN_1324))


def _oracle_mask(pi):
    return sum(1 << k for k, spec in enumerate(SPECS) if occurrences(pi, spec))


def test_masks_match_occurrences_exhaustively():
    # every bit, the qualified 2143 included, on every involution up to m=8
    for m in range(0, 9):
        invs = enumerate_involutions(m)
        assert pattern_masks(invs) == [_oracle_mask(pi) for pi in invs], m


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
    assert pattern_masks([pi]) == [_oracle_mask(pi)]


def test_masks_of_mixed_sizes():
    invs = [parse_perm("21354687"), (1,), parse_perm("2143"), (), parse_perm("426153")]
    assert pattern_masks(invs) == [_oracle_mask(pi) for pi in invs]


def test_pattern_spec_validation():
    with pytest.raises(MalformedInput):
        PatternSpec((2, 3, 1))  # not an involution
    with pytest.raises(MalformedInput):
        PatternSpec((1, 2), EVEN_FIXED_BETWEEN)  # qualifier only for 2143


def test_pattern_singular():
    assert pattern_singular(PATTERN_2143)[0]
    assert not pattern_singular((3, 4, 1, 2))[0]
    singular, certs = pattern_singular(parse_perm("14325"))
    assert singular
    assert any(spec.pattern == parse_perm("14325") for spec, _ in certs)


def test_conjectured_flags():
    assert conjectured_rationally_smooth(PATTERN_1324)
    assert not conjectured_smooth(PATTERN_1324)
    assert conjectured_rationally_smooth((3, 4, 1, 2))
    assert conjectured_smooth((3, 4, 1, 2))
    assert not conjectured_rationally_smooth(PATTERN_2143)
    assert not conjectured_smooth(PATTERN_2143)


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
    specs += bad_patterns()[:8]
    for pi in sample:
        for spec in specs:
            if len(spec.pattern) > len(pi):
                continue
            for hit in occurrences(pi, spec):
                assert _is_invariant(pi, hit.indices)
                values = tuple(pi[i - 1] for i in hit.indices)
                order = {v: k for k, v in enumerate(sorted(values), start=1)}
                assert tuple(order[v] for v in values) == spec.pattern
                assert hit.induced == spec.pattern


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
