import itertools

import pytest

from flagorbits.errors import SizeMismatch
from flagorbits.perms import (
    all_transpositions,
    enumerate_involutions,
    identity,
    involution_count,
    left_multiply,
    w0,
)
from flagorbits.bruhat import (
    bruhat_leq,
    codim,
    dominance,
    interval,
    max_rank,
    prefix_violation,
    rank,
)


def _inversions(p):
    return sum(
        1
        for i in range(len(p))
        for j in range(i + 1, len(p))
        if p[i] > p[j]
    )


def _bruhat_oracle(m):
    """Full order on S_m by transitive closure of length-increasing
    transposition covers; independent of the sorted-prefix test."""
    perms = list(itertools.permutations(range(1, m + 1)))
    idx = {p: k for k, p in enumerate(perms)}
    above = [set() for _ in perms]
    by_length = sorted(perms, key=_inversions, reverse=True)
    for p in by_length:
        k = idx[p]
        above[k].add(k)
        lp = _inversions(p)
        for t in all_transpositions(m):
            q = left_multiply(t, p)
            if _inversions(q) == lp + 1:
                above[k] |= above[idx[q]]
    return perms, idx, above


@pytest.mark.parametrize("m", [2, 3, 4])
def test_leq_matches_cover_chain_oracle(m):
    perms, idx, above = _bruhat_oracle(m)
    for u in perms:
        for v in perms:
            assert bruhat_leq(u, v) == (idx[v] in above[idx[u]])


def test_leq_examples():
    assert bruhat_leq((2, 1, 4, 3), (4, 3, 2, 1))
    assert not bruhat_leq((1, 3, 2, 4), (2, 1, 4, 3))
    for p in itertools.permutations(range(1, 5)):
        assert bruhat_leq(p, p)


def test_leq_size_mismatch():
    with pytest.raises(SizeMismatch):
        bruhat_leq((1, 2), (1, 2, 3))
    with pytest.raises(SizeMismatch):
        prefix_violation((2, 1), (1, 2, 3))


def _first_failure(u, v):
    """The definition: least i, then least j, with sorted(u[:i])[j-1] > sorted(v[:i])[j-1]."""
    for i in range(1, len(u) + 1):
        for j, (a, b) in enumerate(zip(sorted(u[:i]), sorted(v[:i])), start=1):
            if a > b:
                return i, j
    return None


def test_prefix_violation_matches_definition():
    for m in range(1, 7):
        invs = enumerate_involutions(m)
        for u in invs:
            for v in invs:
                hit = prefix_violation(u, v)
                assert hit == _first_failure(u, v)
                assert bruhat_leq(u, v) == (hit is None)


def test_dominance_agrees_with_leq():
    for u in itertools.permutations(range(1, 5)):
        du = dominance(u)
        for v in itertools.permutations(range(1, 5)):
            assert bruhat_leq(u, v) == all(a >= b for a, b in zip(du, dominance(v)))


def test_rank_values():
    assert rank(w0(4)) == 0
    assert rank(w0(7)) == 0
    assert rank(identity(4)) == max_rank(4) == 4
    assert rank((3, 4, 1, 2)) == 1
    assert rank((2, 1, 4, 3)) == 2
    assert rank((1, 3, 2, 4)) == 3


def _rank_oracle(pi):
    # independent restatement of the grading formula
    m = len(pi)
    total = m * m // 4
    for i, j in ((i, pi[i - 1]) for i in range(1, m + 1)):
        if i >= j:
            continue
        inner_below = len([k for k in range(i + 1, j) if pi[k - 1] < i])
        total -= (j - i) - inner_below
    return total


def test_rank_matches_oracle_exhaustive():
    for m in range(1, 8):
        for pi in enumerate_involutions(m):
            assert rank(pi) == _rank_oracle(pi)
            assert 0 <= rank(pi) <= max_rank(m)


def test_codim():
    assert codim(w0(4)) == 4
    assert codim(w0(6)) == 9
    assert codim(identity(5)) == 0
    assert codim((3, 4, 1, 2)) == 3


def test_interval_examples():
    assert interval(w0(5)).members == {w0(5)}
    assert interval(identity(4)).members == set(enumerate_involutions(4))
    iv = interval((2, 1, 4, 3))
    assert iv.sorted_members() == [
        (2, 1, 4, 3),
        (3, 4, 1, 2),
        (4, 2, 3, 1),
        (4, 3, 2, 1),
    ]


def test_interval_invariants_small():
    for m in range(1, 6):
        full = involution_count(m)
        assert len(interval(identity(m))) == full
        for pi in enumerate_involutions(m):
            iv = interval(pi)
            assert pi in iv and w0(m) in iv
            # downward closure from pi in reverse order
            for v in iv.members:
                for u in enumerate_involutions(m):
                    if bruhat_leq(pi, u) and bruhat_leq(u, v):
                        assert u in iv


def test_interval_monotone():
    for m in (3, 4):
        invs = enumerate_involutions(m)
        for pi in invs:
            for rho in invs:
                if bruhat_leq(rho, pi):
                    assert interval(pi).members <= interval(rho).members


def test_rank_extremes_in_interval():
    for m in (3, 4, 5):
        for pi in enumerate_involutions(m):
            members = interval(pi).members
            ranks = {v: rank(v) for v in members}
            assert ranks[w0(m)] == min(ranks.values()) == 0
            assert ranks[pi] == max(ranks.values())
