import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagorbits.errors import MalformedInput, SizeMismatch, TooLarge
from flagorbits.perms import (
    all_transpositions,
    enumerate_involutions,
    identity,
    involution_count,
    involution_rows,
    w0,
)
from flagorbits.bruhat import (
    above,
    below_masks,
    bruhat_leq,
    dominance_table,
    essential_entries,
    interval,
    max_rank,
    prefix_violation,
    rank,
    ranks,
    threshold_bits,
)


def dominance(p):
    """Oracle for the table: flattened d[i][j] = #{k <= i : p(k) <= j},
    0-based row-major."""
    m = len(p)
    return tuple(sum(1 for k in range(i + 1) if p[k] <= j + 1) for i in range(m) for j in range(m))


def left_multiply(t, p):
    """t p for the transposition t = (a, b): swap the values a and b in p."""
    a, b = t
    return tuple(b if v == a else a if v == b else v for v in p)


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


def test_reduced_table_compare_matches_leq():
    # the entry-major table keeps d[i][j] for i <= j <= m-2 only; the
    # vectorized comparison must agree with the scalar comparator
    for m in range(1, 7):
        invs = enumerate_involutions(m)
        rows = np.array(invs, dtype=np.int8)
        table = dominance_table(rows)
        assert table.shape == (m * (m - 1) // 2, len(invs))
        kept = [i * m + j for i in range(m - 1) for j in range(i, m - 1)]
        for k, v in enumerate(invs):
            assert table[:, k].tolist() == [dominance(v)[e] for e in kept]
            assert above(v, rows).tolist() == [bruhat_leq(v, u) for u in invs]


def _corners(v):
    """Fulton corners of v by the definition, as reduced (p, q) with p <= q."""
    m, inv = len(v), {b: a for a, b in enumerate(v, start=1)}
    return {
        (min(p, q), max(p, q))
        for p in range(1, m)
        for q in range(1, m)
        if v[p - 1] <= q < v[p] and inv[q] <= p < inv[q + 1]
    }


def _unpack(masks, count):
    return np.unpackbits(masks.view(np.uint8), axis=1, count=count).astype(bool)


def test_essential_entries_match_definition():
    for m in range(1, 8):
        invs = enumerate_involutions(m)
        i, j = np.triu_indices(max(m - 1, 0))
        ess = essential_entries(np.array(invs, dtype=np.int8))
        for v, row in zip(invs, ess):
            assert {(i[e] + 1, j[e] + 1) for e in np.flatnonzero(row)} == _corners(v)
    assert not essential_entries(np.array([w0(12)], dtype=np.int8)).any()


def test_essential_masks_match_leq():
    # every pair of involutions for m <= 7: the AND over the vertex's corners
    # decides u <= v exactly
    for m in range(1, 8):
        invs = enumerate_involutions(m)
        rows = np.array(invs, dtype=np.int8)
        masks, compared = below_masks(threshold_bits(rows), rows)
        assert compared == sum(len(_corners(v)) for v in invs)
        got = _unpack(masks, len(invs))
        for k, v in enumerate(invs):
            assert got[k].tolist() == [bruhat_leq(u, v) for u in invs], v


@st.composite
def involution_sample(draw):
    """A size m in 9..12, a vertex and 40 other involutions of that size."""

    def involution(m):
        order = draw(st.permutations(range(1, m + 1)))
        pairs = draw(st.integers(0, m // 2))
        pi = list(range(1, m + 1))
        for a, b in zip(order[: 2 * pairs : 2], order[1 : 2 * pairs : 2]):
            pi[a - 1], pi[b - 1] = b, a
        return tuple(pi)

    m = draw(st.integers(9, 12))
    return involution(m), [involution(m) for _ in range(40)]


@settings(max_examples=25, deadline=None)
@given(involution_sample())
def test_essential_masks_match_full_table(sample):
    v, invs = sample
    rows = np.array(invs + [identity(len(v)), v], dtype=np.int8)
    table = dominance_table(rows)
    full = (table >= table[:, -1:]).all(axis=0)
    masks, _ = below_masks(threshold_bits(rows), rows[-1:])
    assert _unpack(masks, len(rows))[0].tolist() == full.tolist()
    assert full[-2:].all()


def test_rank_values():
    assert rank(w0(4)) == 0
    assert rank(w0(7)) == 0
    assert rank(identity(4)) == max_rank(4) == 4
    assert rank((3, 4, 1, 2)) == 1
    assert rank((2, 1, 4, 3)) == 2
    assert rank((1, 3, 2, 4)) == 3
    # past int8: rank takes any size
    assert rank(w0(200)) == 0
    assert rank(identity(200)) == max_rank(200) == 10000


def _rank_oracle(pi):
    # the crossing-count rule, once the scalar rank: each 2-cycle (i, j)
    # lowers the grading by j - i, less the k between with pi(k) < i
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


def test_ranks_match_crossing_count_through_m12():
    # Incitti's closed form against the crossing count, one call per size
    for m in range(13):
        rows = involution_rows(m)
        got = ranks(rows)
        assert got.dtype == np.int64 and got.shape == (len(rows),)
        assert got.tolist() == [_rank_oracle(pi) for pi in rows.tolist()], m


def test_ranks_edge_shapes(monkeypatch):
    import flagorbits.bruhat as br

    with pytest.raises(MalformedInput):  # one m >= 1 rule for every Perm-taking name
        rank(())
    assert ranks(np.zeros((1, 0), dtype=np.int8)).tolist() == [0]
    assert rank((1,)) == 0 and ranks(np.array([[1]], dtype=np.int8)).tolist() == [0]
    for m in (0, 1, 5):
        empty = ranks(np.zeros((0, m), dtype=np.int8))
        assert empty.shape == (0,) and empty.dtype == np.int64
    rows = involution_rows(7)
    want = ranks(rows)
    monkeypatch.setattr(br, "CHUNK_ROWS", 2)  # 2 rows per slice
    assert ranks(rows).tolist() == want.tolist()
    for row, r in zip(rows, want.tolist()):
        assert rank(tuple(row.tolist())) == ranks(row[None])[0] == r


def test_rank_rejects_non_involutions():
    for bad in ((1, 1), (2, 3, 1), (5, 5, 5)):
        with pytest.raises(MalformedInput):
            rank(bad)


def test_interval_examples():
    assert interval(w0(5)) == {w0(5)}
    assert interval(identity(4)) == set(enumerate_involutions(4))
    iv = interval((2, 1, 4, 3))
    assert sorted(iv) == [
        (2, 1, 4, 3),
        (3, 4, 1, 2),
        (4, 2, 3, 1),
        (4, 3, 2, 1),
    ]


def test_interval_guard_fires_before_work(monkeypatch):
    import flagorbits.bruhat as br

    def no_work(*args):
        raise AssertionError("interval started work")

    monkeypatch.setattr(br, "involution_rows", no_work)
    with pytest.raises(TooLarge):
        interval(w0(13))
    with pytest.raises(AssertionError):
        interval(w0(12))  # the guard admits m = 12


def test_interval_rejects_non_involutions():
    for bad in ((2, 3, 1), (1, 1)):
        with pytest.raises(MalformedInput):
            interval(bad)


def test_interval_invariants_small():
    for m in range(1, 6):
        full = involution_count(m)
        assert len(interval(identity(m))) == full
        for pi in enumerate_involutions(m):
            iv = interval(pi)
            assert pi in iv and w0(m) in iv
            # downward closure from pi in reverse order
            for v in iv:
                for u in enumerate_involutions(m):
                    if bruhat_leq(pi, u) and bruhat_leq(u, v):
                        assert u in iv


def test_interval_monotone():
    for m in (3, 4):
        invs = enumerate_involutions(m)
        for pi in invs:
            for rho in invs:
                if bruhat_leq(rho, pi):
                    assert interval(pi) <= interval(rho)


def test_rank_extremes_in_interval():
    for m in (3, 4, 5):
        for pi in enumerate_involutions(m):
            members = interval(pi)
            ranks = {v: rank(v) for v in members}
            assert ranks[w0(m)] == min(ranks.values()) == 0
            assert ranks[pi] == max(ranks.values())
