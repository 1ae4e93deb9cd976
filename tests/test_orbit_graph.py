import pytest

from flagorbits.errors import NotInInterval, TooLarge
from flagorbits.perms import (
    all_transpositions,
    conjugate,
    enumerate_involutions,
    identity,
    parse_perm,
    w0,
)
from flagorbits.bruhat import Interval, interval, rank
from flagorbits.orbit_graph import (
    conjugate_degrees,
    degree_in,
    edges,
    export_dot,
    neighbors,
    w0_degree,
)


def test_neighbor_examples():
    assert neighbors((4, 3, 2, 1)).neighbors == {
        (3, 4, 1, 2),
        (2, 1, 4, 3),
        (4, 2, 3, 1),
        (1, 3, 2, 4),
    }
    assert neighbors((3, 4, 1, 2)).neighbors == {
        (4, 3, 2, 1),
        (2, 1, 4, 3),
        (1, 4, 3, 2),
        (3, 2, 1, 4),
    }
    assert neighbors((2, 1)).neighbors == {(1, 2)}


def test_edges_follow_transposition_order():
    for m in range(1, 7):
        for mu in enumerate_involutions(m):
            pairs = list(edges(mu))
            ts = [t for t, _ in pairs]
            assert ts == [t for t in all_transpositions(m) if t in ts]
            if m % 2 == 0:
                assert ts == all_transpositions(m)  # every t gives an edge
            assert all(nu != mu for _, nu in pairs)
            assert neighbors(mu).neighbors == {nu for _, nu in pairs}


def test_degree_in():
    assert degree_in(w0(4), interval((2, 1, 4, 3))) == 3
    assert degree_in(w0(4), interval(identity(4))) == 4
    assert degree_in(w0(6), interval(w0(6))) == 0
    with pytest.raises(NotInInterval):
        degree_in((1, 3, 2, 4), interval((2, 1, 4, 3)))


def test_w0_degree():
    assert w0_degree((2, 1, 4, 3)) == 3
    assert w0_degree((3, 4, 1, 2)) == 1
    for m in (2, 4, 6, 8):
        assert w0_degree(identity(m)) == (m // 2) ** 2
        assert w0_degree(w0(m)) == 0
    assert w0_degree(w0(5)) == 0


def test_w0_degree_equals_degree_in():
    for m in (3, 4, 5):
        for pi in enumerate_involutions(m):
            assert w0_degree(pi) == degree_in(w0(m), interval(pi))


def test_conjugate_degrees_examples():
    assert conjugate_degrees((2, 1, 4, 3)) == {
        (4, 3, 2, 1): 3,
        (3, 4, 1, 2): 2,
        (2, 1, 4, 3): 2,
    }
    assert conjugate_degrees(w0(6)) == {w0(6): 0}
    cd = conjugate_degrees(parse_perm("21435"))
    assert cd[parse_perm("43215")] == 5 > 4


def test_adjacency_symmetric_irreflexive():
    for m in range(1, 7):
        nbr = {pi: neighbors(pi).neighbors for pi in enumerate_involutions(m)}
        for pi, ns in nbr.items():
            assert pi not in ns
            for v in ns:
                assert pi in nbr[v]
                assert len(v) == m


def test_odd_m_conjugation_only():
    # no multiplication-type edges for odd m: every neighbor is a conjugate
    for m in (1, 3, 5):
        for mu in enumerate_involutions(m):
            conjugates = {conjugate(mu, t) for t in all_transpositions(m)}
            assert neighbors(mu).neighbors <= conjugates - {mu}


def test_degree_bound():
    for m in (4, 5, 6):
        for pi in enumerate_involutions(m):
            iv = interval(pi)
            for v in iv.members:
                assert degree_in(v, iv) <= len(neighbors(v).neighbors)
                assert len(neighbors(v).neighbors) <= m * (m - 1) // 2


def test_export_dot():
    single = export_dot(interval(w0(4)))
    assert '"4321";' in single and "--" not in single
    dot = export_dot(interval((2, 1, 4, 3)))
    for edge in ['"3412" -- "4321"', '"4231" -- "4321"', '"2143" -- "4321"']:
        assert edge in dot
    two = export_dot(interval(identity(2)))
    assert '"12" -- "21"' in two
    assert dot == export_dot(interval((2, 1, 4, 3)))  # deterministic


def test_export_dot_guard():
    fake = Interval(base=(1,), m=1, members=frozenset({(k,) for k in range(5001)}))
    with pytest.raises(TooLarge):
        export_dot(fake)
