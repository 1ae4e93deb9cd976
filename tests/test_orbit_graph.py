import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from definitions import conjugate, degree_in, oracle_edge, oracle_neighbors
from flagorbits.errors import MalformedInput, TooLarge
from flagorbits.perms import (
    all_transpositions,
    enumerate_involutions,
    format_perm,
    identity,
    parse_perm,
    w0,
    w0_class,
)
from flagorbits.bruhat import bruhat_leq, interval, rank
from flagorbits.orbit_graph import (
    class_graph,
    conjugate_degrees,
    edge_rows,
    export_dot,
    neighbor_keys,
    neighbors,
    row_keys,
    w0_degree,
)
from flagorbits.smoothness import classify


def scalar_conjugate_degrees(pi):
    """Oracle for conjugate_degrees: the scalar comparator on every class
    member and on each of its distinct oracle neighbours."""
    leq = {}

    def above(v):
        if v not in leq:
            leq[v] = bruhat_leq(pi, v)
        return leq[v]

    return {
        c: sum(1 for u in oracle_neighbors(c) if above(u))
        for c in w0_class(len(pi))
        if above(c)
    }


def scalar_w0_degree(pi):
    """Oracle for w0_degree: the scalar comparator on each oracle neighbour
    of w0."""
    return sum(1 for u in oracle_neighbors(w0(len(pi))) if bruhat_leq(pi, u))


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


def test_neighbors_match_oracle():
    for m in range(1, 8):
        for mu in enumerate_involutions(m):
            got = neighbors(mu).neighbors
            assert got == oracle_neighbors(mu), mu
            assert mu not in got


def test_degree_in():
    assert degree_in(w0(4), interval((2, 1, 4, 3))) == 3
    assert degree_in(w0(4), interval(identity(4))) == 4
    assert degree_in(w0(6), interval(w0(6))) == 0


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


def test_w0_degree_matches_scalar_oracle():
    for m in range(1, 9):
        for pi in enumerate_involutions(m):
            assert w0_degree(pi) == scalar_w0_degree(pi), pi


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
            for v in iv:
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
    fake = frozenset({(k,) for k in range(5001)})
    with pytest.raises(TooLarge):
        export_dot(fake)


def test_conjugate_degrees_match_scalar_oracle():
    # classify's w0 degree and all-conjugates decision also follow the oracle
    # map alone, where w0 is one of the conjugates
    for m in range(1, 9):
        for pi in enumerate_involutions(m):
            cd = conjugate_degrees(pi)
            oracle = scalar_conjugate_degrees(pi)
            assert cd == oracle, pi
            assert list(cd) == sorted(cd)  # classify reads its witness in this order
            rep, r = classify(pi), rank(pi)
            assert rep.w0_degree == oracle[w0(m)] == scalar_w0_degree(pi), pi
            assert rep.conjugates_pass == all(d == r for d in oracle.values()), pi


@st.composite
def large_involutions(draw):
    m = draw(st.integers(9, 12))
    order = draw(st.permutations(range(1, m + 1)))
    pairs = draw(st.integers(0, m // 2))
    pi = list(range(1, m + 1))
    for a, b in zip(order[: 2 * pairs : 2], order[1 : 2 * pairs : 2]):
        pi[a - 1], pi[b - 1] = b, a
    return tuple(pi)


@settings(max_examples=5, deadline=None)
@given(large_involutions())
def test_conjugate_degrees_match_scalar_oracle_large(pi):
    assert conjugate_degrees(pi) == scalar_conjugate_degrees(pi)


def key(p):
    return sum(v * (len(p) + 1) ** (len(p) - 1 - k) for k, v in enumerate(p))


def test_edge_rows_follow_edges():
    # the bulk rule gives the oracle's neighbour along every transposition,
    # and the member itself where there is no edge (odd m); neighbors reads
    # it, and the keys keep each distinct neighbour once, in ascending order
    for m in range(1, 10):
        cls = w0_class(m)
        rows = np.array(cls, dtype=np.int8)
        bulk = edge_rows(rows)
        keys = neighbor_keys(rows)
        ts = all_transpositions(m)
        for k, c in enumerate(cls):
            along = [(t, oracle_edge(c, t)) for t in ts]
            assert [tuple(r) for r in bulk[k].tolist()] == [nu or c for _, nu in along]
            assert neighbors(c).neighbors == oracle_neighbors(c)
            got = keys[k][keys[k] >= 0].tolist()
            assert got == sorted(map(key, oracle_neighbors(c)))  # distinct, ascending


def test_class_graph_matches_oracle():
    # every member's class neighbours and outside neighbours are its oracle
    # neighbours, each once, and the outside ones lie outside the class
    for m in range(1, 10):
        rows, inner, outer = class_graph(m)
        cls = w0_class(m)
        assert rows.tolist() == [list(c) for c in cls]
        assert inner.dtype == np.int16 and outer.dtype == np.int8
        for k, c in enumerate(cls):
            assert len(set(inner[k].tolist())) == inner.shape[1]
            got = [cls[i] for i in inner[k].tolist()] + [tuple(u) for u in outer[k].tolist()]
            assert len(got) == len(set(got)) and set(got) == oracle_neighbors(c)
            assert not set(map(tuple, outer[k].tolist())) & set(cls)


def test_class_graph_is_regular():
    for m in range(1, 13):
        rows, inner, outer = class_graph(m)
        d, h = (m * (m - 2) // 4, m // 2) if m % 2 == 0 else ((m * m - 1) // 4, 0)
        assert inner.shape == (len(rows), d)
        assert outer.shape == (len(rows), h, m)


def test_class_graph_built_once(monkeypatch):
    import flagorbits.orbit_graph as og

    pi = parse_perm("2,1,4,3,6,5,8,7,10,9")
    want = classify(pi), w0_degree(pi)  # warm-up builds the m=10 class graph
    graph = class_graph(10)
    assert all(not a.flags.writeable for a in graph)

    def rebuilt(*args):
        raise AssertionError("class edges built again")

    monkeypatch.setattr(og, "w0_class_rows", rebuilt)
    monkeypatch.setattr(og, "edge_rows", rebuilt)
    assert (classify(pi), w0_degree(pi)) == want
    assert all(a is b for a, b in zip(class_graph(10), graph))


def test_degree_functions_check_input():
    for bad in ((1, 1), (2, 3, 1), (3, 1, 2, 4)):
        for call in (w0_degree, conjugate_degrees, neighbors):
            with pytest.raises(MalformedInput):
                call(bad)


def test_w0_degree_reads_w0_alone():
    class_graph.cache_clear()
    assert w0_degree(identity(12)) == rank(identity(12))
    assert class_graph.cache_info().currsize == 0


def test_class_graph_guard_fires_before_work(monkeypatch):
    import flagorbits.orbit_graph as og

    def no_work(*args):
        raise AssertionError("work ran past the guard")

    # class_graph enumerates the class; w0_degree reads w0's own edge rows
    monkeypatch.setattr(og, "w0_class_rows", no_work)
    monkeypatch.setattr(og, "edge_rows", no_work)
    for m in (13, 16):
        for call in (w0_degree, conjugate_degrees):
            with pytest.raises(TooLarge):
                call(identity(m))
        with pytest.raises(TooLarge):
            class_graph(m)


def oracle_dot(iv):
    """Oracle for export_dot: the DOT text from oracle_neighbors."""
    nodes = sorted(iv)
    pairs = {tuple(sorted((u, v))) for v in nodes for u in oracle_neighbors(v) & iv}
    lines = ["graph interval {"] + [f'  "{format_perm(v)}";' for v in nodes]
    lines += [f'  "{format_perm(u)}" -- "{format_perm(v)}";' for u, v in sorted(pairs)]
    return "\n".join(lines + ["}"]) + "\n"


def test_export_dot_matches_oracle():
    for m in range(1, 7):
        for pi in enumerate_involutions(m):
            iv = interval(pi)
            assert export_dot(iv) == oracle_dot(iv), pi


def test_row_keys_sort_lexicographically():
    for m in range(1, 9):
        invs = enumerate_involutions(m)
        keys = row_keys(np.array(invs, dtype=np.int8)).tolist()
        assert keys == list(map(key, invs)) == sorted(set(keys))
    assert row_keys(np.array([w0(12)], dtype=np.int8))[0] == key(w0(12))


def test_neighbors_key_limit_fires_before_work(monkeypatch):
    import flagorbits.orbit_graph as og

    def no_work(*args):
        raise AssertionError("edge rows built past the key limit")

    monkeypatch.setattr(og, "edge_rows", no_work)
    with pytest.raises(TooLarge):
        neighbors(w0(16))


def test_export_dot_refuses_keys_past_int64():
    # at m = 16 the row keys would overflow, and edges would go missing
    iv = frozenset({w0(16)} | oracle_neighbors(w0(16)))
    with pytest.raises(TooLarge):
        export_dot(iv)


@pytest.mark.parametrize(
    "vertices",
    [frozenset(), frozenset({(1, 2), (1, 2, 3)}), frozenset({(2, 3, 1)}), frozenset({()})],
    ids=["empty", "mixed-widths", "non-involution", "width-zero"],
)
def test_export_dot_rejects_malformed_vertex_sets(vertices, monkeypatch):
    import flagorbits.orbit_graph as og

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} reached before validation")

    monkeypatch.setattr(og, "np", NoNumpy())
    with pytest.raises(MalformedInput):
        export_dot(vertices)
