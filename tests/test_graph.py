import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acecolor.errors import ParseError
from acecolor.graph import Graph, format_graph, parse_graph

from graphlib import complete, cycle, petersen, star


def test_degree_cycle():
    c4 = cycle(4)
    assert all(c4.degree(v) == 2 for v in range(4))


def test_degree_star_center():
    assert star(5).degree(0) == 5


def test_degree_empty_graph():
    g = Graph(3, [])
    assert g.degree(0) == 0


def test_degree_invalid_vertex():
    with pytest.raises(ValueError):
        cycle(4).degree(7)


def test_max_min_degree():
    assert (cycle(4).max_degree(), cycle(4).min_degree()) == (2, 2)
    assert (star(5).max_degree(), star(5).min_degree()) == (5, 1)
    k4 = complete(4)
    assert (k4.max_degree(), k4.min_degree()) == (3, 3)


def test_max_degree_empty_vertex_set():
    g = Graph(0, [])
    with pytest.raises(ValueError):
        g.max_degree()
    with pytest.raises(ValueError):
        g.min_degree()
    assert g.delta == 0 and g.degrees == ()


def test_degrees_and_delta_computed_at_construction():
    s = star(5)
    assert s.degrees == (5, 1, 1, 1, 1, 1)
    assert s.delta == s.max_degree() == 5
    assert Graph(3, []).delta == 0
    e = s.without_edge(0, 1)
    assert (e.degrees, e.delta) == ((4, 0, 1, 1, 1, 1), 4)


def test_rejects_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])


def test_without_edge_is_a_copy():
    c4 = cycle(4)
    g = c4.without_edge(0, 1)
    assert g.m == 3 and c4.m == 4
    assert c4.without_edge(3, 0) == Graph(4, [(0, 1), (1, 2), (2, 3)])
    # a non-edge, a loop and out-of-range ids all get the one message
    for u, v, e in [(0, 2, (0, 2)), (2, 0, (0, 2)), (1, 1, (1, 1)), (3, 4, (3, 4)),
                    (-1, 0, (-1, 0)), (0, -1, (-1, 0)), (7, 9, (7, 9))]:
        with pytest.raises(ValueError, match=re.escape(f"edge {e} not in graph")):
            c4.without_edge(u, v)


def test_rejects_loops_and_duplicates_with_their_messages():
    with pytest.raises(ValueError, match=re.escape("duplicate edge (0, 1)")):
        Graph(3, [(1, 2), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        Graph(3, [(0, 1), (2, 2)])
    with pytest.raises(ValueError, match=re.escape("edge (3, 0) has an endpoint outside 0..2")):
        Graph(3, [(0, 1), (3, 0)])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 14), st.data())
def test_any_edge_order_gives_sorted_adjacency(n, data):
    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(shuffled)
    g = Graph(n, edges)
    for h in (Graph(n, shuffled), Graph(n, shuffled[::-1]), Graph(n, sorted(edges, reverse=True))):
        assert h == g and h.edges == g.edges == tuple(sorted(edges))
        assert h.adj == g.adj and h.degrees == g.degrees and h.delta == g.delta
    for v in range(n):
        assert list(g.adj[v]) == sorted({u for e in edges for u in e if v in e and u != v})
        assert g.degrees[v] == len(g.adj[v])


def test_triangle_free():
    ok, wit = cycle(4).is_triangle_free()
    assert ok and wit is None
    ok, wit = complete(4).is_triangle_free()
    assert not ok
    u, v, w = wit
    k4 = complete(4)
    assert k4.has_edge(u, v) and k4.has_edge(v, w) and k4.has_edge(u, w)


def test_petersen_triangle_free_matches_bruteforce():
    g = petersen()
    ok, _ = g.is_triangle_free()
    brute = not any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for a, b, c in combinations(range(g.n), 3)
    )
    assert ok == brute is True


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.data())
def test_triangle_free_agrees_with_triple_enumeration(n, data):
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(all_edges), unique=True, max_size=len(all_edges)))
    g = Graph(n, chosen)
    ok, wit = g.is_triangle_free()
    brute = not any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for a, b, c in combinations(range(n), 3)
    )
    assert ok == brute
    if not ok:
        a, b, c = wit
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.data())
def test_degree_sum_is_twice_edge_count(n, data):
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = (
        data.draw(st.lists(st.sampled_from(all_edges), unique=True, max_size=len(all_edges)))
        if all_edges
        else []
    )
    g = Graph(n, chosen)
    assert sum(g.degree(v) for v in range(n)) == 2 * g.m
    assert g.degrees == tuple(len(g.neighbors(v)) for v in range(n))
    assert g.delta == max(g.degrees)


def test_parse_format_roundtrip():
    g = petersen()
    assert parse_graph(format_graph(g)) == g


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ParseError):
        parse_graph("3\n0 1\n")
    with pytest.raises(ParseError):
        parse_graph("3 2\n0 1\n")
    with pytest.raises(ParseError):
        parse_graph("3 1\n0 0\n")
    with pytest.raises(ParseError):
        parse_graph("3 2\n0 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_graph("2 1\n0 1\nextra\n")


def test_connectivity_helpers():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert not g.is_connected()
    assert g.connected_components() == [[0, 1, 2], [3, 4]]
    assert cycle(5).is_connected()


def test_articulation_points():
    # path: every interior vertex is a cut vertex
    p = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert p.articulation_points() == [1, 2]
    assert cycle(5).articulation_points() == []
    # two cycles sharing one vertex
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert g.articulation_points() == [2]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.data())
def test_kept_articulation_points_equal_a_fresh_dfs(n, data):
    pairs = list(combinations(range(n), 2))
    g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    first = g.articulation_points()
    first.append(-1)  # the caller's list is its own
    kept = g.articulation_points()
    assert kept == list(g._find_cut_vertices()) == Graph(n, g.edges).articulation_points()
    # a cut vertex is one whose removal leaves more components
    comps = len(g.connected_components())
    brute = []
    for v in range(n):
        rest = [e for e in g.edges if v not in e]
        relabel = {u: i for i, u in enumerate(u for u in range(n) if u != v)}
        h = Graph(n - 1, [(relabel[a], relabel[b]) for a, b in rest])
        if len(h.connected_components()) > comps - (g.degree(v) == 0):
            brute.append(v)
    assert kept == brute


def _components_by_search(g):
    """Components by repeated closure from the least unvisited vertex."""
    left, comps = set(range(g.n)), []
    while left:
        comp, frontier = set(), {min(left)}
        while frontier:
            comp |= frontier
            frontier = {u for v in frontier for u in g.adj[v]} - comp
        left -= comp
        comps.append(sorted(comp))
    return comps


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12), st.data())
def test_kept_components_equal_a_fresh_search(n, data):
    pairs = list(combinations(range(n), 2))
    g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    if data.draw(st.booleans()):
        g.is_connected()  # either query may run the search first
    first = g.connected_components()
    first[0:0] = [[-1]]  # the caller's lists are its own
    if first[1:]:
        first[1].append(-1)
    kept = g.connected_components()
    assert kept == _components_by_search(g) == Graph(n, g.edges).connected_components()
    assert g.is_connected() == (len(kept) <= 1)


def test_degree_classes():
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4)])
    assert g.degree_classes() == ((5,), (1, 2, 4), (3,), (0,))
    assert g.degree_classes() is g.degree_classes()
    assert Graph(0, []).degree_classes() == ((),)
