import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acecolor.coloring import (
    EdgeColoring,
    VerifyReport,
    extension_probe,
    format_coloring,
    parse_coloring,
    verify,
)
from acecolor.errors import ParseError
from acecolor.graph import Graph, canonical_edge

from graphlib import cycle, path, star
from oracle import is_acyclic, is_proper


def colored(g, kappa, assignment):
    col = EdgeColoring(g, kappa)
    for e, c in assignment.items():
        col.assign(e, c)
    return col


def test_used_colors():
    s = star(3)
    col = EdgeColoring(s, 5)
    assert col.used_colors(0) == set()
    col.assign((0, 1), 1)
    col.assign((0, 2), 2)
    col.assign((0, 3), 3)
    assert col.used_colors(0) == {1, 2, 3}
    # a vertex with colored and uncolored incident edges
    p = path(2)
    col = EdgeColoring(p, 5)
    col.assign((0, 1), 4)
    assert col.used_colors(1) == {4}


def test_free_colors_pair():
    p = path(3)
    col = EdgeColoring(p, 5)
    col.assign((0, 1), 1)
    col.assign((1, 2), 2)
    col.assign((2, 3), 3)
    assert col.free_colors_pair(1, 2) == {4, 5}


def test_shared_color_neighbors_oriented():
    # u has neighbor x whose edge color matches a color at v
    g = Graph(4, [(0, 1), (1, 2), (0, 3)])  # u=1? build: u-v edge (0,1), v-w (1,2), u-x (0,3)
    col = EdgeColoring(g, 5)
    col.assign((1, 2), 1)
    col.assign((0, 3), 1)
    # colors beyond (0 -> 1) = {1}; neighbor of 0 with color 1 is 3
    assert col.shared_color_neighbors(0, 1) == {3}
    # opposite orientation: colors beyond (1 -> 0) = {1}; neighbor of 1 with 1 is 2
    assert col.shared_color_neighbors(1, 0) == {2}
    with pytest.raises(ValueError):
        col.shared_color_neighbors(0, 2)  # not an edge


def test_shared_color_neighbors_asymmetry_witness():
    g = Graph(4, [(0, 1), (0, 2), (1, 3)])
    col = EdgeColoring(g, 4)
    col.assign((0, 2), 1)
    col.assign((1, 3), 2)
    # at u=0 looking toward v=1: colors at 1 are {2}; 0 has no 2-edge
    assert col.shared_color_neighbors(0, 1) == set()
    # at u=1 looking toward v=0: colors at 0 are {1}; 1 has no 1-edge
    assert col.shared_color_neighbors(1, 0) == set()
    col.assign((0, 1), 3)
    col2 = colored(Graph(4, [(0, 1), (0, 2), (1, 3)]), 4, {(0, 1): 3, (0, 2): 1, (1, 3): 1})
    assert col2.shared_color_neighbors(0, 1) == {2}
    assert col2.shared_color_neighbors(1, 0) == {3}
    assert col2.shared_color_neighbors(0, 1) != col2.shared_color_neighbors(1, 0)


def test_assign_rejects_conflicts_and_bad_colors():
    c4 = cycle(4)
    col = EdgeColoring(c4, 3)
    col.assign((0, 1), 1)
    with pytest.raises(ValueError):
        col.assign((1, 2), 1)  # improper
    with pytest.raises(ValueError):
        col.assign((2, 3), 9)  # out of palette
    with pytest.raises(ValueError):
        col.assign((0, 1), 2)  # already colored


def test_verify_bichromatic_cycle():
    c4 = cycle(4)
    col = colored(c4, 3, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
    rep = verify(col)
    assert rep.proper and not rep.acyclic
    assert rep.cycle == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_verify_acyclic_c4_three_colors():
    c4 = cycle(4)
    col = colored(c4, 3, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 3})
    rep = verify(col)
    assert rep.ok
    # cross-check against the independent oracle's validators
    edges = list(c4.edges)
    cols = [col.color_of(e) for e in edges]
    assert is_proper(4, edges, cols) and is_acyclic(4, edges, cols)


def test_verify_reports_improper():
    p = path(2)
    col = EdgeColoring(p, 3)
    # bypass assign's guard to build an improper state
    col._color[(0, 1)] = 1
    col._color[(1, 2)] = 1
    rep = verify(col)
    assert not rep.proper
    assert rep.conflict == ((0, 1), (1, 2))


def test_maximal_bichromatic_path():
    p = path(3)
    col = colored(p, 3, {(0, 1): 1, (1, 2): 2, (2, 3): 1})
    bp = col.maximal_bichromatic_path(1, 1, 2)
    assert bp.vertices == (0, 1, 2, 3)
    assert bp.edges == ((0, 1), (1, 2), (2, 3))
    # star: path of length 2 through the center
    s = star(3)
    col = colored(s, 3, {(0, 1): 1, (0, 2): 2, (0, 3): 3})
    bp = col.maximal_bichromatic_path(0, 1, 2)
    assert bp.vertices == (1, 0, 2)
    # vertex with neither color
    assert col.maximal_bichromatic_path(3, 1, 2) is None


def test_path_walks_reject_cyclic_coloring():
    # assign() enforces properness only, so a bichromatic square is
    # representable; the walks must refuse it rather than loop
    c4 = cycle(4)
    col = colored(c4, 2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
    with pytest.raises(ValueError):
        col.maximal_bichromatic_path(0, 1, 2)
    with pytest.raises(ValueError):
        col.has_critical_path(1, 2, 0, 2)


def test_maximal_path_same_from_every_vertex():
    p = path(3)
    col = colored(p, 3, {(0, 1): 1, (1, 2): 2, (2, 3): 1})
    paths = {col.maximal_bichromatic_path(v, 1, 2).vertices for v in range(4)}
    assert paths == {(0, 1, 2, 3)}


def test_critical_vs_alternating_path():
    # u - x - v colored alpha, beta: alternating yes, critical no
    p = path(2)
    col = colored(p, 3, {(0, 1): 1, (1, 2): 2})
    assert not col.has_critical_path(1, 2, 0, 2)
    # u - x - y - v colored alpha, beta, alpha: critical yes
    p4 = path(3)
    col = colored(p4, 3, {(0, 1): 1, (1, 2): 2, (2, 3): 1})
    assert col.has_critical_path(1, 2, 0, 3)
    assert not col.has_critical_path(1, 2, 0, 2)  # the walk goes past 2
    # vertex with no alpha edge: no path can start
    assert not col.has_critical_path(3, 2, 0, 3)


def test_available_and_valid_colors():
    c4 = cycle(4)
    kappa = 4
    col = colored(c4, kappa, {(0, 1): 1, (1, 2): 2, (2, 3): 1})
    # last edge (0,3): both endpoints see color 1
    assert col.available_colors((0, 3)) == {2, 3, 4}
    assert col.valid_colors((0, 3)) == {3, 4}
    with pytest.raises(ValueError):
        col.available_colors((0, 1))  # already colored


def test_valid_colors_trial_assignment_property():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(4, 9)
        edges = set()
        for _ in range(rng.randint(3, 2 * n)):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        g = Graph(n, sorted(edges))
        kappa = g.max_degree() + 2
        col = EdgeColoring(g, kappa)
        order = list(g.edges)
        rng.shuffle(order)
        uncolored = order[0]
        for e in order[1:]:
            vs = col.valid_colors(e)
            if vs:
                col.assign(e, rng.choice(sorted(vs)))
        avail = col.available_colors(uncolored)
        valid = col.valid_colors(uncolored)
        assert valid <= avail
        for c in sorted(avail):
            trial = col.copy()
            trial.assign(uncolored, c)
            rep = verify(trial)
            if c in valid:
                assert rep.ok
            else:
                assert rep.proper and not rep.acyclic
                assert uncolored in rep.cycle
        # disjoint endpoint colors: every available color is valid
        u, v = uncolored
        if not (col.used_colors(u) & col.used_colors(v)):
            assert valid == avail


def test_star_all_available_valid():
    s = star(4)
    col = colored(s, 6, {(0, 1): 1, (0, 2): 2})
    assert col.valid_colors((0, 3)) == col.available_colors((0, 3)) == {3, 4, 5, 6}


def test_uncolored_graph_everything_available():
    c4 = cycle(4)
    col = EdgeColoring(c4, 3)
    assert col.available_colors((0, 1)) == {1, 2, 3}
    assert col.valid_colors((0, 1)) == {1, 2, 3}


def test_extension_probe_c4():
    c4 = cycle(4)
    col = colored(c4, 3, {(0, 1): 1, (1, 2): 2, (2, 3): 1})
    probe = extension_probe(c4, (0, 3), col)
    assert probe.valid_exists  # color 3 extends, so C4 is not 3-deletion-minimal
    assert probe.shared == 1


def test_extension_probe_validates_input():
    c4 = cycle(4)
    col = colored(c4, 3, {(0, 1): 1, (1, 2): 2})
    with pytest.raises(ValueError):
        extension_probe(c4, (0, 3), col)  # two edges missing, not one
    full = colored(c4, 3, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 3})
    with pytest.raises(ValueError):
        extension_probe(c4, (0, 3), full)


def test_serialization_roundtrip():
    c4 = cycle(4)
    col = colored(c4, 7, {(0, 1): 1, (1, 2): 2, (2, 3): 1})
    text = format_coloring(col)
    back = parse_coloring(text, c4)
    assert back == col
    assert format_coloring(back) == text


def test_parse_coloring_rejects_malformed():
    c4 = cycle(4)
    with pytest.raises(ParseError):
        parse_coloring("", c4)
    with pytest.raises(ParseError):
        parse_coloring("kappa x\n", c4)
    with pytest.raises(ParseError):
        parse_coloring("kappa 3\n0 1 9\n", c4)  # color out of range
    with pytest.raises(ParseError):
        parse_coloring("kappa 3\n0 2 1\n", c4)  # not an edge
    for kappa in (0, -2):  # a palette too small for a graph with edges
        with pytest.raises(ParseError, match=f"^coloring: palette size must be >= 1, got {kappa}$"):
            parse_coloring(f"kappa {kappa}\n", c4)


def test_kappa_validation():
    with pytest.raises(ValueError):
        EdgeColoring(cycle(4), 0)
    # a graph without edges has acyclic index 0, so palette 0 colors it; a
    # graph with edges still needs a color, and no graph takes a negative
    # palette
    empty = Graph(3, [])
    assert EdgeColoring(empty, 0).is_total()
    assert parse_coloring("kappa 0\n", empty).kappa == 0
    with pytest.raises(ValueError, match=re.escape("palette size must be >= 1, got 0")):
        parse_coloring("kappa 0\n", cycle(4))
    with pytest.raises(ValueError, match=re.escape("palette size must be >= 0, got -1")):
        EdgeColoring(empty, -1)


# -- verify against the scan of every color pair ---------------------------------


def _pair_scan_verify(coloring) -> VerifyReport:
    """Reference verify: for every pair of used colors, in sorted order,
    rebuild the pair's adjacency from all colored edges and report the
    component with as many edges as vertices through the least vertex."""
    g = coloring.graph
    assigned = coloring.colored_edges()
    at = [{} for _ in range(g.n)]
    for (u, v), c in sorted(assigned.items()):
        for a, b in ((u, v), (v, u)):
            if c in at[a]:
                return VerifyReport(
                    proper=False,
                    acyclic=False,
                    conflict=(canonical_edge(a, at[a][c]), canonical_edge(a, b)),
                )
            at[a][c] = b
    used = sorted(set(assigned.values()))
    for i, alpha in enumerate(used):
        for beta in used[i + 1 :]:
            adj = {}
            for (u, v), c in assigned.items():
                if c == alpha or c == beta:
                    adj.setdefault(u, []).append(v)
                    adj.setdefault(v, []).append(u)
            seen = set()
            for s in sorted(adj):
                if s in seen:
                    continue
                comp, stack = [], [s]
                seen.add(s)
                while stack:
                    x = stack.pop()
                    comp.append(x)
                    for y in adj[x]:
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
                if sum(len(adj[x]) for x in comp) // 2 == len(comp):
                    cs = set(comp)
                    cycle_edges = tuple(sorted(
                        e for e, c in assigned.items()
                        if c in (alpha, beta) and e[0] in cs and e[1] in cs
                    ))
                    return VerifyReport(proper=True, acyclic=False, cycle=cycle_edges)
    return VerifyReport(proper=True, acyclic=True)


@st.composite
def raw_colorings(draw):
    """A random graph with a color map written past ``assign``'s guard:
    partial, possibly improper, with bichromatic cycles planted in
    several color pairs."""
    n = draw(st.integers(2, 12))
    kappa = draw(st.integers(1, 6))
    color: dict = {}
    # planted alternating cycles, vertex-disjoint unless `overlap` is drawn
    order, overlap = draw(st.permutations(range(n))), draw(st.booleans())
    for _ in range(draw(st.integers(0, 3)) if kappa > 1 else 0):
        lengths = [k for k in (4, 6, 8) if k <= len(order)]
        if not lengths:
            break
        length = draw(st.sampled_from(lengths))
        ring, order = order[:length], order[0 if overlap else length :]
        a, b = draw(st.lists(st.integers(1, kappa), min_size=2, max_size=2, unique=True))
        for i in range(length):
            color[canonical_edge(ring[i], ring[(i + 1) % length])] = (a, b)[i % 2]
    pairs = list(combinations(range(n), 2))
    keep_proper = draw(st.booleans())  # then only colors free at both ends
    for e in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)):
        if keep_proper and e in color:
            continue  # the planted cycles stay
        color.pop(e, None)
        used = {c for f, c in color.items() if set(f) & set(e)} if keep_proper else set()
        c = draw(st.sampled_from([0] + [c for c in range(1, kappa + 1) if c not in used]))
        if c:  # 0 leaves the edge uncolored
            color[e] = c
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n))
    g = Graph(n, sorted(set(color) | set(extra)))
    col = EdgeColoring(g, kappa)
    col._color = dict(draw(st.permutations(sorted(color.items()))))
    return col


@settings(max_examples=400, deadline=None)
@given(raw_colorings())
def test_verify_equals_the_pair_scan_and_the_oracle(col):
    rep = verify(col)
    assert rep == _pair_scan_verify(col)
    edges = sorted(col.colored_edges())
    colors = [col.colored_edges()[e] for e in edges]
    assert rep.proper == is_proper(col.graph.n, edges, colors)
    if rep.proper:
        assert rep.acyclic == is_acyclic(col.graph.n, edges, colors)
    if rep.cycle is not None:  # the reported cycle is one of two colors
        assert len({col.colored_edges()[e] for e in rep.cycle}) == 2


def test_verify_reports_the_first_cyclic_pair_in_sorted_order():
    # two disjoint 4-cycles: colors (2, 3) on 0-1-2-3 and (1, 4) on 4-5-6-7
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    col = colored(g, 4, {(0, 1): 2, (1, 2): 3, (2, 3): 2, (0, 3): 3,
                         (4, 5): 1, (5, 6): 4, (6, 7): 1, (4, 7): 4})
    assert verify(col).cycle == ((4, 5), (4, 7), (5, 6), (6, 7))
    # pairs held by fewer than 4 vertices are skipped, not misjudged
    star4 = colored(star(4), 4, {(0, 1): 1, (0, 2): 2, (0, 3): 3, (0, 4): 4})
    assert verify(star4).ok


def test_verify_does_not_depend_on_assignment_order():
    # two disjoint 1/2-colored 4-cycles, colored in either order
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    low = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}
    high = {(4, 5): 1, (5, 6): 2, (6, 7): 1, (4, 7): 2}
    first = colored(g, 2, {**low, **high})
    second = colored(g, 2, {**high, **low})
    assert first == second
    assert verify(first) == verify(second)
    assert verify(second).cycle == ((0, 1), (0, 3), (1, 2), (2, 3))


@settings(max_examples=300, deadline=None)
@given(raw_colorings(), st.data())
def test_verify_is_the_same_in_every_assignment_order(col, data):
    other = EdgeColoring(col.graph, col.kappa)
    other._color = dict(data.draw(st.permutations(list(col._color.items()))))
    assert other == col
    assert verify(other) == verify(col)


# -- bulk colorings ---------------------------------------------------------------


def _assign_loop(g, kappa, colors):
    out = EdgeColoring(g, kappa)
    for e, c in zip(g.edges, colors):
        out.assign(e, c)
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 5), st.data())
def test_from_colors_equals_the_assign_loop(n, kappa, data):
    pairs = list(combinations(range(n), 2))
    g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    colors = data.draw(st.lists(st.integers(0, kappa + 1), min_size=g.m, max_size=g.m))
    try:
        want = _assign_loop(g, kappa, colors)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            EdgeColoring.from_colors(g, kappa, colors)
        return
    got = EdgeColoring.from_colors(g, kappa, colors)
    assert got == want and got._at == want._at
    assert list(got.colored_edges().items()) == list(want.colored_edges().items())


def test_from_colors_rejects_length_range_and_clashes():
    c4 = cycle(4)  # edges (0, 1), (0, 3), (1, 2), (2, 3)
    for colors in ([1, 2, 1], [1, 2, 1, 2, 1], []):
        with pytest.raises(ValueError, match=f"expected 4 colors, one per edge, got {len(colors)}"):
            EdgeColoring.from_colors(c4, 3, colors)
    with pytest.raises(ValueError, match=re.escape("color 4 outside 1..3")):
        EdgeColoring.from_colors(c4, 3, [1, 2, 4, 1])
    with pytest.raises(ValueError, match=re.escape("color 0 outside 1..3")):
        EdgeColoring.from_colors(c4, 3, [1, 0, 2, 1])
    with pytest.raises(ValueError, match=re.escape("color 1 already present at an endpoint of (0, 3)")):
        EdgeColoring.from_colors(c4, 3, [1, 1, 2, 3])
    col = EdgeColoring.from_colors(c4, 3, [1, 2, 2, 1])
    assert col.is_total() and not verify(col).acyclic
