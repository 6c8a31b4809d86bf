import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acecolor.conditions import (
    CONDITION_ORDER,
    Condition,
    check_condition,
    deletion_minimal_probe,
    find_reducible_configuration,
    recheck_witness,
)
from acecolor.discharging import discharge
from acecolor.embedding import format_drawing, parse_drawing, planarize
from acecolor.errors import SizeRefusal
from acecolor.generate import FAMILIES, CorpusSpec, generate_corpus, generate_instance, grid_builder
from acecolor.graph import Graph

from fixtures import crossing_two_vertices, pendant_cycle_fixture, two_vertex_on_three_face
from graphlib import complete, cube, cycle, grid, path, star, triangle_free_tiny


def kappa_for(g):
    return g.max_degree() + 16


def test_p3_two_vertex_needs_big_neighbors():
    p3 = path(2)  # 0-1-2, center has two degree-1 neighbors
    found = check_condition(p3, None, kappa_for(p3), Condition.DEG2_BIG_NEIGHBORS)
    assert [w.vertices for w in found] == [(1,)]


def test_cycle_fails_everywhere():
    c4 = cycle(4)
    found = check_condition(c4, None, 18, Condition.DEG2_BIG_NEIGHBORS)
    assert sorted(w.vertices[0] for w in found) == [0, 1, 2, 3]
    support = check_condition(c4, None, 18, Condition.DEG2_SUPPORT_COUNTS)
    assert support  # 2-vertices supported only by 2-vertices


def test_min_degree_witnesses():
    g = star(3)  # leaves have degree 1
    found = check_condition(g, None, kappa_for(g), Condition.MIN_DEGREE_2CONNECTED)
    assert {w.vertices[0] for w in found} >= {1, 2, 3}
    # articulation point
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    found = check_condition(g, None, kappa_for(g), Condition.MIN_DEGREE_2CONNECTED)
    assert any(w.vertices == (2,) for w in found)
    # disconnected
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    found = check_condition(g, None, kappa_for(g), Condition.MIN_DEGREE_2CONNECTED)
    assert any("disconnected" in w.detail for w in found)


def test_tight_vertex_small_neighbor():
    # hub of degree 18 with two 3-vertex neighbors; max degree is 18 so
    # the tight threshold is exactly 18
    edges = [(0, i) for i in range(1, 19)]
    nxt = 19
    for leaf in (1, 2):  # give two hub neighbors degree 3
        edges += [(leaf, nxt), (leaf, nxt + 1)]
        nxt += 2
    g = Graph(nxt, edges)
    assert g.max_degree() == 18
    found = check_condition(g, None, kappa_for(g), Condition.TIGHT_VERTEX_SMALL_NEIGHBOR)
    assert [w.vertices for w in found] == [(0,)]
    # with only one 3-vertex neighbor the condition holds
    edges2 = [(0, i) for i in range(1, 19)] + [(1, 19), (1, 20)]
    g2 = Graph(21, edges2)
    assert not check_condition(g2, None, kappa_for(g2), Condition.TIGHT_VERTEX_SMALL_NEIGHBOR)


def test_two_deg4_neighbors():
    # cube: every vertex has only degree-3 neighbors
    q = cube()
    found = check_condition(q, None, kappa_for(q), Condition.TWO_DEG4_NEIGHBORS)
    assert len(found) == 8


def test_deg4_neighbor_profile():
    # 4-vertex whose neighbors all have degree 5: neither branch holds
    edges = [(0, i) for i in (1, 2, 3, 4)]
    nxt = 5
    for hub in (1, 2, 3, 4):
        for _ in range(4):
            edges.append((hub, nxt))
            nxt += 1
    g = Graph(nxt, edges)
    found = check_condition(g, None, kappa_for(g), Condition.DEG4_NEIGHBOR_PROFILE)
    assert [w.vertices for w in found] == [(0,)]


def test_deg5_neighbor_profile():
    # 5-vertex with exactly two 8+ neighbors
    edges = [(0, i) for i in (1, 2, 3, 4, 5)]
    nxt = 6
    for hub in (1, 2):
        for _ in range(7):
            edges.append((hub, nxt))
            nxt += 1
    g = Graph(nxt, edges)
    found = check_condition(g, None, kappa_for(g), Condition.DEG5_NEIGHBOR_PROFILE)
    assert [w.vertices for w in found] == [(0,)]


def test_heavy_deg2_support():
    # degree-10 vertex with a 2-neighbor but no 18+ neighbors at all
    edges = [(0, i) for i in range(1, 11)] + [(1, 11)]
    g = Graph(12, edges)
    assert g.degree(1) == 2
    found = check_condition(g, None, kappa_for(g), Condition.HEAVY_DEG2_SUPPORT)
    assert [w.vertices for w in found] == [(0,)]
    # without any 2-neighbor the condition is vacuous
    g2 = star(10)
    assert not check_condition(g2, None, kappa_for(g2), Condition.HEAVY_DEG2_SUPPORT)


def test_deg4_degree_sum():
    s = star(4)  # center is a 4-vertex with four 1-neighbors
    found = check_condition(s, None, kappa_for(s), Condition.DEG4_DEGREE_SUM)
    assert [w.vertices for w in found] == [(0,)]


def test_deg3_tight_structure():
    # 3-vertex 1 adjacent to the tight hub 0 (degree 18 = max degree 18),
    # with two pendant co-neighbors: no labeling can meet the degree bounds
    edges = [(0, i) for i in range(1, 19)] + [(1, 19), (1, 20)]
    g = Graph(21, edges)
    found = check_condition(g, None, kappa_for(g), Condition.DEG3_TIGHT_STRUCTURE)
    assert any(w.vertices == (1, 0) for w in found)


def test_claims_require_drawing():
    g = grid(3, 3)
    with pytest.raises(ValueError):
        check_condition(g, None, kappa_for(g), Condition.DEG2_FACE_SIZES)
    b = grid_builder(3, 3)
    d = b.to_drawing()
    assert check_condition(d.base, planarize(d), kappa_for(d.base), Condition.DEG2_FACE_SIZES) == []


def test_conditions_refuse_a_drawing():
    # a condition takes the plane graph its caller built, never a Drawing
    # to planarize on each call
    d = generate_instance("grid-with-crossings", 3)
    g, p = d.base, planarize(d)
    w = find_reducible_configuration(g, p, kappa_for(g))
    for call in (
        lambda x: check_condition(g, x, kappa_for(g), Condition.DEG2_BIG_NEIGHBORS),
        lambda x: check_condition(g, x, kappa_for(g), Condition.DEG2_FACE_SIZES),
        lambda x: find_reducible_configuration(g, x, kappa_for(g)),
        lambda x: recheck_witness(g, x, kappa_for(g), w),
    ):
        call(p)
        with pytest.raises(TypeError, match="embedding.planarize"):
            call(d)


def test_condition_monotone_in_kappa():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(4, 10)
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pool)
        g = Graph(n, pool[: rng.randint(3, min(2 * n, len(pool)))])
        k = g.max_degree() + rng.randint(2, 20)
        smaller = {
            w.vertices
            for w in check_condition(g, None, k, Condition.DEG2_BIG_NEIGHBORS)
        }
        larger = {
            w.vertices
            for w in check_condition(g, None, k + 1, Condition.DEG2_BIG_NEIGHBORS)
        }
        assert smaller <= larger


def test_find_reducible_on_cube():
    b = __import__("acecolor.generate", fromlist=["cube_builder"]).cube_builder()
    d = b.to_drawing()
    w = find_reducible_configuration(d.base, planarize(d), kappa_for(d.base))
    assert w is not None
    assert w.condition is Condition.DEG3_BIG_NEIGHBORS


def test_find_reducible_rejects_triangles():
    k4 = complete(4)
    with pytest.raises(ValueError):
        find_reducible_configuration(k4, None, kappa_for(k4))


def test_find_reducible_on_sample_corpus_with_recheck():
    for fam in ("subdivided-quadrangulation", "grid-with-crossings", "named"):
        for seed in range(4):
            d = generate_instance(fam, seed)
            g, p = d.base, planarize(d)
            w = find_reducible_configuration(g, p, kappa_for(g))
            assert w is not None, (fam, seed)
            assert recheck_witness(g, p, kappa_for(g), w)


def test_condition_order_is_fixed_and_complete():
    assert CONDITION_ORDER[0] is Condition.MIN_DEGREE_2CONNECTED


def test_deletion_probe_k4():
    ok, detail = deletion_minimal_probe(complete(4), 4)
    assert ok
    assert not detail["colorable_with_kappa"]
    assert detail["uncolorable_deletions"] == []


def test_deletion_probe_c4():
    ok, detail = deletion_minimal_probe(cycle(4), 3)
    assert not ok
    assert detail["colorable_with_kappa"]


def test_deletion_probe_default_palette_never_minimal():
    for name, g in triangle_free_tiny():
        ok, _ = deletion_minimal_probe(g, g.max_degree() + 16)
        assert not ok, name


def test_deletion_probe_below_every_bound_is_not_minimal():
    # neither K2 nor its edgeless deletion colors with -1 colors
    ok, detail = deletion_minimal_probe(Graph(2, [(0, 1)]), -1)
    assert not ok
    assert detail["uncolorable_deletions"] == [(0, 1)]


def test_deletion_probe_size_refusal():
    with pytest.raises(SizeRefusal):
        deletion_minimal_probe(grid(4, 4), 10)


def test_deletion_probe_isolated_vertex():
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3)])  # vertex 4 isolated
    ok, detail = deletion_minimal_probe(g, 2)
    assert not ok
    assert detail["isolated_vertices"] == [4]


def test_find_reducible_refuses_palette_below_max_degree():
    d = generate_instance("grid-with-crossings", 3)
    g, p = d.base, planarize(d)
    for kappa in (0, g.max_degree() - 1):
        with pytest.raises(ValueError, match="below max degree"):
            find_reducible_configuration(g, p, kappa)
    find_reducible_configuration(g, p, g.max_degree())  # the lowest palette accepted


@pytest.mark.parametrize(
    "cond",
    [Condition.DEG2_BIG_NEIGHBORS, Condition.DEG2_FACE_SIZES, Condition.TRIANGLE_FACE_BUDGET],
)
def test_scope_outside_vertex_range_is_refused(cond):
    # in a drawing with crossings, id n is a vertex of the plane graph (the
    # first crossing) but not of the graph the conditions speak about
    b = grid_builder(3, 4)
    b.insert_crossing(5, 6)
    d = b.to_drawing()
    g, p = d.base, planarize(d)
    for bad in (-1, g.n):
        for scope in ((bad,), (0, bad)):
            with pytest.raises(ValueError, match="outside"):
                check_condition(g, p, kappa_for(g), cond, vertices=scope)
    # the scope may be any iterable, an iterator included
    full = check_condition(g, p, kappa_for(g), cond)
    assert check_condition(g, p, kappa_for(g), cond, vertices=iter(range(g.n))) == full


@st.composite
def face_drawings(draw):
    """Generated corpus drawings, or grids with subdivided edges and
    crossings that may put 2-vertices on 3-faces."""
    if draw(st.booleans()):
        return generate_instance(draw(st.sampled_from(FAMILIES)), draw(st.integers(0, 500)))
    b = crossing_two_vertices(grid_builder(draw(st.integers(2, 5)), draw(st.integers(2, 5))))
    for _ in range(draw(st.integers(0, 5))):
        b.subdivide(*draw(st.sampled_from(sorted(b.edges))))
    for _ in range(draw(st.integers(0, 5))):
        a, c = draw(st.sampled_from(sorted(b.edges)))
        if b.can_insert_crossing(a, c):
            b.insert_crossing(a, c)
    return b.to_drawing()


@settings(max_examples=80, deadline=None)
@given(face_drawings(), st.data())
def test_scoped_face_conditions_match_full_scope(d, data):
    p = planarize(d)
    g = d.base
    # the per-vertex 3-faces agree with a recount from the face list
    recount = Counter(v for f in p.faces if len(f) == 3 for v in f)
    for v in range(p.n):
        assert len(p.triangles_at[v]) == recount[v]
        assert p.triangles_at[v] == tuple(i for i in p.faces_at(v) if len(p.faces[i]) == 3)
    on_3_faces = check_condition(g, p, kappa_for(g), Condition.DEG2_FACE_SIZES)
    assert [w.vertices for w in on_3_faces] == [
        (v,)
        for v in range(p.n_real)
        if g.degree(v) == 2
        for i in p.faces_at(v)
        if len(p.faces[i]) == 3
    ]
    scope = data.draw(st.sets(st.integers(0, g.n - 1)))
    for cond in (Condition.DEG2_FACE_SIZES, Condition.TRIANGLE_FACE_BUDGET):
        full = check_condition(g, p, kappa_for(g), cond)
        scoped = check_condition(g, p, kappa_for(g), cond, vertices=scope)
        assert scoped == [w for w in full if w.vertices[0] in scope]
    # deg2-support-counts binds the support vertex; its refinements depend
    # on the slack, so check a drawn palette too
    for kappa in (kappa_for(g), g.max_degree() + data.draw(st.integers(0, 4))):
        cond = Condition.DEG2_SUPPORT_COUNTS
        full = check_condition(g, p, kappa, cond)
        scoped = check_condition(g, p, kappa, cond, vertices=scope)
        assert scoped == [w for w in full if w.vertices[0] in scope]


@st.composite
def union_drawings(draw):
    """face_drawings, or now and then a 4-cycle with a pendant vertex,
    whose cut vertex precedes its 1-vertex."""
    if draw(st.integers(0, 9)) == 0:
        return pendant_cycle_fixture()
    return draw(face_drawings())


@settings(max_examples=80, deadline=None)
@given(union_drawings(), st.data())
def test_scoped_check_is_the_concatenation_of_single_vertex_checks(d, data):
    # the audit blames a batch of elements with one check per condition,
    # scoped to the union of their vertices, and hands each vertex its own
    # witnesses: that is sound because a check scoped to S returns the
    # single-vertex results over sorted(S), one after another
    p = planarize(d)
    g = d.base
    kappa = g.max_degree() + data.draw(st.integers(0, 6))
    for scope in (data.draw(st.sets(st.integers(0, g.n - 1))), set(range(g.n))):
        for cond in CONDITION_ORDER:
            singles = [
                w for v in sorted(scope) for w in check_condition(g, p, kappa, cond, vertices=(v,))
            ]
            assert check_condition(g, p, kappa, cond, vertices=scope) == singles, cond
            # a scope with repeats, in any order, is the same scope
            again = sorted(scope, reverse=True) * 2
            assert check_condition(g, p, kappa, cond, vertices=again) == singles, cond


def test_two_vertex_on_three_face_is_found_in_scope():
    # a subdivision vertex next to a crossing lies on a 3-face; its own
    # scope finds it, and a scope without it does not
    d = two_vertex_on_three_face()
    p = planarize(d)
    g = d.base
    w = g.n - 1  # the subdivision vertex
    assert p.triangles_at[w]
    found = check_condition(g, p, kappa_for(g), Condition.DEG2_FACE_SIZES, vertices=(w,))
    assert found and all(f.vertices == (w,) for f in found)
    others = tuple(v for v in range(g.n) if v != w)
    assert not [
        f
        for f in check_condition(g, p, kappa_for(g), Condition.DEG2_FACE_SIZES, vertices=others)
        if f.vertices == (w,)
    ]


def test_two_vertex_crossing_builder_draws_the_fixture():
    # the builder face_drawings draws from crosses an edge at a 2-vertex,
    # and so draws the fixture the library's builder refuses
    library = grid_builder(3, 3)
    b = crossing_two_vertices(grid_builder(3, 3))
    w = b.subdivide(0, 1)
    assert library.subdivide(0, 1) == w and not library.can_insert_crossing(w, 1)
    b.insert_crossing(w, 1)
    assert format_drawing(b.to_drawing()) == format_drawing(two_vertex_on_three_face())


def test_audit_runs_one_cut_vertex_search_per_drawing(monkeypatch):
    # planarizing, the full-scope checks and the reducible-witness search
    # share the components and cut vertices of the graph's one search
    calls = []
    find = Graph._search
    monkeypatch.setattr(Graph, "_search", lambda g: calls.append(1) or find(g))
    d = generate_instance("subdivided-quadrangulation", 3)
    g, p = d.base, planarize(d)
    for cond in CONDITION_ORDER:
        check_condition(g, p, kappa_for(g), cond)
    assert find_reducible_configuration(g, p, kappa_for(g)) is not None
    assert len(calls) == 1


def test_audit_runs_one_component_search_per_graph(monkeypatch):
    # planarizing, discharging, the full-scope checks and the
    # reducible-witness search share the base graph's kept components and
    # cut vertices, from one search: the plane graph keeps no graph of its
    # own, crossed or not. Each drawing is read back from its file, so its
    # graph is fresh.
    calls = []
    find = Graph._search
    monkeypatch.setattr(Graph, "_search", lambda g: calls.append(g) or find(g))
    for family in ("subdivided-quadrangulation", "grid-with-crossings"):
        d = parse_drawing(format_drawing(generate_instance(family, 3)))
        calls.clear()
        g, p = d.base, planarize(d)
        discharge(p, g)
        for cond in CONDITION_ORDER:
            check_condition(g, p, kappa_for(g), cond)
        assert find_reducible_configuration(g, p, kappa_for(g)) is not None
        assert calls == [g], family
    assert d.crossing_pairs


def _support_details_strictly_increase(g, kappa):
    """The details of each support's deg2-support-counts witnesses are
    sorted, with no repeats; returns how many witnesses there were."""
    found = check_condition(g, None, kappa, Condition.DEG2_SUPPORT_COUNTS)
    by_support = {}
    for w in found:
        by_support.setdefault(w.vertices, []).append(w.detail)
    for b, details in by_support.items():
        assert all(x < y for x, y in zip(details, details[1:])), (b, details)
    return len(found)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(0, 10**6), st.integers(0, 20))
def test_deg2_support_witnesses_come_once_each_in_text_order(family, seed, slack):
    # at small slacks the strong-neighbor counts can fire beside the per-2-vertex one
    g = generate_instance(family, seed).base
    _support_details_strictly_increase(g, g.delta + slack)


def test_per_two_vertex_support_witnesses_sort_as_their_text():
    # a hub 0 whose 2-neighbors 1..12 each lead on to a leaf: the 2-vertex
    # ids have one and two digits, and "support 0 of 2-vertex 12:" sorts
    # before "support 0 of 2-vertex 1:"
    g = Graph(25, [(0, v) for v in range(1, 13)] + [(v, v + 12) for v in range(1, 13)])
    assert _support_details_strictly_increase(g, g.delta + 16)
    found = check_condition(g, None, g.delta + 16, Condition.DEG2_SUPPORT_COUNTS)
    at_hub = [w.detail.split()[4] for w in found if w.vertices == (0,)]
    assert at_hub == ["10:", "11:", "12:"] + [f"{v}:" for v in range(1, 10)]


def test_checks_and_discharge_word_no_text(worded):
    # a witness or a violation words its text only when its detail is
    # read: the full-scope checks, the reducible-witness search and the
    # discharge's text report read none
    witnesses, violations = [], []
    for _, d in generate_corpus(CorpusSpec(count=20, seed=1000)):
        g, p = d.base, planarize(d)
        kappa = kappa_for(g)
        for cond in CONDITION_ORDER:
            witnesses += check_condition(g, p, kappa, cond)
        assert find_reducible_configuration(g, p, kappa) is not None
        rep = discharge(p, g, kappa)
        assert rep.to_text()
        violations += [v for ne in rep.negative_elements for v in ne.violated]
    assert witnesses and violations and worded == []
    # each read words the text anew, and the same text
    for x in witnesses + violations:
        assert x.detail == x.detail
    assert len(worded) == 2 * (len(witnesses) + len(violations))
    assert set(worded) >= {"_word_deg2_big", "_word_two_deg4", "_word_support_count"}
