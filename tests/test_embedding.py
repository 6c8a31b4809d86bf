import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acecolor import kernel
from acecolor.conditions import Condition, check_condition
from acecolor.discharging import SCALE, initial_charges
from acecolor.embedding import (
    Drawing,
    format_drawing,
    _read_drawing,
    _vertex_token,
    parse_drawing,
    planarize,
)
from acecolor.errors import EmbeddingError, ParseError
from acecolor.generate import FAMILIES, cube_builder, cycle_builder, generate_instance, grid_builder
from acecolor.graph import Graph, canonical_edge

from fixtures import crossing_two_vertices


def c4_drawing():
    return cycle_builder(4).to_drawing()


def k4_crossed_drawing():
    """K4 drawn as the square 0-1-2-3 with its two diagonals crossing once."""
    base = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    rotation = {
        0: [1, 4, 3],
        1: [2, 4, 0],
        2: [3, 4, 1],
        3: [2, 0, 4],
        4: [2, 3, 0, 1],
    }
    return Drawing(base, [((0, 2), (1, 3))], rotation)


def triangle_with_tail_drawing():
    """Triangle 0-1-2 plus the path 0-3-1 drawn below edge 01, putting the
    2-vertex 3 on a 3-face."""
    base = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])
    rotation = {0: [1, 2, 3], 1: [2, 0, 3], 2: [0, 1], 3: [1, 0]}
    return Drawing(base, [], rotation)


def contracted_edges(drawing, p):
    """The base edges recovered from the drawing's rotation: the uncrossed
    edges join two real vertices, and the rotation (a, b, c, d) at each
    crossing joins its halves into {a, c} and {b, d}."""
    out = {canonical_edge(v, w) for v in range(p.n_real) for w in drawing.rotation[v] if w < p.n_real}
    for x in range(p.n_real, p.n):
        a, b, c, d = drawing.rotation[x]
        out |= {canonical_edge(a, c), canonical_edge(b, d)}
    return out


def test_c4_faces():
    p = planarize(c4_drawing())
    assert len(p.faces) == 2
    assert sorted(map(len, p.faces)) == [4, 4]


def test_single_edge_degenerate_walk():
    d = Drawing(Graph(2, [(0, 1)]), [], {0: [1], 1: [0]})
    p = planarize(d)
    assert p.faces == ((0, 1),)


def test_zero_crossings_identity():
    d = c4_drawing()
    p = planarize(d)
    assert p.base is d.base and p.n == d.base.n
    assert p.faces == tuple(kernel.trace_faces(4, [d.rotation[v] for v in range(4)]))
    assert contracted_edges(d, p) == set(d.base.edges)


@pytest.mark.parametrize(
    "n, rot, message",
    [
        (2, [(1,), ()], r"^dart \(0, 1\) has no reverse: 0 is not in rot\[1\]$"),
        (2, [(5,), (0,)], r"^rot\[0\]\[0\] = 5 is out of range \[0, 2\)$"),
        (1, [(0,)], r"^rot\[0\]\[0\] is a loop at vertex 0$"),
        (3, [(1, 1), (0,), ()], r"^rot\[0\]\[1\] repeats rot\[0\]\[0\]$"),
    ],
    ids=["missing-reverse", "out-of-range", "loop", "repeat"],
)
def test_trace_faces_rejects_malformed_rotations(n, rot, message):
    # the kernel's ValueError, not a KeyError or an IndexError from the
    # walk, and no walks traced over a loop or a repeated neighbor
    with pytest.raises(ValueError, match=message):
        kernel.trace_faces(n, rot)


def test_k4_crossed_planarization():
    d = k4_crossed_drawing()
    p = planarize(d)
    assert p.n == 5
    assert len(p.faces_at(4)) == 4
    assert p.n_real == 4  # vertex 4 is the crossing
    assert sorted(map(len, p.faces)) == [3, 3, 3, 3, 4]
    # V - E + F = 5 - 8 + 5 = 2, with E = m + 2k
    assert p.n - (p.base.m + 2) + len(p.faces) == 2
    assert initial_charges(p).total() == -8 * SCALE
    assert contracted_edges(d, p) == set(p.base.edges)


def test_two_disjoint_crossings_not_adjacent():
    b = grid_builder(3, 4)
    b.insert_crossing(5, 6)
    b.insert_crossing(1, 2)
    d = b.to_drawing()
    p = planarize(d)
    crossings = list(range(p.n_real, p.n))
    assert len(crossings) == 2
    for x in crossings:
        assert all(w < p.n_real for w in d.rotation[x])


def test_face_degree_sum_is_twice_edges():
    for builder in (grid_builder(3, 3), grid_builder(2, 5), cycle_builder(7)):
        p = planarize(builder.to_drawing())
        assert sum(map(len, p.faces)) == 2 * (p.base.m + 2 * (p.n - p.n_real))


def test_triangle_free_base_puts_one_crossing_on_every_3_face():
    b = grid_builder(4, 4)
    b.insert_crossing(5, 6)
    b.insert_crossing(9, 10)
    p = planarize(b.to_drawing())
    assert p.base.is_triangle_free()[0]
    three = [f for f in p.faces if len(f) == 3]
    assert three
    for f in three:
        assert sum(1 for v in f if v >= p.n_real) == 1


def test_charge_identity_examples():
    assert initial_charges(planarize(c4_drawing())).total() == -8 * SCALE
    assert initial_charges(planarize(k4_crossed_drawing())).total() == -8 * SCALE
    b = grid_builder(3, 5)
    b.insert_crossing(6, 7)
    d = b.to_drawing()
    p = planarize(d)
    assert initial_charges(p).total() == -8 * SCALE
    assert contracted_edges(d, p) == set(p.base.edges)


def test_charge_identity_rejects_disconnected():
    base = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    rotation = {0: [1, 2], 1: [2, 0], 2: [0, 1], 3: [4, 5], 4: [5, 3], 5: [3, 4]}
    p = planarize(Drawing(base, [], rotation))
    with pytest.raises(EmbeddingError, match="connected"):
        initial_charges(p)


def test_charge_identity_rejects_a_drawing_without_edges():
    # one vertex or none is connected and planar, but no face walk exists
    # to carry the -4 of its one face, so the total would be -4 or 0
    for d in (Drawing(Graph(1, []), [], {0: []}), Drawing(Graph(0, []), [], {})):
        p = planarize(d)
        assert p.faces == ()
        with pytest.raises(EmbeddingError, match="with at least two edges"):
            initial_charges(p)


def test_charge_identity_rejects_a_single_edge():
    # K2 totals -8, but its one face has degree 2 and charge -2, which no
    # rule feeds and no hypothesis covers
    p = planarize(Drawing(Graph(2, [(0, 1)]), [], {0: [1], 1: [0]}))
    assert p.faces == ((0, 1),)
    with pytest.raises(EmbeddingError, match="with at least two edges"):
        initial_charges(p)


def test_degree_two_face_violations():
    def on_3_faces(p):
        found = check_condition(p.base, p, p.base.delta + 16, Condition.DEG2_FACE_SIZES)
        return [w.vertices for w in found]

    # subdivided C4: all 2-vertices, both faces large
    assert on_3_faces(planarize(cycle_builder(8).to_drawing())) == []
    # a 2-vertex on a 3-face
    assert (3,) in on_3_faces(planarize(triangle_with_tail_drawing()))
    # crossing-free quadrangulation has no 3-faces at all
    assert on_3_faces(planarize(grid_builder(3, 3).to_drawing())) == []


def test_triangle_face_budget():
    def over_budget(p):
        found = check_condition(p.base, p, p.base.delta + 16, Condition.TRIANGLE_FACE_BUDGET)
        return [(w.vertices, w.detail) for w in found]

    # crossing-free triangle-free drawing: zero 3-faces
    assert over_budget(planarize(grid_builder(3, 3).to_drawing())) == []
    # boundary arithmetic: a 3-vertex with two 2-neighbors on two 3-faces
    # has budget floor(2 * (3 - 2) / 3) = 0
    assert over_budget(planarize(triangle_with_tail_drawing())) == [
        ((0,), "vertex 0 lies on 2 3-faces, budget 0"),
        ((1,), "vertex 1 lies on 2 3-faces, budget 0"),
    ]


def test_drawing_rejects_bad_crossing_pairs():
    base = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    rot = {0: [1, 2, 3], 1: [2, 0, 3], 2: [3, 0, 1], 3: [2, 0, 1]}
    with pytest.raises(EmbeddingError):
        Drawing(base, [((0, 2), (0, 1))], rot)  # shares endpoint 0
    with pytest.raises(EmbeddingError):
        Drawing(base, [((0, 2), (1, 3)), ((0, 2), (1, 3))], rot)  # edge crossed twice
    with pytest.raises(EmbeddingError):
        Drawing(Graph(3, [(0, 1)]), [((0, 1), (1, 2))], {})  # non-edge in pair


def test_planarize_rejects_inconsistent_rotation():
    base = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(EmbeddingError):
        planarize(Drawing(base, [], {0: [1], 1: [0], 2: [1]}))  # missing 2 in rot[1]? no: rot[1] lacks 2
    with pytest.raises(EmbeddingError):
        planarize(Drawing(base, [], {0: [1], 1: [0, 2]}))  # rotation missing vertex 2
    with pytest.raises(EmbeddingError):
        planarize(Drawing(base, [], {0: [1, 2], 1: [0, 2], 2: [1, 0]}))  # 0-2 not an edge


def test_planarize_rejects_nonplanar_rotation():
    # K4 with every rotation in ascending order traces only 2 faces, a
    # genus-1 system: V - E + F = 4 - 6 + 2 = 0, rejected
    base = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    rotation = {0: [1, 2, 3], 1: [0, 2, 3], 2: [0, 1, 3], 3: [0, 1, 2]}
    with pytest.raises(EmbeddingError):
        planarize(Drawing(base, [], rotation))


def test_planarize_refuses_a_toroidal_component_beside_planar_ones():
    # K4 on 0..3, a 4-cycle on 4..7 and the isolated vertex 8: with every
    # K4 rotation ascending the K4 is a torus, V-E+F = 4-6+2 = 0, so the
    # whole gives 9-10+4+1 = 4, not 2C = 6; drawn planar the K4 has 4
    # faces and the whole 6
    base = Graph(9, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    beside = {4: [5, 7], 5: [6, 4], 6: [7, 5], 7: [4, 6], 8: []}
    toroidal = {0: [1, 2, 3], 1: [0, 2, 3], 2: [0, 1, 3], 3: [0, 1, 2]}
    with pytest.raises(EmbeddingError, match=re.escape("rotation is not planar: V-E+F+I = 9-10+4+1 != 2C = 2*3")):
        planarize(Drawing(base, [], {**toroidal, **beside}))
    planar = {0: [1, 3, 2], 1: [2, 3, 0], 2: [0, 3, 1], 3: [2, 0, 1]}
    assert len(planarize(Drawing(base, [], {**planar, **beside})).faces) == 6


def _genus_zero_per_component(g, faces):
    """Euler's formula on each component that has an edge, with the faces
    counted per component: the check the identity of ``planarize``
    replaces, kept here as its reference."""
    comps = g.connected_components()
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    face_count = Counter(comp_of[f[0]] for f in faces)
    for ci, comp in enumerate(comps):
        edge_count = sum(g.degrees[v] for v in comp) // 2
        if edge_count and len(comp) - edge_count + face_count[ci] != 2:
            return False
    return True


@st.composite
def rotated_graphs(draw):
    """A random simple graph on up to 9 vertices, with no edge between the
    vertices below a random split and those above it, and with each
    rotation row a random order of the vertex's neighbors."""
    n = draw(st.integers(0, 9))
    split = draw(st.integers(0, n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u < split) == (v < split)]
    g = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    return g, {v: draw(st.permutations(g.adj[v])) for v in range(n)}


@settings(max_examples=300, deadline=None)
@given(rotated_graphs())
def test_euler_identity_agrees_with_the_per_component_check(graph_and_rotation):
    g, rotation = graph_and_rotation
    faces = kernel.trace_faces(g.n, [tuple(rotation[v]) for v in range(g.n)])
    try:
        planarize(Drawing(g, [], rotation))
    except EmbeddingError:
        assert not _genus_zero_per_component(g, faces)
    else:
        assert _genus_zero_per_component(g, faces)


def test_planarize_rejects_bad_crossing_rotation():
    d = k4_crossed_drawing()
    rot = {v: list(r) for v, r in d.rotation.items()}
    rot[4] = [2, 0, 3, 1]  # segments of the same edge adjacent, not opposite
    with pytest.raises(EmbeddingError):
        planarize(Drawing(d.base, list(d.crossing_pairs), rot))


def test_planarize_refuses_a_crossing_between_two_components():
    # two disjoint edges crossing once: the plane graph is a star, but the
    # crossing goes when one edge is drawn beside the other
    rotation = {0: [4], 1: [4], 2: [4], 3: [4], 4: [0, 2, 1, 3]}
    d = Drawing(Graph(4, [(0, 1), (2, 3)]), [((0, 1), (2, 3))], rotation)
    with pytest.raises(EmbeddingError, match=re.escape(
            "crossing pair (0, 1) x (2, 3) joins two components; such crossings "
            "are always removable and are rejected")):
        planarize(d)
    # a crossing inside one component of a disconnected drawing is drawn
    p = planarize(_with_isolated(k4_crossed_drawing(), 2))
    assert p.n == 7 and sorted(map(len, p.faces)) == [3, 3, 3, 3, 4]


def _planarize_with_a_graph(d):
    """``planarize`` as it was when the plane graph kept a ``Graph`` of its
    own: the crossed edges' halves indexed as a second graph, which its
    own search gave the components of. The reference for the rows and the
    base facts ``planarize`` derives; returns (n, faces)."""
    base, n = d.base, d.base.n
    n_all = n + len(d.crossing_pairs)
    crossed = {}
    for i, (e1, e2) in enumerate(d.crossing_pairs):
        crossed[e1] = crossed[e2] = n + i
    segments = []
    for e in base.edges:
        segments.extend([canonical_edge(end, crossed[e]) for end in e] if e in crossed else [e])
    pgraph = Graph(n_all, segments)
    rot_list = list(map(d.rotation.get, range(n_all)))
    if None in rot_list:
        raise EmbeddingError(f"rotation missing for vertices {[v for v, r in enumerate(rot_list) if r is None]}")
    if len(d.rotation) != n_all:
        raise EmbeddingError(f"rotation given for unknown vertices {[v for v in d.rotation if not 0 <= v < n_all]}")
    for v, r in enumerate(rot_list):
        if tuple(sorted(r)) != pgraph.adj[v]:
            raise EmbeddingError(f"rotation at {v} is {r}, inconsistent with planarized neighbors {pgraph.adj[v]}")
    for i, (e1, e2) in enumerate(d.crossing_pairs):
        r = rot_list[n + i]
        if len(r) != 4 or {r[0], r[2]} not in (set(e1), set(e2)):
            raise EmbeddingError(f"rotation at crossing {n + i} does not alternate edges {e1} and {e2}: {r}")
    faces = kernel.trace_faces(n_all, rot_list)
    v, e, f = n_all, pgraph.m, len(faces)
    i, c = pgraph.degrees.count(0), len(pgraph.connected_components())
    if v - e + f + i != 2 * c:
        raise EmbeddingError(f"rotation is not planar: V-E+F+I = {v}-{e}+{f}+{i} != 2C = 2*{c}")
    return n_all, tuple(faces)


@st.composite
def crossed_drawings(draw):
    """A grid, cycle or cube drawing, subdivided, then crossed at random by
    the library's builder or by TwoVertexCrossingBuilder, with up to 2
    isolated vertices; then, in two of three, one rotation entry of a row
    of three or more replaced by any vertex or swapped with another."""
    shape = draw(st.sampled_from(["grid", "cycle", "cube"]))
    if shape == "grid":
        b = grid_builder(draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    else:
        b = cycle_builder(draw(st.integers(4, 9))) if shape == "cycle" else cube_builder()
    for _ in range(draw(st.integers(0, 3))):
        b.subdivide(*draw(st.sampled_from(sorted(b.edges))))
    if draw(st.booleans()):
        b = crossing_two_vertices(b)
    for _ in range(draw(st.integers(1, 5))):
        a, c = draw(st.sampled_from(sorted(b.edges)))
        if b.can_insert_crossing(a, c):
            b.insert_crossing(a, c)
    d = _with_isolated(b.to_drawing(), draw(st.integers(0, 2)))
    edit = draw(st.sampled_from(["none", "replace", "swap"]))
    rotation = {v: list(row) for v, row in d.rotation.items()}
    rows = [row for v, row in sorted(rotation.items()) if len(row) >= 3]  # a swap in a row of two is none
    if edit == "none" or not rows:
        return d
    row = draw(st.sampled_from(rows))
    i = draw(st.integers(0, len(row) - 1))
    if edit == "replace":
        row[i] = draw(st.integers(0, len(rotation) - 1))
    else:
        j = (i + draw(st.integers(1, len(row) - 1))) % len(row)
        row[i], row[j] = row[j], row[i]
    return Drawing(d.base, d.crossing_pairs, rotation)


@settings(max_examples=150, deadline=None)
@given(crossed_drawings())
def test_planarize_agrees_with_the_plane_graph_it_once_built(d):
    # the same drawings accepted, with the same faces, and the same ones
    # refused, with the same message
    try:
        expected = _planarize_with_a_graph(d)
    except EmbeddingError as exc:
        with pytest.raises(EmbeddingError) as got:
            planarize(d)
        assert str(got.value) == str(exc)
    else:
        p = planarize(d)
        assert (p.n, p.faces) == expected


def test_drawing_file_roundtrip():
    b = grid_builder(3, 4)
    b.insert_crossing(5, 6)
    d = b.to_drawing()
    text = format_drawing(d)
    back = parse_drawing(text)
    assert back.base == d.base
    assert back.crossing_pairs == d.crossing_pairs
    assert back.rotation == d.rotation
    assert format_drawing(back) == text
    # and the parsed drawing planarizes identically
    assert initial_charges(planarize(back)).total() == -8 * SCALE


def test_parse_drawing_rejects_malformed():
    good = format_drawing(k4_crossed_drawing())
    with pytest.raises(ParseError):
        parse_drawing(good.replace("x 0 2 1 3", "x 0 2 1"))
    with pytest.raises(ParseError):
        parse_drawing(good.replace("rot X0:", "rot X7:"))
    with pytest.raises(ParseError):
        parse_drawing(good + "rot 0: 1 4 3\n")  # duplicate rotation
    with pytest.raises(ParseError):
        parse_drawing("2 1\n0 1\nrot 0: 1\nrot 1: 0\nnonsense\n")


def test_parse_drawing_accepts_every_spelling_of_a_token():
    # the kernel's reader of the canonical text is a shortcut: signs,
    # leading zeros and zero-padded crossing numbers still parse, in any
    # rotation slot
    b = grid_builder(4, 4)
    b.insert_crossing(5, 6)
    b.insert_crossing(7, 11)
    d = b.to_drawing()
    text = format_drawing(d)

    def respell(tok: str) -> str:
        if tok.startswith("X"):
            return "X0" + tok[1:]
        return (f"+{tok}", f"00{tok}", tok)[int(tok) % 3]  # 3 -> +3, 7 -> 007

    lines = []
    for ln in text.splitlines():
        if ln.startswith("rot "):
            head, row = ln[4:].split(":")
            ln = f"rot {respell(head)}: " + " ".join(respell(t) for t in row.split())
        lines.append(ln)
    odd = "\n".join(lines) + "\n"
    assert "+3" in odd and "007" in odd and "X01" in odd
    back = parse_drawing(odd)
    assert back.rotation == d.rotation and back.base == d.base
    assert back.crossing_pairs == d.crossing_pairs
    assert format_drawing(back) == text


@pytest.mark.parametrize("tok", ["Y", "1.0", "Xa", "X", "X1", "X-1", "99", "-1", "4", "X+"])
@pytest.mark.parametrize("slot", ["head", "row"])
def test_parse_drawing_rejects_a_bad_token_with_its_own_message(tok, slot):
    good = format_drawing(k4_crossed_drawing())
    with pytest.raises(ParseError) as expected:
        _vertex_token(tok, 4, 1)
    if slot == "head":
        bad = good.replace("rot 3:", f"rot {tok}:")
    else:
        bad = good.replace("rot 3: 2 0 X0", f"rot 3: 2 {tok} X0")
    with pytest.raises(ParseError, match=re.escape(str(expected.value))):
        parse_drawing(bad)


def test_parse_drawing_names_a_negative_edge_count():
    with pytest.raises(ParseError, match=re.escape("drawing: negative edge count in header '3 -1'")):
        parse_drawing("3 -1\nrot 0:\nrot 1:\nrot 2:\n")


def test_parse_drawing_prefixes_a_bad_rotation_token():
    with pytest.raises(ParseError, match=r"^drawing: vertex 5 out of range 0\.\.1$"):
        parse_drawing("2 1\n0 1\nrot 0: 1\nrot 1: 0\nrot 5: 1\n")
    with pytest.raises(ParseError, match=r"^drawing: crossing X1 out of range \(have 0 pairs\)$"):
        parse_drawing("2 1\n0 1\nrot 0: X1\nrot 1: 0\n")


@pytest.mark.parametrize("n", [10**6, 2**31 - 2])
def test_parse_drawing_refuses_a_header_beyond_its_rotation_lines(backend, monkeypatch, n):
    # every planarized vertex needs a rotation line, so a header with more
    # vertices than the text has rotation lines is refused before the graph
    # allocates a row for each
    monkeypatch.setattr(kernel, "read_drawing", backend.read_drawing)

    def built(*_):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(kernel, "index_edges", built)
    with pytest.raises(ParseError, match=re.escape(
            f"drawing: n + k = {n} + 0 planarized vertices need as many rotation lines, found 1")):
        parse_drawing(f"{n} 0\nrot 0: \n")
    with pytest.raises(ParseError, match=re.escape(
            "drawing: n + k = 5 + 1 planarized vertices need as many rotation lines, found 3")):
        parse_drawing("5 2\n0 2\n3 1\nx 0 2 1 3\nrot 0: X0\nrot 4: \nrot X0: 0 1 2 3\n")


def _with_isolated(d, extra):
    """The drawing d with `extra` isolated vertices added after its base
    vertices; the crossing vertices move up by as many."""
    n = d.base.n

    def shift(v):
        return v + extra if v >= n else v

    rotation = {shift(v): [shift(w) for w in row] for v, row in d.rotation.items()}
    rotation.update((n + j, []) for j in range(extra))
    return Drawing(Graph(n + extra, d.base.edges), d.crossing_pairs, rotation)


EDIT_CHARS = "0123456789 xXrot:\n\r+-\t\u0661"


@st.composite
def drawing_texts(draw):
    """The canonical text of a generated drawing, with up to 2 isolated
    vertices added, then up to two edits: a character changed, inserted
    or deleted, a line duplicated or dropped, CRLF line ends, or the last
    newline dropped."""
    family = draw(st.sampled_from(FAMILIES))
    d = generate_instance(family, draw(st.integers(0, 10**6)), n_min=6, n_max=16)
    text = format_drawing(_with_isolated(d, draw(st.integers(0, 2))))
    for edit in draw(st.lists(st.sampled_from(["change", "insert", "delete", "dup", "drop", "crlf", "cut"]),
                              max_size=2)):
        at = draw(st.integers(0, len(text)))
        lines = text.splitlines(keepends=True)
        line = draw(st.integers(0, max(len(lines) - 1, 0)))
        if edit == "change" and text:
            at = min(at, len(text) - 1)
            text = text[:at] + draw(st.sampled_from(EDIT_CHARS)) + text[at + 1:]
        elif edit == "insert":
            text = text[:at] + draw(st.sampled_from(EDIT_CHARS)) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        elif edit == "dup" and lines:
            text = "".join(lines[:line + 1] + lines[line:])
        elif edit == "drop" and lines:
            text = "".join(lines[:line] + lines[line + 1:])
        elif edit == "crlf":
            text = text.replace("\n", "\r\n")
        elif edit == "cut":
            text = text.removesuffix("\n")
    return text


def _drawing_or_message(read, text):
    try:
        d = read(text)
    except ParseError as exc:
        return str(exc)
    return d.base, d.crossing_pairs, d.rotation


@settings(max_examples=400, deadline=None)
@given(drawing_texts())
def test_readers_agree_on_edited_drawing_texts(c_kernel, text):
    # the C scanner's numbers, when it reads the text, are the reference
    # reader's; parse_drawing ends as the reference does
    fast = c_kernel.read_drawing(text)
    reference = _drawing_or_message(_read_drawing, text)
    assert _drawing_or_message(parse_drawing, text) == reference
    if fast is None:
        return
    n, edges, pairs, rotation = fast
    if isinstance(reference, str):
        # the reference refuses only what Graph or Drawing refuse
        with pytest.raises(ValueError):
            Drawing(Graph(n, edges), pairs, rotation)
        return
    base, crossing_pairs, ref_rotation = reference
    assert n == base.n and len(edges) == base.m
    assert sorted(canonical_edge(*e) for e in edges) == list(base.edges)
    assert [tuple(sorted(map(lambda e: canonical_edge(*e), p))) for p in pairs] == list(crossing_pairs)
    assert {v: tuple(row) for v, row in rotation.items()} == ref_rotation


def test_every_generated_drawing_takes_the_kernel_reader(c_kernel):
    # the canonical text of each family, isolated vertices included, reads
    # back the same through the C scanner as through the reference reader
    for family in FAMILIES:
        for seed in range(4):
            d = _with_isolated(generate_instance(family, seed, n_min=6, n_max=16), seed % 3)
            text = format_drawing(d)
            assert c_kernel.read_drawing(text) is not None
            assert _drawing_or_message(parse_drawing, text) == _drawing_or_message(_read_drawing, text)
            assert format_drawing(parse_drawing(text)) == text
