import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acecolor import kernel
from acecolor.discharging import SCALE, initial_charges
from acecolor.embedding import format_drawing, planarize
from acecolor.errors import EmbeddingError
from acecolor.generate import (
    FAMILIES,
    CorpusSpec,
    DrawingBuilder,
    cube_builder,
    cycle_builder,
    generate_corpus,
    generate_instance,
    grid_builder,
)
from acecolor.graph import canonical_edge

from fixtures import TwoVertexCrossingBuilder, crossing_two_vertices


def test_grid_builder_is_quadrangulation():
    p = planarize(grid_builder(3, 4).to_drawing())
    inner = [f for f in p.faces if len(f) == 4]
    assert len(inner) == len(p.faces) - 1  # all quads plus the outer face
    assert initial_charges(p).total() == -8 * SCALE


def test_attach_square_hangs_a_4_face_in_the_corner():
    b = grid_builder(3, 3)
    assert b.attach_square(4, 1) == (9, 10, 11)
    assert b.rotation[4] == [1, 9, 11, 5, 7, 3]
    p = planarize(b.to_drawing())
    assert p.base.degrees[4] == 6 and [p.base.degrees[w] for w in (9, 10, 11)] == [2, 2, 2]
    # the corner face grows from 4 to 8; the square bounds a new 4-face
    assert sorted(map(len, p.faces)) == [4] * 4 + [8, 8]
    assert initial_charges(p).total() == -8 * SCALE
    # a corner that is not there changes nothing; nor may a crossing precede it
    before = format_drawing(b.to_drawing())
    with pytest.raises(ValueError):
        b.attach_square(4, 0)
    assert format_drawing(b.to_drawing()) == before
    b.insert_crossing(4, 5)
    with pytest.raises(ValueError):
        b.attach_square(0, 1)


def test_grid_builder_rejects_degenerate():
    with pytest.raises(ValueError):
        grid_builder(1, 5)


def test_subdivide_updates_rotation():
    b = grid_builder(2, 2)
    w = b.subdivide(0, 1)
    assert w == 4
    d = b.to_drawing()
    assert d.base.degree(w) == 2
    p = planarize(d)
    assert initial_charges(p).total() == -8 * SCALE


def test_subdivision_after_crossing_rejected():
    b = grid_builder(3, 4)
    b.insert_crossing(5, 6)
    with pytest.raises(ValueError):
        b.subdivide(1, 2)


def test_insertion_creates_two_triangle_faces():
    b = grid_builder(3, 4)
    before_faces = len(planarize(b.to_drawing()).faces)
    x = b.insert_crossing(5, 6)
    p = planarize(b.to_drawing())
    three = [f for f in p.faces if len(f) == 3]
    assert len(three) == 2
    for f in three:
        assert x in f
    assert len(p.faces) == before_faces + 2


def test_insertion_refuses_2x2_grid():
    # the only chord candidates are already edges or shared corners
    b = grid_builder(2, 2)
    for u, v in sorted(b.edges):
        assert not b.can_insert_crossing(u, v)
    with pytest.raises(EmbeddingError):
        b.insert_crossing(0, 1)


def test_insertion_protects_low_degree_endpoints():
    b = grid_builder(3, 3)
    # corner vertex 0 has degree 2: crossing one of its edges would put a
    # 2-vertex on a 3-face
    assert not b.can_insert_crossing(0, 1)
    assert b.can_insert_crossing(1, 4) or b.can_insert_crossing(4, 1)


def test_insertion_triangle_filter():
    b = grid_builder(3, 3)
    x = b.insert_crossing(1, 4)
    d = b.to_drawing()
    assert d.base.is_triangle_free()[0]
    # chord endpoints kept independent
    (e1, e2) = d.crossing_pairs[0]
    assert not set(e1) & set(e2)


class ReferenceInsertion:
    """Insertion questions answered the long way: faces traced over the
    whole drawing, degrees counted over the edge set, and adjacency
    rebuilt from it."""

    def __init__(self, b):
        self.b = b
        n_all = b.n + len(b.pairs)
        self.faces = kernel.trace_faces(n_all, [tuple(b.rotation[v]) for v in range(n_all)])
        # face_of[dart]: the face i and slot j of the dart (f[j], f[j + 1])
        self.face_of = {
            dart: (i, j) for i, f in enumerate(self.faces) for j, dart in enumerate(zip(f, f[1:] + f[:1]))
        }
        self.adj = {v: set() for v in range(b.n)}
        for u, v in b.edges:
            self.adj[u].add(v)
            self.adj[v].add(u)

    def corners(self, a, c):
        at1, at2 = self.face_of.get((a, c)), self.face_of.get((c, a))
        if at1 is None or at2 is None or at1[0] == at2[0]:
            return None
        # the head of the dart after (a, c) on its face, and of the one after (c, a)
        (f1, j1), (f2, j2) = at1, at2
        walk1, walk2 = self.faces[f1], self.faces[f2]
        return walk1[(j1 + 2) % len(walk1)], walk2[(j2 + 2) % len(walk2)]

    def can_insert(self, a, c):
        degree = [sum(1 for f in self.b.edges if v in f) for v in (a, c)]
        return min(degree) >= 3 and self.can_chord(a, c)

    def can_chord(self, a, c):
        """can_insert without its degree check."""
        b = self.b
        e = canonical_edge(a, c)
        if e not in b.edges or e in b.crossed:
            return False
        corners = self.corners(a, c)
        if corners is None:
            return False
        p, r = corners
        if p >= b.n or r >= b.n or p == r or p in (a, c) or r in (a, c):
            return False
        return canonical_edge(p, r) not in b.edges and not self.adj[p] & self.adj[r]


def dumbbell_builder():
    """Two 4-cycles joined by the bridge 0-4, whose two sides lie on one
    face."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4)]
    rotation = {
        0: [3, 4, 1], 1: [0, 2], 2: [1, 3], 3: [2, 0],
        4: [7, 0, 5], 5: [4, 6], 6: [5, 7], 7: [6, 4],
    }
    return DrawingBuilder(8, edges, rotation)


@st.composite
def builders_with_steps(draw):
    """A grid, cycle, cube or dumbbell, randomly subdivided, in the
    library's builder or in one that also crosses edges at 2-vertices,
    with a list of crossing attempts (edge index, orientation) to replay."""
    kind = draw(st.sampled_from(["grid", "cycle", "cube", "dumbbell"]))
    if kind == "grid":
        b = grid_builder(draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    elif kind == "cycle":
        b = cycle_builder(draw(st.integers(3, 9)))
    elif kind == "cube":
        b = cube_builder()
    else:
        b = dumbbell_builder()
    for _ in range(draw(st.integers(0, 4))):
        b.subdivide(*draw(st.sampled_from(sorted(b.edges))))
    steps = draw(
        st.lists(st.tuples(st.integers(0, 10**6), st.booleans()), max_size=6)
    )
    return crossing_two_vertices(b) if draw(st.booleans()) else b, steps


def _assert_matches_reference(b):
    ref = ReferenceInsertion(b)
    count = b.n + len(b.pairs)
    # every ordered pair, with ids one past either end: crossed edges,
    # non-edges, crossing vertices and both orientations
    for a in range(-1, count + 1):
        for c in range(-1, count + 1):
            assert b.insertion_corners(a, c) == ref.corners(a, c), (a, c)
            assert DrawingBuilder.can_insert_crossing(b, a, c) == ref.can_insert(a, c)
            assert TwoVertexCrossingBuilder.can_insert_crossing(b, a, c) == ref.can_chord(a, c)


@settings(max_examples=60, deadline=None)
@given(builders_with_steps())
def test_insertion_questions_match_face_tracing_reference(case):
    b, steps = case
    _assert_matches_reference(b)
    for index, flip in steps:
        edges = sorted(b.edges)
        a, c = edges[index % len(edges)]
        if flip:
            a, c = c, a
        ref = ReferenceInsertion(b)
        if (ref.can_chord if isinstance(b, TwoVertexCrossingBuilder) else ref.can_insert)(a, c):
            assert b.insert_crossing(a, c) == b.n + len(b.pairs) - 1
            planarize(b.to_drawing())  # validation
        else:
            with pytest.raises(EmbeddingError):
                b.insert_crossing(a, c)
        _assert_matches_reference(b)


def test_bridge_has_no_insertion_corners():
    b = dumbbell_builder()
    planarize(b.to_drawing())  # validation
    assert b.insertion_corners(0, 4) is None and b.insertion_corners(4, 0) is None
    assert not b.can_insert_crossing(0, 4)
    assert b.insertion_corners(0, 1) == (2, 3)


def test_named_builders():
    assert planarize(cycle_builder(6).to_drawing()).graph.n == 6
    p = planarize(cube_builder().to_drawing())
    assert len(p.faces) == 6
    assert all(len(f) == 4 for f in p.faces)


def test_generate_instance_families_valid():
    for fam in FAMILIES:
        for seed in range(6):
            d = generate_instance(fam, seed)
            assert 10 <= d.base.n <= 60
            assert d.base.is_triangle_free()[0]
            p = planarize(d)  # validation
            assert initial_charges(p).total() == -8 * SCALE


def test_generate_instance_unknown_family():
    with pytest.raises(ValueError):
        generate_instance("moebius", 0)


def test_generation_deterministic():
    for fam in FAMILIES:
        a = generate_instance(fam, 7)
        b = generate_instance(fam, 7)
        assert format_drawing(a) == format_drawing(b)


def test_generate_corpus_counts_and_names():
    spec = CorpusSpec(count=9, seed=100)
    corpus = generate_corpus(spec)
    assert len(corpus) == 9
    names = [name for name, _ in corpus]
    assert len(set(names)) == 9
    fams = {name.rsplit("-", 1)[0] for name in names}
    assert fams == set(FAMILIES)


def test_crossings_present_in_crossing_family():
    seen = 0
    for seed in range(8):
        d = generate_instance("grid-with-crossings", seed)
        seen += len(d.crossing_pairs)
    assert seen > 0
