"""Hand-built drawing fixtures shared by the tests, and a builder for the
drawings with 2-vertices on 3-faces that the library's builder refuses."""

from __future__ import annotations

from acecolor.embedding import parse_drawing
from acecolor.generate import DrawingBuilder, grid_builder
from acecolor.graph import canonical_edge


def subdivided_grid_two_vertex():
    """3x4 grid with one interior edge subdivided: the new 2-vertex has
    two supports of degree >= 3 and no 3-face, the balanced case."""
    b = grid_builder(3, 4)
    w = b.subdivide(5, 6)
    return b.to_drawing(), w


def crossed_grid():
    """4x4 grid with one crossing insertion: two 3-faces, each carrying
    one crossing and two real vertices."""
    b = grid_builder(4, 4)
    b.insert_crossing(5, 6)
    return b.to_drawing()


def five_vertex_fixture():
    """A drawing holding a 5-vertex with exactly three 8+ neighbors and
    exactly three incident 3-faces (center vertex 0): a spoked ring inside
    an annulus, degree pumps on three ring/outer vertices, and three
    crossing insertions whose chords meet at the center."""
    v = 0
    r = [1 + i for i in range(8)]
    y = [9 + i for i in range(8)]
    edges = [(v, r[i]) for i in (0, 2, 4, 6)]
    rotation = {v: [r[0], r[2], r[4], r[6]]}
    for i in range(8):
        edges.append((r[i], r[(i + 1) % 8]))
        edges.append((y[i], y[(i + 1) % 8]))
        edges.append((r[i], y[i]))
        if i % 2 == 0:
            rotation[r[i]] = [y[i], r[(i + 1) % 8], v, r[(i - 1) % 8]]
        else:
            rotation[r[i]] = [y[i], r[(i + 1) % 8], r[(i - 1) % 8]]
        rotation[y[i]] = [y[(i + 1) % 8], r[i], y[(i - 1) % 8]]
    b = DrawingBuilder(17, edges, rotation)
    b.attach_square(r[2], y[2])
    b.attach_square(r[2], r[1])
    b.attach_square(r[6], r[5])
    b.attach_square(r[6], r[5])
    b.attach_square(y[7], y[6])
    b.attach_square(y[7], y[6])
    b.insert_crossing(v, r[0])
    b.insert_crossing(v, r[4])
    b.insert_crossing(r[7], r[6])
    return b.to_drawing()


def heavy_four_vertex_fixture():
    """3x3 grid whose center 4-vertex (vertex 4) has four neighbors pumped
    to degree 11 with hanging 4-cycles: the all-10+ case of the 4-vertex
    rule."""
    b = grid_builder(3, 3)
    for z in (1, 3, 5, 7):
        for _ in range(4):
            b.attach_square(z, b.rotation[z][0])
    return b.to_drawing()


def pendant_cycle_fixture():
    """The 4-cycle 0-1-2-3 with a pendant vertex 4 at 0, drawn in the
    outer face."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]
    rotation = {0: [1, 4, 3], 1: [2, 0], 2: [3, 1], 3: [0, 2], 4: [0]}
    return DrawingBuilder(5, edges, rotation).to_drawing()


def two_vertex_on_three_face():
    """A 3x3 grid whose edge 0-1 is subdivided by the 2-vertex 9, with the
    chord 0-2 crossing 9-1 at X0: 9 lies on the 3-face 0-X0-9. The
    builder keeps 2-vertices off 3-faces, so the drawing is read from its
    text; TwoVertexCrossingBuilder draws it too."""
    return parse_drawing(
        "10 14\n0 2\n0 3\n0 9\n1 2\n1 4\n1 9\n2 5\n3 4\n3 6\n4 5\n4 7\n5 8\n6 7\n7 8\n"
        "x 0 2 1 9\nrot 0: 9 X0 3\nrot 1: 2 4 X0\nrot 2: 5 1 X0\nrot 3: 0 4 6\nrot 4: 1 5 7 3\n"
        "rot 5: 2 8 4\nrot 6: 3 7\nrot 7: 4 8 6\nrot 8: 5 7\nrot 9: 0 X0\nrot X0: 2 1 0 9\n"
    )


class TwoVertexCrossingBuilder(DrawingBuilder):
    """A builder that also crosses an edge at a 2-vertex, which puts the
    2-vertex on a 3-face. The library's builder keeps 2-vertices off
    3-faces; a drawing read from a file need not, and the face conditions
    must find them there."""

    def can_insert_crossing(self, a, b):
        # DrawingBuilder.can_insert_crossing without its degree check
        e = canonical_edge(a, b)
        if e not in self.edges or e in self.crossed:
            return False
        corners = self.insertion_corners(a, b)
        if corners is None:
            return False
        p, r = corners
        if p >= self.n or r >= self.n or p == r or p in (a, b) or r in (a, b):
            return False
        return canonical_edge(p, r) not in self.edges and self._base_neighbors(p).isdisjoint(self._base_neighbors(r))


def crossing_two_vertices(b):
    """The drawing under construction in builder b, in a
    TwoVertexCrossingBuilder."""
    return TwoVertexCrossingBuilder(b.n, sorted(b.edges), b.rotation)
