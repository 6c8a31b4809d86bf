"""Hand-built drawing fixtures shared by the discharging and acceptance tests."""

from __future__ import annotations

from acecolor.generate import DrawingBuilder, grid_builder


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
