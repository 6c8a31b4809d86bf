"""Construction of triangle-free 1-planar drawings.

The builder starts from a plane rotation system (grid quadrangulations,
cycles, the cube), optionally subdivides edges, and then inserts crossing
chords. One insertion picks an uncrossed edge (a, b) whose two flanking
faces are distinct, and joins the far corners of those faces: with f1 the
face walking a->b and f2 the face walking b->a, the chord runs from p
(the vertex after b on f1) to r (the vertex after a on f2), crossing ab.
The insertion splits each flanking face into a 3-face and a face of the
original degree, so Euler's formula is preserved by construction.

Each insertion question is read locally from the rotation system (p
follows a at b, r follows b at a, and the flanking faces are distinct iff
the walk of f1 misses b->a), so a candidate costs O(degree + flanking
face), not a pass over the whole drawing.

Everything here is seed-deterministic; the embedding module re-validates
every emitted drawing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .embedding import Drawing, planarize
from .errors import EmbeddingError
from .graph import Edge, Graph, canonical_edge


class DrawingBuilder:
    """Mutable drawing under construction.

    Planar mutations (subdivision) are only allowed before the first
    crossing insertion, because crossing vertex ids are anchored to the
    final base vertex count.
    """

    def __init__(self, n: int, edges: list[Edge], rotation: dict[int, list[int]]):
        self.n = n
        self.edges: set[Edge] = {canonical_edge(*e) for e in edges}
        self.rotation: dict[int, list[int]] = {v: list(r) for v, r in rotation.items()}
        self.pairs: list[tuple[Edge, Edge]] = []
        self.crossed: set[Edge] = set()

    # -- planar phase ---------------------------------------------------------

    def subdivide(self, u: int, v: int) -> int:
        """Replace edge uv by a path u-w-v through a new vertex w."""
        if self.pairs:
            raise ValueError("cannot subdivide after crossings were inserted")
        e = canonical_edge(u, v)
        if e not in self.edges:
            raise ValueError(f"edge {e} not present")
        w = self.n
        self.n += 1
        self.edges.remove(e)
        self.edges.add(canonical_edge(u, w))
        self.edges.add(canonical_edge(v, w))
        self.rotation[w] = [u, v]
        self.rotation[u][self.rotation[u].index(v)] = w
        self.rotation[v][self.rotation[v].index(u)] = w
        return w

    def attach_square(self, z: int, after: int) -> tuple[int, int, int]:
        """Hang a 4-cycle z-w1-w2-w3 at z inside the face corner following
        neighbor `after` in z's rotation; returns the new (w1, w2, w3)."""
        if self.pairs:
            raise ValueError("cannot attach a cycle after crossings were inserted")
        rot = self.rotation[z]
        if after not in rot:
            raise ValueError(f"{after} is not a neighbor of {z}")
        w1, w2, w3 = self.n, self.n + 1, self.n + 2
        self.n += 3
        self.edges.update(canonical_edge(*e) for e in ((z, w1), (w1, w2), (w2, w3), (w3, z)))
        i = rot.index(after)
        rot[i + 1 : i + 1] = [w1, w3]
        self.rotation[w1] = [z, w2]
        self.rotation[w2] = [w1, w3]
        self.rotation[w3] = [w2, z]
        return w1, w2, w3

    # -- crossing phase -------------------------------------------------------

    def _after(self, v: int, u: int) -> int:
        """The neighbor after u in v's rotation: the face walk's next step
        from dart (u, v)."""
        rot = self.rotation[v]
        return rot[(rot.index(u) + 1) % len(rot)]

    def _base_neighbors(self, v: int) -> set[int]:
        """Base neighbors of a real vertex, read from its rotation: a
        crossing stands for the vertex opposite v there."""
        out = set()
        for w in self.rotation[v]:
            if w >= self.n:
                rot = self.rotation[w]
                w = rot[(rot.index(v) + 2) % 4]
            out.add(w)
        return out

    def insertion_corners(self, a: int, b: int) -> tuple[int, int] | None:
        """Chord corners for crossing edge (a, b), or None if (a, b) is not
        a dart of the rotation or has no two distinct flanking faces."""
        if b not in self.rotation.get(a, ()):
            return None
        u, v = a, b
        while True:  # walk the face of (a, b); meeting (b, a) means one face
            u, v = v, self._after(v, u)
            if (u, v) == (b, a):
                return None
            if (u, v) == (a, b):
                return self._after(b, a), self._after(a, b)

    def can_insert_crossing(self, a: int, b: int) -> bool:
        e = canonical_edge(a, b)
        if e not in self.edges or e in self.crossed:
            return False
        if len(self.rotation[a]) < 3 or len(self.rotation[b]) < 3:
            # the new 3-faces contain a and b; keep 2-vertices off 3-faces
            return False
        corners = self.insertion_corners(a, b)
        if corners is None:
            return False
        p, r = corners
        if p >= self.n or r >= self.n:  # chord must join real vertices
            return False
        if p == r or p in (a, b) or r in (a, b):
            return False
        if canonical_edge(p, r) in self.edges:
            return False
        # a common neighbor of p and r would close a triangle with the chord
        return self._base_neighbors(p).isdisjoint(self._base_neighbors(r))

    def insert_crossing(self, a: int, b: int) -> int:
        """Insert a chord crossing edge (a, b); returns the crossing vertex id."""
        if not self.can_insert_crossing(a, b):
            raise EmbeddingError(f"cannot insert a crossing over edge ({a}, {b})")
        p, r = self._after(b, a), self._after(a, b)
        x = self.n + len(self.pairs)
        chord = canonical_edge(p, r)
        self.edges.add(chord)
        self.pairs.append((canonical_edge(a, b), chord))
        self.crossed.add(canonical_edge(a, b))
        self.crossed.add(chord)
        rot = self.rotation
        rot[a][rot[a].index(b)] = x
        rot[b][rot[b].index(a)] = x
        rot[p].insert(rot[p].index(b) + 1, x)
        rot[r].insert(rot[r].index(a) + 1, x)
        rot[x] = [p, b, r, a]
        return x

    # -- finish ----------------------------------------------------------------

    def to_drawing(self) -> Drawing:
        base = Graph(self.n, sorted(self.edges))
        return Drawing(base, list(self.pairs), self.rotation)


# -- seed shapes ----------------------------------------------------------------


def grid_builder(rows: int, cols: int) -> DrawingBuilder:
    """Plane quadrangulation: the rows x cols grid with its standard
    embedding (neighbors in up, right, down, left order)."""
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2 rows and 2 columns")

    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    rotation: dict[int, list[int]] = {}
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
            rot = []
            if r > 0:
                rot.append(vid(r - 1, c))
            if c + 1 < cols:
                rot.append(vid(r, c + 1))
            if r + 1 < rows:
                rot.append(vid(r + 1, c))
            if c > 0:
                rot.append(vid(r, c - 1))
            rotation[vid(r, c)] = rot
    return DrawingBuilder(rows * cols, edges, rotation)


def cycle_builder(n: int) -> DrawingBuilder:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    rotation = {i: [(i - 1) % n, (i + 1) % n] for i in range(n)}
    return DrawingBuilder(n, edges, rotation)


def cube_builder() -> DrawingBuilder:
    """The 3-cube with outer square 0-3 and inner square 4-7."""
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 0),
        (4, 5), (5, 6), (6, 7), (7, 4),
        (0, 4), (1, 5), (2, 6), (3, 7),
    ]
    rotation = {
        0: [1, 4, 3],
        1: [2, 5, 0],
        2: [3, 6, 1],
        3: [2, 0, 7],
        4: [5, 7, 0],
        5: [6, 4, 1],
        6: [2, 7, 5],
        7: [6, 3, 4],
    }
    return DrawingBuilder(8, edges, rotation)


# -- corpus generation ------------------------------------------------------------

FAMILIES = ("subdivided-quadrangulation", "grid-with-crossings", "named")


@dataclass(frozen=True)
class CorpusSpec:
    count: int
    n_min: int = 10
    n_max: int = 60
    families: tuple[str, ...] = FAMILIES
    seed: int = 0


def _grid_dims(rng: random.Random, n_min: int, n_max: int, slack: int = 0) -> tuple[int, int]:
    dims = [
        (r, c)
        for r in range(2, 9)
        for c in range(2, 11)
        if n_min <= r * c and r * c + slack <= n_max
    ]
    if not dims:
        raise ValueError(f"no grid fits in [{n_min}, {n_max}] with slack {slack}")
    return rng.choice(dims)


def _subdivide_random(builder: DrawingBuilder, rng: random.Random, count: int) -> None:
    for _ in range(count):
        candidates = sorted(builder.edges)
        u, v = rng.choice(candidates)
        builder.subdivide(u, v)


def _insert_random_crossings(
    builder: DrawingBuilder, rng: random.Random, count: int, cap: int = 100
) -> int:
    """Insert up to `count` crossings, drawing at most `cap` uncrossed
    edges in all. Returns the number actually inserted."""
    # an insertion crosses the drawn edge and adds its chord already
    # crossed, so the drawn edge is the only one to leave the candidates
    candidates = sorted(builder.edges - builder.crossed)
    inserted = 0
    attempts = 0
    while inserted < count and attempts < cap and candidates:
        e = rng.choice(candidates)
        attempts += 1
        if builder.can_insert_crossing(*e):
            builder.insert_crossing(*e)
            candidates.remove(e)
            inserted += 1
    return inserted


def generate_instance(family: str, seed: int, n_min: int = 10, n_max: int = 60) -> Drawing:
    """One seed-deterministic instance of the given family; always
    triangle-free and validated by planarize before being returned."""
    rng = random.Random(f"{family}:{seed}:{n_min}:{n_max}")
    if family == "subdivided-quadrangulation":
        subs = rng.randint(0, 8)
        rows, cols = _grid_dims(rng, max(n_min - subs, 4), n_max, slack=subs)
        builder = grid_builder(rows, cols)
        _subdivide_random(builder, rng, subs)
    elif family == "grid-with-crossings":
        rows, cols = _grid_dims(rng, n_min, n_max)
        builder = grid_builder(rows, cols)
        want = rng.randint(1, 4)
        _insert_random_crossings(builder, rng, want)
    elif family == "named":
        kind = rng.choice(["cycle", "subdivided-cube"])
        if kind == "cycle":
            builder = cycle_builder(rng.randint(max(n_min, 4), n_max))
        else:
            builder = cube_builder()
            subs = rng.randint(max(n_min - 8, 2), min(12, n_max - 8))
            _subdivide_random(builder, rng, subs)
    else:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    drawing = builder.to_drawing()
    ok, witness = drawing.base.is_triangle_free()
    if not ok:  # unreachable: insertions are triangle-filtered
        raise EmbeddingError(f"generated instance has triangle {witness}")
    planarize(drawing)  # validation only
    return drawing


def generate_corpus(spec: CorpusSpec) -> list[tuple[str, Drawing]]:
    out = []
    for i in range(spec.count):
        family = spec.families[i % len(spec.families)]
        name = f"{family}-{spec.seed + i:04d}"
        out.append((name, generate_instance(family, spec.seed + i, spec.n_min, spec.n_max)))
    return out
