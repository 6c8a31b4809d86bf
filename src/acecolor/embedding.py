"""Combinatorial 1-planar drawings and their associated plane graphs.

A drawing is given combinatorially: the base graph, the set of crossing
pairs (unordered pairs of independent edges that cross once), and the
rotation system of the *planarized* graph, in which every crossing is a
degree-4 vertex. Crossing vertices are numbered n, n+1, ... in
crossing-pair order; in files they are written X0, X1, ...

Face traversal convention: from the directed edge (u, v), the walk
continues with (v, w) where w follows u in the rotation at v. Every
directed edge lies on exactly one face walk. A face is the tuple f of its
boundary vertices in walk order, with multiplicity: its directed edges
are (f[i], f[i + 1]), cyclically, and its degree is len(f). The walks are
traced by the kernel (``kernel.trace_faces``, in C when it is built),
which also rejects a malformed rotation.

``planarize`` builds the plane graph once per drawing: the base graph,
the vertex count n + k and the faces. Each crossing is a degree-4 vertex
with charge 0, so the plane graph's size, degrees and components follow
from the base graph, whose one kept search serves both. The 3-faces at
each vertex are indexed when the plane graph is built; the index of all
faces at each vertex is built on its first use.

This module only validates drawings; constructing them (generators,
crossing insertion) lives in ``acecolor.generate``. The facts read off
a plane graph live with their one user instead: the Euler charge total
of -8 in ``discharging.initial_charges``, and 2-vertices on 3-faces and
the 3-face budget of a vertex in the ``deg2-face-sizes`` and
``triangle-face-budget`` conditions of ``acecolor.conditions``.
"""

from __future__ import annotations

from . import kernel
from .errors import EmbeddingError, ParseError
from .graph import Edge, Graph, _checked_graph, _parse_graph_lines, canonical_edge, format_graph

CrossingPair = tuple[Edge, Edge]


class Drawing:
    """A 1-planar drawing: base graph + crossing pairs + rotation of the
    planarized graph."""

    __slots__ = ("base", "crossing_pairs", "rotation")

    def __init__(
        self,
        base: Graph,
        crossing_pairs: list[CrossingPair] | tuple[CrossingPair, ...],
        rotation: dict[int, list[int] | tuple[int, ...]],
    ):
        self.base = base
        pairs = []
        edge_set = set(base.edges) if crossing_pairs else ()
        crossed: set[Edge] = set()
        for e1, e2 in crossing_pairs:
            e1 = canonical_edge(*e1)
            e2 = canonical_edge(*e2)
            for e in (e1, e2):
                if e not in edge_set:
                    raise EmbeddingError(f"crossing pair names non-edge {e}")
                if e in crossed:
                    raise EmbeddingError(f"edge {e} crossed more than once")
                crossed.add(e)
            if set(e1) & set(e2):
                raise EmbeddingError(
                    f"crossing pair {e1} x {e2} shares an endpoint; such "
                    "crossings are always removable and are rejected"
                )
            pairs.append((e1, e2) if e1 < e2 else (e2, e1))
        self.crossing_pairs: tuple[CrossingPair, ...] = tuple(pairs)
        self.rotation = {v: tuple(rot) for v, rot in rotation.items()}


class PlaneGraph:
    """The plane graph of a drawing: crossings are degree-4 vertices.

    Vertices 0..n_real-1 are the base vertices and n_real..n-1 the
    crossings. A crossing has degree 4, so the plane graph keeps no graph
    of its own: its size, degrees and components follow from ``base``.
    Each of ``faces`` is the tuple of its boundary vertices in walk order
    (the module's face traversal convention). The rotation and the
    crossing pairs stay with the ``Drawing``.
    ``triangles_at[v]`` holds the indices of the 3-faces at v, with
    multiplicity; it is computed once, from the 3-faces alone, so that the
    face conditions cost O(deg v) per vertex: its length is v's 3-face
    count, and a 2-vertex lies on a 3-face iff it is non-empty. The index
    of all faces at each vertex (``faces_at``) is built on its first use.
    """

    __slots__ = (
        "base",
        "n_real",
        "n",
        "faces",
        "triangles_at",
        "_face_index_at",
    )

    def __init__(self, base: Graph, n: int, faces: tuple[tuple[int, ...], ...]):
        self.base = base
        self.n_real = base.n
        self.n = n
        self.faces = faces
        triangles: list[tuple[int, ...]] = [()] * n
        for i, f in enumerate(faces):
            if len(f) == 3:
                for v in f:
                    triangles[v] += (i,)
        self.triangles_at: tuple[tuple[int, ...], ...] = tuple(triangles)
        self._face_index_at: tuple[tuple[int, ...], ...] | None = None

    def faces_at(self, v: int) -> tuple[int, ...]:
        """Indices of faces incident with v, with multiplicity."""
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        if self._face_index_at is None:
            index: list[list[int]] = [[] for _ in range(self.n)]
            for i, f in enumerate(self.faces):
                for u in f:
                    index[u].append(i)
            self._face_index_at = tuple(map(tuple, index))
        return self._face_index_at[v]


def planarize(d: Drawing) -> PlaneGraph:
    """Build and validate the plane graph of a drawing.

    Checks: the rotation covers exactly the planarized vertex set and
    matches its edge set; the rotation at every crossing alternates the
    two crossed edges; no crossing pair joins two base components; the
    face walks satisfy V - E + F + I = 2C with V = n + k, E = m + 2k, and
    I and C the base's isolated vertices and components, which holds iff
    every component has genus zero.
    """
    base = d.base
    pairs = d.crossing_pairs
    n_real = base.n
    n = n_real + len(pairs)

    # rotation must cover exactly the planarized vertices and edges
    rot_list = list(map(d.rotation.get, range(n)))
    if None in rot_list:
        missing = [v for v, r in enumerate(rot_list) if r is None]
        raise EmbeddingError(f"rotation missing for vertices {missing}")
    if len(d.rotation) != n:
        extra = [v for v in d.rotation if not (0 <= v < n)]
        raise EmbeddingError(f"rotation given for unknown vertices {extra}")
    # the plane graph's sorted rows: each end of a crossed edge sees the
    # crossing in place of the far end, and a crossing's row is its four ends
    via: dict[Edge, int] = {}  # (end, far end) -> crossing
    for x, (e1, e2) in enumerate(pairs, n_real):
        for a, b in (e1, e2):
            via[a, b] = via[b, a] = x
    rows = list(base.adj)
    for v in {a for a, _ in via}:  # each touched row once
        rows[v] = tuple(sorted(via.get((v, w), w) for w in rows[v]))
    rows.extend(tuple(sorted(e1 + e2)) for e1, e2 in pairs)
    if list(map(tuple, map(sorted, rot_list))) != rows:
        v = next(v for v, r in enumerate(rot_list) if tuple(sorted(r)) != rows[v])
        raise EmbeddingError(
            f"rotation at {v} is {rot_list[v]}, inconsistent with planarized "
            f"neighbors {rows[v]}"
        )

    # crossing rotations must alternate the two original edges: opposite
    # rotation slots must be the endpoints of the same crossed edge
    for x, (e1, e2) in enumerate(pairs, n_real):
        r = rot_list[x]
        if len(r) != 4 or {r[0], r[2]} not in (set(e1), set(e2)):
            raise EmbeddingError(
                f"rotation at crossing {x} does not alternate edges "
                f"{e1} and {e2}: {r}"
            )

    components = base.connected_components()
    if len(components) > 1:  # a crossing pair may join two of them
        label = {v: c for c, comp in enumerate(components) for v in comp}
        for e1, e2 in pairs:
            if label[e1[0]] != label[e2[0]]:
                raise EmbeddingError(
                    f"crossing pair {e1} x {e2} joins two components; such "
                    "crossings are always removable and are rejected"
                )

    faces = kernel.trace_faces(n, rot_list)

    # Euler, now that the rotation matches the graph: V-E+F is at most 2 on
    # a component with an edge, 2 iff it is planar, and 1 on an isolated vertex
    v, e, f = n, base.m + 2 * len(pairs), len(faces)
    i, c = base.degrees.count(0), len(components)
    if v - e + f + i != 2 * c:
        raise EmbeddingError(f"rotation is not planar: V-E+F+I = {v}-{e}+{f}+{i} != 2C = 2*{c}")

    return PlaneGraph(base, n, tuple(faces))


# -- drawing file format -------------------------------------------------------


def _vertex_token(tok: str, n: int, n_cross: int) -> int:
    if tok.startswith("X"):
        try:
            i = int(tok[1:])
        except ValueError:
            raise ParseError(f"drawing: bad crossing token {tok!r}") from None
        if not (0 <= i < n_cross):
            raise ParseError(f"drawing: crossing {tok} out of range (have {n_cross} pairs)")
        return n + i
    try:
        v = int(tok)
    except ValueError:
        raise ParseError(f"drawing: bad vertex token {tok!r}") from None
    if not (0 <= v < n):
        raise ParseError(f"drawing: vertex {v} out of range 0..{n - 1}")
    return v


def parse_drawing(text: str) -> Drawing:
    """Parse the drawing format: graph section, `x a b c d` crossing lines,
    then `rot v: ...` rotation lines for every planarized vertex.

    The reference reader (``_read_drawing``) defines the format and names
    every error. The C kernel's fast path (``kernel.read_drawing``) reads
    the canonical text that ``format_drawing`` writes; any other text, one
    whose graph or drawing is rejected, and every text on the Python
    kernel go through the reference reader."""
    fast = kernel.read_drawing(text)
    if fast is not None:
        n, edges, pairs, rotation = fast
        try:
            return Drawing(Graph(n, edges), pairs, rotation)
        except ValueError:  # EmbeddingError is one too
            pass
    return _read_drawing(text)


def _read_drawing(text: str) -> Drawing:
    """The reference reader of the drawing format: it accepts any spelling
    of a token that ``int`` does, and any whitespace between tokens. Each
    of the n + k planarized vertices needs a rotation line, so fewer lines
    are refused before the graph allocates a row per vertex."""
    n, edges, rest = _parse_graph_lines(text.splitlines(), where="drawing")
    n_cross = 0
    while n_cross < len(rest) and rest[n_cross].split()[0] == "x":
        n_cross += 1
    if n + n_cross > len(rest) - n_cross:
        raise ParseError(
            f"drawing: n + k = {n} + {n_cross} planarized vertices need as many "
            f"rotation lines, found {len(rest) - n_cross}"
        )
    base = _checked_graph(n, edges, where="drawing")
    pairs: list[CrossingPair] = []
    for ln in rest[:n_cross]:
        parts = ln.split()
        if len(parts) != 5:
            raise ParseError(f"drawing: bad crossing line {ln!r}")
        try:
            a, b, c, dd = (int(t) for t in parts[1:])
        except ValueError:
            raise ParseError(f"drawing: bad crossing line {ln!r}") from None
        pairs.append(((a, b), (c, dd)))
    rotation: dict[int, list[int]] = {}
    for ln in rest[n_cross:]:
        parts = ln.split()
        if parts[0] != "rot" or len(parts) < 2 or not parts[1].endswith(":"):
            raise ParseError(f"drawing: expected 'rot v: ...', got {ln!r}")
        tok = parts[1][:-1]
        v = _vertex_token(tok, n, n_cross)
        if v in rotation:
            raise ParseError(f"drawing: duplicate rotation for vertex {tok}")
        rotation[v] = [_vertex_token(t, n, n_cross) for t in parts[2:]]
    try:
        return Drawing(base, pairs, rotation)
    except EmbeddingError as exc:
        raise ParseError(f"drawing: {exc}") from None


def format_drawing(d: Drawing) -> str:
    n = d.base.n

    def tok(v: int) -> str:
        return f"X{v - n}" if v >= n else str(v)

    lines = [format_graph(d.base).rstrip("\n")]
    for (a, b), (c, dd) in d.crossing_pairs:
        lines.append(f"x {a} {b} {c} {dd}")
    for v in sorted(d.rotation):
        row = " ".join(tok(w) for w in d.rotation[v])
        lines.append(f"rot {tok(v)}: {row}")
    return "\n".join(lines) + "\n"
