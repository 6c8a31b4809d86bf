"""Partial acyclic edge colorings, their checks and their path queries.

An edge coloring here is *proper* (no two edges sharing a vertex get the
same color) and *acyclic* (the union of any two color classes contains no
cycle, i.e. induces a linear forest). Properness is enforced on every
assignment; acyclicity is the caller's concern, checked either
incrementally through ``valid_colors`` or from scratch through ``verify``.

The solver colors through the search kernel, so the path queries kept
here are the ones the checks use: ``valid_colors`` (with
``has_critical_path``, the walk that decides it), ``maximal_bichromatic_path``
and the stuck-edge diagnostic ``extension_probe``.

Colors are 1-based integers; 0 is reserved for "uncolored" in serialized
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ParseError
from .graph import Edge, Graph, canonical_edge


@dataclass(frozen=True)
class BichromaticPath:
    """A path whose edges alternate between two colors."""

    colors: tuple[int, int]
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class VerifyReport:
    proper: bool
    acyclic: bool
    conflict: tuple[Edge, Edge] | None = None
    cycle: tuple[Edge, ...] | None = None

    @property
    def ok(self) -> bool:
        return self.proper and self.acyclic


@dataclass(frozen=True)
class ExtensionProbe:
    """Diagnostic for an uncolored edge uv against a coloring of G - uv.

    valid_exists: some valid color extends the coloring to uv.
    shared: |colors used at both u and v|.
    degree_bound_ok: with s = shared, whether
    deg(u) + deg(v) + sum of degrees over neighbors of u whose edge color
    repeats at v is at least kappa + 2s + 2 (equality of
    deg(u) + deg(v) with kappa + 2 when s = 0). In a palette-minimal
    graph this must hold whenever valid_exists is False.
    """

    valid_exists: bool
    shared: int
    degree_bound_ok: bool


class EdgeColoring:
    """Partial edge coloring with per-vertex color indexes.

    The per-vertex index maps color -> opposite endpoint, which makes the
    used/free color queries and path walks constant time per step. The
    structure cannot represent an improper coloring; ``assign`` rejects
    conflicts. The palette ``kappa`` is at least 1 on a graph with edges
    and at least 0 on one without, whose acyclic index is 0.
    """

    __slots__ = ("graph", "kappa", "_color", "_at")

    def __init__(self, graph: Graph, kappa: int):
        if kappa < min(graph.m, 1):
            raise ValueError(f"palette size must be >= {min(graph.m, 1)}, got {kappa}")
        self.graph = graph
        self.kappa = kappa
        self._color: dict[Edge, int] = {}
        self._at: list[dict[int, int]] = [{} for _ in range(graph.n)]

    def copy(self) -> "EdgeColoring":
        out = EdgeColoring(self.graph, self.kappa)
        out._color = dict(self._color)
        out._at = [dict(d) for d in self._at]
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EdgeColoring)
            and self.graph == other.graph
            and self.kappa == other.kappa
            and self._color == other._color
        )

    def _edge(self, e: tuple[int, int]) -> Edge:
        e = canonical_edge(*e)
        if not self.graph.has_edge(*e):
            raise ValueError(f"edge {e} not in graph")
        return e

    def color_of(self, e: tuple[int, int]) -> int | None:
        return self._color.get(self._edge(e))

    def colored_edges(self) -> dict[Edge, int]:
        return dict(self._color)

    @property
    def colored_count(self) -> int:
        return len(self._color)

    def is_total(self) -> bool:
        return len(self._color) == self.graph.m

    def assign(self, e: tuple[int, int], c: int) -> None:
        e = self._edge(e)
        if not (1 <= c <= self.kappa):
            raise ValueError(f"color {c} outside 1..{self.kappa}")
        if e in self._color:
            raise ValueError(f"edge {e} already colored; uncolor it first")
        u, v = e
        if c in self._at[u] or c in self._at[v]:
            raise ValueError(f"color {c} already present at an endpoint of {e}")
        self._color[e] = c
        self._at[u][c] = v
        self._at[v][c] = u

    @classmethod
    def from_colors(cls, graph: Graph, kappa: int, colors) -> "EdgeColoring":
        """The total coloring giving ``graph.edges[i]`` the color
        ``colors[i]``, built in one pass. Each edge is checked as ``assign``
        checks it, in edge order and with its messages; a sequence whose
        length is not m is refused first."""
        out = cls(graph, kappa)
        edges = graph.edges
        if len(colors) != len(edges):
            raise ValueError(f"expected {len(edges)} colors, one per edge, got {len(colors)}")
        at = out._at
        for e, c in zip(edges, colors):
            if not (1 <= c <= kappa):
                raise ValueError(f"color {c} outside 1..{kappa}")
            u, v = e
            au, av = at[u], at[v]
            if c in au or c in av:
                raise ValueError(f"color {c} already present at an endpoint of {e}")
            au[c] = v
            av[c] = u
        out._color = dict(zip(edges, colors))
        return out

    def uncolor(self, e: tuple[int, int]) -> int:
        e = self._edge(e)
        if e not in self._color:
            raise ValueError(f"edge {e} is not colored")
        c = self._color.pop(e)
        u, v = e
        del self._at[u][c]
        del self._at[v][c]
        return c

    # -- color set queries -------------------------------------------------

    def used_colors(self, v: int) -> set[int]:
        """Colors on the colored edges incident with v."""
        self.graph.check_vertex(v)
        return set(self._at[v])

    def free_colors_pair(self, u: int, v: int) -> set[int]:
        """Palette colors absent at both u and v."""
        self.graph.check_vertex(u)
        self.graph.check_vertex(v)
        au, av = self._at[u], self._at[v]
        return {c for c in range(1, self.kappa + 1) if c not in au and c not in av}

    def shared_color_neighbors(self, u: int, v: int) -> set[int]:
        """Neighbors of u whose edge color also appears at v (not counting
        the uv color itself). Not symmetric in u and v; uv must be an edge."""
        own = self._color.get(self._edge((u, v)))
        at_u = self._at[u]
        return {at_u[c] for c in self._at[v] if c != own and c in at_u}

    # -- path walks ---------------------------------------------------------

    def _arm(self, start: int, first: int, second: int):
        """Follow the alternating path from `start` along its `first`-color
        edge. Yields (vertex, color) steps; raises if the walk returns to
        start (the coloring is not acyclic then). Properness makes the two
        colors a path or a cycle at start, so the walk ends either way."""
        cur = start
        use = first
        while True:
            nxt = self._at[cur].get(use)
            if nxt is None:
                return
            cur = nxt
            yield cur, use
            if cur == start:
                raise ValueError(
                    f"bichromatic cycle through vertex {start} with colors "
                    f"({first}, {second}); coloring is not acyclic"
                )
            use = first if use == second else second

    def maximal_bichromatic_path(
        self, v: int, alpha: int, beta: int
    ) -> BichromaticPath | None:
        """The unique maximal path through v alternating alpha and beta,
        or None if v has no edge of either color. Properness makes the walk
        deterministic, so the result does not depend on which incident edge
        it starts from."""
        self.graph.check_vertex(v)
        if alpha == beta:
            raise ValueError("colors must differ")
        back = [v]
        for w, _ in self._arm(v, alpha, beta):
            back.append(w)
        fwd = []
        for w, _ in self._arm(v, beta, alpha):
            fwd.append(w)
        if len(back) == 1 and not fwd:
            return None
        vertices = list(reversed(back)) + fwd
        if vertices[0] > vertices[-1]:
            vertices.reverse()
        edges = tuple(
            canonical_edge(a, b) for a, b in zip(vertices, vertices[1:])
        )
        colors = (alpha, beta) if alpha < beta else (beta, alpha)
        return BichromaticPath(colors, tuple(vertices), edges)

    def has_critical_path(self, alpha: int, beta: int, u: int, v: int) -> bool:
        """True iff the maximal alternating path leaving u along alpha ends
        at v with an alpha edge. Such a path is exactly what closes a
        bichromatic cycle when uv is later colored beta."""
        self.graph.check_vertex(u)
        end, last = u, None
        for end, last in self._arm(u, alpha, beta):
            pass
        return end == v and last == alpha

    # -- extension ----------------------------------------------------------

    def available_colors(self, e: tuple[int, int]) -> set[int]:
        """Colors not used on any edge adjacent to e. e must be uncolored."""
        e = self._edge(e)
        if e in self._color:
            raise ValueError(f"edge {e} already colored")
        return self.free_colors_pair(*e)

    def valid_colors(self, e: tuple[int, int]) -> set[int]:
        """Available colors whose assignment to e closes no bichromatic
        cycle. A cycle through e = uv must alternate the new color with a
        color present at both endpoints, so only those pairs are walked."""
        e = self._edge(e)
        if e in self._color:
            raise ValueError(f"edge {e} already colored")
        u, v = e
        avail = self.free_colors_pair(u, v)
        shared = self.used_colors(u) & self.used_colors(v)
        if not shared:
            return avail
        out = set()
        for c in avail:
            if not any(self.has_critical_path(b, c, u, v) for b in shared):
                out.add(c)
        return out


def verify(coloring: EdgeColoring) -> VerifyReport:
    """From-scratch check that a coloring is proper and acyclic.

    Recomputes everything from ``colored_edges()`` without trusting the
    incremental indexes; this is the oracle of record for all tests.

    Acyclicity is tested only on the color pairs that at least 4 vertices
    hold both colors of. In a proper coloring of a simple graph a
    bichromatic cycle alternates its two colors, so it has even length at
    least 4, and each of its vertices holds both colors: a pair with fewer
    holders has no cycle. For the other pairs the alternating paths are
    walked from the holders, each vertex at most once per pair. Pairs are
    visited in sorted order; of the first pair with a cycle, the cycle
    through the least vertex is reported as its sorted edge list. The
    report depends only on the colors, not on the order they were assigned.
    """
    g = coloring.graph
    assigned = coloring.colored_edges()
    for e, c in assigned.items():
        if not (1 <= c <= coloring.kappa):
            raise ValueError(f"edge {e} has color {c} outside 1..{coloring.kappa}")
    at: list[dict[int, int]] = [{} for _ in range(g.n)]
    for (u, v), c in sorted(assigned.items()):
        for a, b in ((u, v), (v, u)):
            if c in at[a]:
                return VerifyReport(
                    proper=False,
                    acyclic=False,
                    conflict=(canonical_edge(a, at[a][c]), canonical_edge(a, b)),
                )
            at[a][c] = b
    holders: dict[tuple[int, int], list[int]] = {}
    for v, colors in enumerate(at):
        if len(colors) > 1:
            for pair in combinations(sorted(colors), 2):
                holders.setdefault(pair, []).append(v)
    for pair in sorted(holders):
        hs = holders[pair]
        if len(hs) >= 4:
            cycle = _pair_cycle(at, *pair, hs)
            if cycle:
                return VerifyReport(proper=True, acyclic=False, cycle=cycle)
    return VerifyReport(proper=True, acyclic=True)


def _pair_cycle(
    at: list[dict[int, int]], alpha: int, beta: int, holders: list[int]
) -> tuple[Edge, ...] | None:
    """The sorted edges of the alpha/beta cycle of a proper coloring
    (``at`` maps vertex -> color -> neighbor) through the least holder on
    one, or None. Holders, the vertices with both colors, come in
    increasing order. Each component is a path or a cycle: from a holder
    the walk along alpha either returns to it (a cycle) or ends, and then
    the walk along beta marks the rest of the path."""
    seen: set[int] = set()
    for s in holders:
        if s in seen:
            continue
        seen.add(s)
        x, use = at[s][alpha], beta
        while x != s:
            seen.add(x)
            nxt = at[x].get(use)
            if nxt is None:
                break
            x, use = nxt, alpha if use == beta else beta
        else:
            # walked again only once found: no cost on an acyclic coloring
            cycle, x, use = [], s, alpha
            while True:
                y = at[x][use]
                cycle.append(canonical_edge(x, y))
                if y == s:
                    return tuple(sorted(cycle))
                x, use = y, alpha if use == beta else beta
        x, use = at[s][beta], alpha
        while x is not None:
            seen.add(x)
            x, use = at[x].get(use), alpha if use == beta else beta
    return None


def extension_probe(g: Graph, uv: tuple[int, int], coloring: EdgeColoring) -> ExtensionProbe:
    """Probe a total coloring of G - uv for extendability to uv.

    The coloring must live on g with exactly uv uncolored. Reports whether
    a valid color exists and whether the degree-sum bound that
    characterizes stuck states in palette-minimal graphs holds.
    """
    e = canonical_edge(*uv)
    if coloring.graph != g:
        raise ValueError("coloring is not over the given graph")
    if not g.has_edge(*e):
        raise ValueError(f"edge {e} not in graph")
    if coloring.color_of(e) is not None or coloring.colored_count != g.m - 1:
        raise ValueError(f"coloring must cover exactly the graph minus {e}")
    rep = verify(coloring)
    if not rep.ok:
        raise ValueError("coloring of G - uv is not a proper acyclic coloring")
    u, v = e
    valid = coloring.valid_colors(e)
    shared = coloring.used_colors(u) & coloring.used_colors(v)
    s = len(shared)
    kappa = coloring.kappa
    if s == 0:
        bound_ok = g.degree(u) + g.degree(v) == kappa + 2
    else:
        w_sum = sum(g.degree(w) for w in coloring.shared_color_neighbors(u, v))
        bound_ok = g.degree(u) + g.degree(v) + w_sum >= kappa + 2 * s + 2
    return ExtensionProbe(valid_exists=bool(valid), shared=s, degree_bound_ok=bound_ok)


def format_coloring(coloring: EdgeColoring) -> str:
    """Serialize: a `kappa K` header, then `u v color` per colored edge."""
    lines = [f"kappa {coloring.kappa}"]
    for (u, v), c in sorted(coloring.colored_edges().items()):
        lines.append(f"{u} {v} {c}")
    return "\n".join(lines) + "\n"


def parse_coloring(text: str, graph: Graph) -> EdgeColoring:
    rows = [ln for ln in text.splitlines() if ln.strip()]
    if not rows or rows[0].split()[:1] != ["kappa"]:
        raise ParseError("coloring: first line must be 'kappa K'")
    head = rows[0].split()
    if len(head) != 2:
        raise ParseError(f"coloring: bad header {rows[0]!r}")
    try:
        kappa = int(head[1])
    except ValueError:
        raise ParseError(f"coloring: bad palette size {head[1]!r}") from None
    try:
        out = EdgeColoring(graph, kappa)
    except ValueError as exc:
        raise ParseError(f"coloring: {exc}") from None
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError(f"coloring: bad line {ln!r}")
        try:
            u, v, c = (int(x) for x in parts)
        except ValueError:
            raise ParseError(f"coloring: non-integer line {ln!r}") from None
        if c == 0:
            continue  # 0 marks an uncolored edge in serialized form
        try:
            out.assign((u, v), c)
        except ValueError as exc:
            raise ParseError(f"coloring: {exc}") from None
    return out
