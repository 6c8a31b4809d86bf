"""Simple undirected graphs with dense integer vertex ids.

Vertices are 0..n-1 and edges are stored canonically as (min, max) pairs,
so every iteration over a graph is deterministic. Graphs are immutable
after construction; removing an edge produces a new graph. Because of
that, the degree of every vertex and the max degree are computed once,
when the graph is built, and the vertices of each degree on the first
call that asks for them. One depth-first search, run on the first call
that asks, finds both the connected components and the cut vertices;
``connected_components``, ``is_connected`` and ``articulation_points``
all read its kept result.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import kernel
from .errors import ParseError

Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    __slots__ = (
        "n",
        "edges",
        "adj",
        "degrees",
        "delta",
        "_connectivity",
        "_degree_classes",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        # the checks and the sorted rows come from the kernel
        # (kernel.index_edges, which states them)
        self.edges: tuple[Edge, ...]
        self.adj: tuple[tuple[int, ...], ...]
        self.degrees: tuple[int, ...]
        self.edges, self.adj, self.degrees = kernel.index_edges(n, edges)
        # the max degree, 0 without vertices; max_degree() refuses that case
        self.delta: int = max(self.degrees, default=0)
        # (components, cut vertices), from the one search of _searched()
        self._connectivity: tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None = None
        self._degree_classes: tuple[tuple[int, ...], ...] | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return v in self.adj[u]

    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("max degree of an empty graph is undefined")
        return self.delta

    def without_edge(self, u: int, v: int) -> "Graph":
        """New graph with edge uv removed (vertex set unchanged)."""
        e = canonical_edge(u, v)
        if not (0 <= u < self.n and 0 <= v < self.n) or v not in self.adj[u]:
            raise ValueError(f"edge {e} not in graph")
        return Graph(self.n, [f for f in self.edges if f != e])

    def is_triangle_free(self) -> tuple[bool, tuple[int, int, int] | None]:
        """Return (True, None) or (False, witness triangle)."""
        adj_sets = [set(a) for a in self.adj]
        for u, v in self.edges:
            common = adj_sets[u] & adj_sets[v]
            if common:
                w = min(common)
                return False, tuple(sorted((u, v, w)))  # type: ignore[return-value]
        return True, None

    def connected_components(self) -> list[list[int]]:
        """The components as sorted vertex lists, ordered by their least
        vertex; each call gets new lists."""
        return [list(c) for c in self._searched()[0]]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self._searched()[0]) == 1

    def articulation_points(self) -> list[int]:
        """Cut vertices, sorted."""
        return list(self._searched()[1])

    def degree_classes(self) -> tuple[tuple[int, ...], ...]:
        """Entry d holds the vertices of degree d, sorted, for d = 0..delta;
        the index is built once per graph."""
        if self._degree_classes is None:
            classes: list[list[int]] = [[] for _ in range(self.delta + 1)]
            for v, d in enumerate(self.degrees):
                classes[d].append(v)
            self._degree_classes = tuple(map(tuple, classes))
        return self._degree_classes

    def _searched(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The components and the cut vertices, searched once per graph."""
        if self._connectivity is None:
            self._connectivity = self._search()
        return self._connectivity

    def _search(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The standard DFS low-point computation of the cut vertices, in
        which each root also collects the component it reaches."""
        adj = self.adj
        disc = [-1] * self.n
        low = [0] * self.n
        comps: list[tuple[int, ...]] = []
        points: set[int] = set()
        timer = 0
        for root in range(self.n):
            if disc[root] != -1:
                continue
            # iterative DFS; the stack holds (vertex, parent, neighbors left)
            stack = [(root, -1, iter(adj[root]))]
            disc[root] = low[root] = timer
            timer += 1
            root_children = 0
            comp = [root]
            while stack:
                v, parent, rest = stack[-1]
                for w in rest:
                    if disc[w] == -1:
                        disc[w] = low[w] = timer
                        timer += 1
                        comp.append(w)
                        if v == root:
                            root_children += 1
                        stack.append((w, v, iter(adj[w])))
                        break
                    if w != parent and disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    stack.pop()
                    if parent != -1:
                        if low[v] < low[parent]:
                            low[parent] = low[v]
                        if parent != root and low[v] >= disc[parent]:
                            points.add(parent)
            if root_children >= 2:
                points.add(root)
            comps.append(tuple(sorted(comp)))
        return tuple(comps), tuple(sorted(points))


def _parse_graph_lines(lines: list[str], where: str = "graph") -> tuple[int, list[Edge], list[str]]:
    """Parse the `n m` header and m edge lines; return (n, edges, rest)."""
    rows = [ln for ln in lines if ln.strip()]
    if not rows:
        raise ParseError(f"{where}: empty input")
    head = rows[0].split()
    if len(head) != 2:
        raise ParseError(f"{where}: header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"{where}: non-integer header {rows[0]!r}") from None
    if m < 0:
        raise ParseError(f"{where}: negative edge count in header {rows[0]!r}")
    if len(rows) < 1 + m:
        raise ParseError(f"{where}: expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for ln in rows[1 : 1 + m]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"{where}: bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{where}: non-integer edge line {ln!r}") from None
        edges.append((u, v))
    return n, edges, rows[1 + m :]


def _checked_graph(n: int, edges: list[Edge], where: str = "graph") -> Graph:
    """``Graph(n, edges)``, with its ValueError as a ParseError from ``where``."""
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def parse_graph(text: str) -> Graph:
    """Parse the text edge-list format: `n m` then m lines `u v` (0-based)."""
    n, edges, rest = _parse_graph_lines(text.splitlines())
    g = _checked_graph(n, edges)
    if rest:
        raise ParseError(f"unexpected trailing line {rest[0]!r}")
    return g


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
