"""Simple undirected graphs with dense integer vertex ids.

Vertices are 0..n-1 and edges are stored canonically as (min, max) pairs,
so every iteration over a graph is deterministic. Graphs are immutable
after construction; removing an edge produces a new graph. Because of
that, the degree of every vertex and the max degree are computed once,
when the graph is built, and the connected components, the cut vertices
and the vertices of each degree on the first call that asks for them.
"""

from __future__ import annotations

from collections.abc import Iterable

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
        "_components",
        "_cut_vertices",
        "_degree_classes",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        seen: set[Edge] = set()
        canon: list[Edge] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        self.edges: tuple[Edge, ...] = tuple(sorted(canon))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        # each list is sorted already: x's neighbors below x come from the
        # edges (u, x), which precede the edges (x, v), each group in order
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self.degrees: tuple[int, ...] = tuple(map(len, adj))
        # the max degree, 0 without vertices; max_degree() refuses that case
        self.delta: int = max(self.degrees, default=0)
        self._components: tuple[tuple[int, ...], ...] | None = None
        self._cut_vertices: tuple[int, ...] | None = None
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

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return v in self.adj[u]

    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("max degree of an empty graph is undefined")
        return self.delta

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("min degree of an empty graph is undefined")
        return min(self.degrees)

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
        vertex; the search runs once per graph, each call gets new lists."""
        if self._components is None:
            self._components = self._find_components()
        return [list(c) for c in self._components]

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        if self._components is None:
            self._components = self._find_components()
        return len(self._components) == 1

    def _find_components(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self.n
        comps: list[tuple[int, ...]] = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack = [s]
            seen[s] = True
            comp = []
            while stack:
                x = stack.pop()
                comp.append(x)
                for y in self.adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def degree_classes(self) -> tuple[tuple[int, ...], ...]:
        """Entry d holds the vertices of degree d, sorted, for d = 0..delta;
        the index is built once per graph."""
        if self._degree_classes is None:
            classes: list[list[int]] = [[] for _ in range(self.delta + 1)]
            for v, d in enumerate(self.degrees):
                classes[d].append(v)
            self._degree_classes = tuple(map(tuple, classes))
        return self._degree_classes

    def articulation_points(self) -> list[int]:
        """Cut vertices, sorted; the DFS runs once per graph."""
        if self._cut_vertices is None:
            self._cut_vertices = self._find_cut_vertices()
        return list(self._cut_vertices)

    def _find_cut_vertices(self) -> tuple[int, ...]:
        """The standard DFS low-point computation."""
        adj = self.adj
        disc = [-1] * self.n
        low = [0] * self.n
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
            while stack:
                v, parent, rest = stack[-1]
                for w in rest:
                    if disc[w] == -1:
                        disc[w] = low[w] = timer
                        timer += 1
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
        return tuple(sorted(points))


def _parse_graph_lines(lines: list[str], where: str = "graph") -> tuple[Graph, list[str]]:
    """Parse the `n m` header and m edge lines; return (graph, remaining lines)."""
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
    try:
        g = Graph(n, edges)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None
    return g, rows[1 + m :]


def parse_graph(text: str) -> Graph:
    """Parse the text edge-list format: `n m` then m lines `u v` (0-based)."""
    g, rest = _parse_graph_lines(text.splitlines())
    if rest:
        raise ParseError(f"unexpected trailing line {rest[0]!r}")
    return g


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
