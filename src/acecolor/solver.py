"""Exact and heuristic acyclic edge coloring solvers.

``acyclic_lower_bound`` is the one lower bound both solvers use: the max
degree Δ, or Δ+1 when a forest-count argument proves Δ colors too few.
Both run one backtracking search (see ``acecolor.kernel``) on edge
index arrays built once per call, first on the kernel's own
``peeling_order``: min-degree peeling, reversed. The exact solver, meant
for desk-scale instances, runs it to the end on that order for each
palette, bottom-up from that bound. The heuristic runs it
under a node budget of ``NODES_PER_EDGE`` per edge: first on the peeling
order, whose first descent is the greedy coloring, so where greedy needs
no help the two agree; then, only if that budget is spent, on
breadth-first edge orders from up to ``RESTARTS`` + 1 seeded roots. It
gives up at once on a palette the lower bound rules out or a search
refutes. Callers verify the returned coloring once.

The two repair moves (``repair_recolor_single``, ``repair_exchange_pair``)
are public primitives gated by ``valid_colors``; no solver uses them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import kernel
from .coloring import EdgeColoring, verify
from .graph import Edge, Graph, canonical_edge

DEFAULT_SLACK = 16  # default palette is max degree plus this
# heuristic_color's search budget, in kernel nodes per edge. The search
# takes exactly m nodes wherever greedy needs no repair; at kappa = max
# degree it needs at most 57·m on the acceptance corpus.
NODES_PER_EDGE = 100
# heuristic_color's rooted searches beyond the first, once the peeling
# order's budget is spent; the CLI color default
RESTARTS = 15


@dataclass(frozen=True)
class ExactResult:
    min_colors: int
    coloring: EdgeColoring


@dataclass
class SolveOutcome:
    coloring: EdgeColoring
    colors_used: int
    moves: list = field(default_factory=list)
    """Always empty: no solver makes repair moves. It stays only because
    the pipeline benchmark still reads it."""
    restarts_used: int = 0  # rooted searches run after the peeling order's


@dataclass(frozen=True)
class RepairOutcome:
    accepted: bool
    coloring: EdgeColoring | None = None
    blocking: tuple | None = None


def edge_insertion_order(g: Graph) -> list[Edge]:
    """Peeling order: repeatedly remove the edge from the vertex of least
    (degree, id) to its neighbor of least (degree, id). The reverse of the
    returned sequence is the coloring order, so the lightest structure is
    colored last. This is ``kernel.peeling_order`` read backwards as edges."""
    eu, ev = _edge_arrays(g)
    edges = g.edges
    return [edges[i] for i in reversed(kernel.peeling_order(g.n, eu, ev))]


def _bfs_edge_order(g: Graph, root: int) -> list[Edge]:
    """Edges in breadth-first order from root: each vertex, in the order
    the search reaches it, lists its edges to the vertices that have not
    listed theirs yet. The search restarts from the lowest unreached
    vertex, so every edge is listed once, on a disconnected graph too."""
    adj = g.adj
    reached = [False] * g.n
    listed = [False] * g.n
    order: list[Edge] = []
    for start in (root, *range(g.n)):
        if reached[start]:
            continue
        reached[start] = True
        queue = [start]
        for v in queue:  # grows as it is walked
            for u in adj[v]:
                if not listed[u]:
                    order.append((v, u) if v < u else (u, v))
                    if not reached[u]:
                        reached[u] = True
                        queue.append(u)
            listed[v] = True
    return order


def acyclic_lower_bound(g: Graph) -> int:
    """A lower bound on the acyclic chromatic index: Δ, or Δ+1 when the
    forest-count test proves Δ colors too few (0 for a 0-vertex graph).

    In an acyclic coloring with k >= 2 colors every two color classes
    form a forest, so each subgraph H has (k-1)·m(H) <= C(k,2)·(n(H)-1),
    that is 2m(H) <= k·(n(H)-1). The test takes k = Δ, and for H the
    graph left after stripping, one after another, vertices of current
    degree below Δ/2 (isolated vertices included): each strip raises
    2m - Δ(n-1) by Δ - 2d > 0. It costs O(n + m). For Δ <= 1 there is no
    color pair, and a single edge needs one color, so the bound is Δ."""
    deg = list(g.degrees)
    delta = g.delta
    if delta <= 1:
        return delta
    low = (delta - 1) // 2  # d < Δ/2 iff d <= low
    stack = [v for v, d in enumerate(deg) if d <= low]
    n_h, two_m_h = g.n, 2 * g.m
    while stack:
        v = stack.pop()
        n_h -= 1
        two_m_h -= 2 * deg[v]  # deg[v] counts the neighbors not yet stripped
        for u in g.adj[v]:
            deg[u] -= 1
            if deg[u] == low:  # just fell below Δ/2; degrees only fall
                stack.append(u)
    return delta + 1 if n_h > 1 and two_m_h > delta * (n_h - 1) else delta


def _edge_arrays(g: Graph) -> tuple[list[int], list[int]]:
    """The kernel's edge arrays: the endpoints of each edge by its index."""
    return [u for u, _ in g.edges], [v for _, v in g.edges]


def _run_kernel(
    g: Graph, k: int, eu: list[int], ev: list[int], order: list[int], max_nodes: int = -1
) -> EdgeColoring | None | bool:
    """The kernel's answer on ``_edge_arrays`` and an order of edge
    indices as a coloring, None (no coloring within k colors) or False
    (more than max_nodes search nodes, if >= 0). Its per-edge colors
    become the coloring in one pass through ``EdgeColoring.from_colors``,
    which re-checks their range and properness. A coloring has palette k,
    which ``EdgeColoring`` refuses below 1, or below 0 when m = 0."""
    colors = kernel.find_coloring(g.n, k, eu, ev, order, max_nodes)
    if colors is None or colors is False:
        return colors
    return EdgeColoring.from_colors(g, k, colors)


def has_acyclic_coloring(g: Graph, k: int) -> EdgeColoring | None:
    """Find an acyclic edge coloring using colors 1..k, or None (at once,
    with no search, when k is below ``acyclic_lower_bound``)."""
    if k < acyclic_lower_bound(g):
        return None
    eu, ev = _edge_arrays(g)
    return _run_kernel(g, k, eu, ev, kernel.peeling_order(g.n, eu, ev))


def exact_acyclic_index(g: Graph, upper_bound: int) -> ExactResult | None:
    """Minimum number of colors in an acyclic edge coloring, searched
    bottom-up from ``acyclic_lower_bound``. Returns None when no acyclic
    coloring with at most upper_bound colors exists (in particular
    whenever upper_bound is below that lower bound, which is 0 on an
    edgeless graph)."""
    lo = acyclic_lower_bound(g)
    if upper_bound < lo:
        return None
    eu, ev = _edge_arrays(g)
    order = kernel.peeling_order(g.n, eu, ev)  # shared by every palette
    for k in range(lo, upper_bound + 1):
        col = _run_kernel(g, k, eu, ev, order)
        if col is not None:
            return ExactResult(k, col)
    return None


# -- repair moves ------------------------------------------------------------


def repair_recolor_single(
    coloring: EdgeColoring, e: tuple[int, int], new_color: int
) -> RepairOutcome:
    """Recolor one edge if the new color is in its ``valid_colors``. The
    input coloring must be proper and acyclic; it is left unchanged."""
    old = coloring.color_of(e)
    if old is None:
        raise ValueError(f"edge {tuple(e)} is not colored")
    if old == new_color:
        return RepairOutcome(accepted=True, coloring=coloring.copy())
    trial = coloring.copy()
    trial.uncolor(e)
    if new_color not in trial.available_colors(e):
        return RepairOutcome(accepted=False, blocking=("unavailable", new_color))
    return _assign_gated(trial, ((e, new_color),))


def repair_exchange_pair(
    coloring: EdgeColoring, e1: tuple[int, int], e2: tuple[int, int]
) -> RepairOutcome:
    """Swap the colors of two edges sharing a vertex if each new color is
    valid in turn. The input coloring must be proper and acyclic; it is
    left unchanged."""
    a = canonical_edge(*e1)
    b = canonical_edge(*e2)
    if not set(a) & set(b):
        raise ValueError(f"edges {a} and {b} do not share a vertex")
    c1 = coloring.color_of(a)
    c2 = coloring.color_of(b)
    if c1 is None or c2 is None:
        raise ValueError("both edges must be colored")
    if c1 == c2:
        return RepairOutcome(accepted=True, coloring=coloring.copy())
    trial = coloring.copy()
    trial.uncolor(a)
    trial.uncolor(b)
    # c1 != c2, so giving a the color c2 leaves c1's availability at b as is
    if c2 not in trial.available_colors(a) or c1 not in trial.available_colors(b):
        return RepairOutcome(accepted=False, blocking=("improper", a, b))
    return _assign_gated(trial, ((a, c2), (b, c1)))


def _assign_gated(trial: EdgeColoring, moves) -> RepairOutcome:
    """Assign each available (edge, color) in turn; accept if every color
    is valid when assigned, else block on the cycle ``verify`` reports."""
    acyclic = True
    for e, c in moves:
        acyclic = acyclic and c in trial.valid_colors(e)  # no walks past a cycle
        trial.assign(e, c)
    if acyclic:
        return RepairOutcome(accepted=True, coloring=trial)
    return RepairOutcome(accepted=False, blocking=verify(trial).cycle)


# -- heuristic colorer --------------------------------------------------------


def heuristic_color(
    g: Graph, kappa: int, seed: int = 0, restarts: int = RESTARTS
) -> SolveOutcome | None:
    """Color all edges with at most kappa colors.

    The search kernel runs on the peeling order under a budget of
    ``NODES_PER_EDGE * m`` nodes. Its coloring comes back with no
    restarts; its refutation returns None at once. Only when the budget
    is spent does the same budgeted search run on breadth-first edge
    orders (``_bfs_edge_order``), one per root: vertex 0 first, then the
    first ``restarts`` of the other vertices shuffled by
    ``random.Random(seed)``. ``restarts_used`` counts these rooted
    searches. Deterministic for a fixed seed.

    Returns None when no coloring within kappa colors exists: proved by
    ``acyclic_lower_bound`` (kappa is the max degree) or by a search. It
    also returns None when every rooted search spends its budget, never
    silently escalating the palette. A palette below the max degree or a
    negative ``restarts`` raises ValueError; so a graph without edges takes
    any palette from 0 up, and gets its empty coloring.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be non-negative, got {restarts}")
    delta = g.delta
    if kappa < delta:
        raise ValueError(f"palette {kappa} below max degree {delta}; properness impossible")
    if kappa == delta and kappa < acyclic_lower_bound(g):
        return None
    budget = NODES_PER_EDGE * g.m
    eu, ev = _edge_arrays(g)
    found = _run_kernel(g, kappa, eu, ev, kernel.peeling_order(g.n, eu, ev), budget)
    used = 0
    if found is False:
        index = {e: i for i, e in enumerate(g.edges)}
        others = list(range(1, g.n))
        random.Random(seed).shuffle(others)  # so more restarts only add roots
        for root in (0, *others[:restarts]):
            used += 1
            order = [index[e] for e in _bfs_edge_order(g, root)]
            found = _run_kernel(g, kappa, eu, ev, order, budget)
            if found is not False:
                break
    if found is None or found is False:
        return None
    return SolveOutcome(
        coloring=found,
        colors_used=len(set(found.colored_edges().values())),
        restarts_used=used,
    )
