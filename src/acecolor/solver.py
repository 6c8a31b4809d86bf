"""Exact and heuristic acyclic edge coloring solvers.

``acyclic_lower_bound`` is the one lower bound both solvers use: the max
degree Δ, or Δ+1 when a forest-count argument proves Δ colors too few.
The exact solver is a backtracking search (see ``acecolor.kernel``) meant
for desk-scale instances, run bottom-up from that bound. The heuristic
first runs the same search on the peeling-derived order under a node
budget of ``NODES_PER_EDGE`` per edge; its first descent is the greedy
coloring, so where greedy needs no help the two agree. Only when the
budget is spent does the greedy pass run with local repairs: recoloring
a single incident edge, exchanging the colors of two edges at a shared
vertex, or uncoloring a sibling edge to free the stuck one. Every repair
is gated by ``valid_colors``, one edge assignment at a time, and a move
budget keeps failure detectable. It gives up at once on a palette the
lower bound rules out or the search refutes. Callers verify the returned
coloring once.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

from . import kernel
from .coloring import EdgeColoring, verify
from .graph import Edge, Graph, canonical_edge

DEFAULT_SLACK = 16  # default palette is max degree plus this
# heuristic_color's search budget, in kernel nodes per edge. The search
# takes exactly m nodes wherever greedy needs no repair; at kappa = max
# degree it needs at most 57·m on the acceptance corpus.
NODES_PER_EDGE = 100


@dataclass(frozen=True)
class ExactResult:
    min_colors: int
    coloring: EdgeColoring


@dataclass(frozen=True)
class Move:
    kind: str  # "recolor" | "exchange" | "uncolor-shift"
    detail: tuple


@dataclass
class SolveOutcome:
    coloring: EdgeColoring
    colors_used: int
    moves: list[Move] = field(default_factory=list)
    restarts_used: int = 0


@dataclass(frozen=True)
class RepairOutcome:
    accepted: bool
    coloring: EdgeColoring | None = None
    blocking: tuple | None = None


def edge_insertion_order(g: Graph) -> list[Edge]:
    """Peeling order: repeatedly remove an edge at a minimum-degree vertex
    (ties to the lowest vertex id). The reverse of the returned sequence is
    the coloring order, so the lightest structure is colored last.

    The minimum-degree vertex comes from a lazy-deletion heap of
    ``(deg, id)`` entries: a vertex gets a new entry whenever its degree
    drops, and entries that no longer match its degree are skipped, so
    the order costs O(m log n)."""
    deg = list(g.degrees)
    nbrs = [set(a) for a in g.adj]
    heap = [(d, v) for v, d in enumerate(deg) if d > 0]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    order: list[Edge] = []
    for _ in range(g.m):
        d, v = pop(heap)
        while deg[v] != d:  # stale: v's degree dropped since this entry
            d, v = pop(heap)
        # the neighbor of least (degree, id)
        u, du = -1, g.n  # every degree is below n
        for x in nbrs[v]:
            dx = deg[x]
            if dx < du or (dx == du and x < u):
                u, du = x, dx
        order.append((v, u) if v < u else (u, v))
        nbrs[v].discard(u)
        nbrs[u].discard(v)
        d -= 1
        deg[v] = d
        if d:
            push(heap, (d, v))
        du -= 1
        deg[u] = du
        if du:
            push(heap, (du, u))
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


def _coloring_order(g: Graph) -> list[Edge]:
    return list(reversed(edge_insertion_order(g)))


KernelInput = tuple[list[int], list[int], list[int]]


def _kernel_input(g: Graph, order_edges: list[Edge]) -> KernelInput:
    """The kernel's edge arrays (endpoints by edge index) and the edge
    order as indices."""
    index = {e: i for i, e in enumerate(g.edges)}
    return [u for u, _ in g.edges], [v for _, v in g.edges], [index[e] for e in order_edges]


def _run_kernel(
    g: Graph, k: int, kernel_input: KernelInput, max_nodes: int = -1
) -> EdgeColoring | None | bool:
    """The kernel's answer on ``_kernel_input`` arrays as a coloring, None
    (no coloring within k colors) or False (more than max_nodes search
    nodes, if >= 0). Its per-edge colors become the coloring in one pass
    through ``EdgeColoring.from_colors``, which re-checks their range and
    properness. A coloring has palette k, so k = 0 raises ValueError even
    when m = 0."""
    eu, ev, order = kernel_input
    colors = kernel.find_coloring(g.n, k, eu, ev, order, max_nodes)
    if colors is None or colors is False:
        return colors
    return EdgeColoring.from_colors(g, k, colors)


def has_acyclic_coloring(g: Graph, k: int) -> EdgeColoring | None:
    """Find an acyclic edge coloring using colors 1..k, or None (at once,
    with no search, when k is below ``acyclic_lower_bound``)."""
    if g.m == 0:
        return EdgeColoring(g, max(k, 1))
    if k < acyclic_lower_bound(g):
        return None
    return _run_kernel(g, k, _kernel_input(g, _coloring_order(g)))


def exact_acyclic_index(g: Graph, upper_bound: int) -> ExactResult | None:
    """Minimum number of colors in an acyclic edge coloring, searched
    bottom-up from ``acyclic_lower_bound``. Returns None when no acyclic
    coloring with at most upper_bound colors exists (in particular
    whenever upper_bound is below that lower bound)."""
    if g.m == 0:
        return ExactResult(0, EdgeColoring(g, 1))
    lo = acyclic_lower_bound(g)
    if upper_bound < lo:
        return None
    kernel_input = _kernel_input(g, _coloring_order(g))  # shared by every palette
    for k in range(lo, upper_bound + 1):
        col = _run_kernel(g, k, kernel_input)
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
    g: Graph,
    kappa: int,
    move_budget: int | None = None,
    seed: int = 0,
    restarts: int = 3,
) -> SolveOutcome | None:
    """Color all edges with at most kappa colors.

    First the search kernel runs on the peeling order under a budget of
    ``NODES_PER_EDGE * m`` nodes. Its coloring comes back with no moves
    and no restarts; its refutation returns None at once. Only when the
    budget is spent do the repair attempts run, with move_budget repair
    moves each (default 50·m): the first uses the peeling order with
    lowest-color tie-breaking, and each restart reshuffles the order and
    color choices with a generator seeded by seed. Deterministic for a
    fixed seed.

    Returns None when no coloring within kappa colors exists: proved by
    ``acyclic_lower_bound`` (kappa is the max degree) or by the search,
    both before any repair attempt. It also returns None after the
    restart cap, never silently escalating the palette. A palette below
    the max degree raises ValueError.
    """
    delta = g.delta
    if kappa < delta:
        raise ValueError(f"palette {kappa} below max degree {delta}; properness impossible")
    if kappa == delta and kappa < acyclic_lower_bound(g):
        return None
    base_order = _coloring_order(g)
    found = _run_kernel(g, kappa, _kernel_input(g, base_order), NODES_PER_EDGE * g.m)
    if found is None:
        return None
    if found is not False:
        return SolveOutcome(coloring=found, colors_used=len(set(found.colored_edges().values())))
    budget = 50 * g.m if move_budget is None else move_budget
    for attempt in range(restarts + 1):
        order = list(base_order)
        rng = random.Random(f"{seed}:{attempt}") if attempt else None
        if rng is not None:
            rng.shuffle(order)
        outcome = _color_once(g, kappa, order, budget, rng)
        if outcome is not None:
            outcome.restarts_used = attempt
            return outcome
    return None


def _color_once(
    g: Graph,
    kappa: int,
    order: list[Edge],
    budget: int,
    rng: random.Random | None,
) -> SolveOutcome | None:
    col = EdgeColoring(g, kappa)
    moves: list[Move] = []
    queue = deque(order)
    spent = 0
    while queue:
        e = queue.popleft()
        if col.color_of(e) is not None:
            continue
        valid = col.valid_colors(e)
        if valid:
            c = min(valid) if rng is None else rng.choice(sorted(valid))
            col.assign(e, c)
            continue
        repaired, col, spent = _repair_stuck(col, e, moves, queue, spent, budget)
        if not repaired:
            return None
        queue.appendleft(e)
    out_colors = len(set(col.colored_edges().values()))
    return SolveOutcome(coloring=col, colors_used=out_colors, moves=moves)


def _repair_stuck(col, e, moves, queue, spent, budget):
    """Try the stuck-edge repairs in a fixed order; each attempt costs one
    unit of budget. col must be proper and acyclic; trials made on col in
    place are undone before the next one. Returns (ok, coloring, spent)."""
    # 1. recolor one incident edge, trying the endpoint with more free colors first
    ends = sorted(canonical_edge(*e), key=lambda x: (-len(col.free_colors(x)), x))
    for w in ends:
        for other in sorted(col.used_colors(w)):
            f = col.edge_with_color(w, other)
            col.uncolor(f)
            candidates = sorted(col.valid_colors(f) - {other})
            col.assign(f, other)
            for c in candidates:
                if spent >= budget:
                    return False, col, spent
                spent += 1
                res = repair_recolor_single(col, f, c)
                if res.accepted and res.coloring.valid_colors(e):
                    moves.append(Move("recolor", (f, other, c)))
                    return True, res.coloring, spent

    # 2. exchange the colors on two edges at a shared endpoint
    for w in ends:
        incident = sorted(col.edge_with_color(w, c) for c in col.used_colors(w))
        for f1, f2 in combinations(incident, 2):
            if spent >= budget:
                return False, col, spent
            spent += 1
            res = repair_exchange_pair(col, f1, f2)
            if res.accepted and res.coloring.valid_colors(e):
                moves.append(Move("exchange", (f1, f2)))
                return True, res.coloring, spent

    # 3. uncolor a sibling edge, color the stuck edge with the freed color,
    #    and requeue the sibling
    for w in ends:
        for c in sorted(col.used_colors(w)):
            if spent >= budget:
                return False, col, spent
            spent += 1
            f = col.edge_with_color(w, c)
            col.uncolor(f)
            if c in col.valid_colors(e):
                col.assign(e, c)
                queue.append(f)
                moves.append(Move("uncolor-shift", (f, c)))
                return True, col, spent
            col.assign(f, c)
    return False, col, spent
