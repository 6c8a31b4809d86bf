"""Pure-Python search kernel for acyclic edge colorings.

Backtracks over edges in a fixed order, lowest color first, pruning
assignments that break properness or close a bichromatic cycle. Color
classes are interchangeable, so edge i may only use colors up to one more
than the largest color used on earlier edges (first-use symmetry break).
A node is one pass of the backtracking loop: one edge tried at one depth,
forward or back. A node budget caps how many the search may visit.

``peeling_order`` computes the edge order the solvers feed the search:
the reverse of min-degree peeling. ``trace_faces`` splits the darts of a
rotation system into its face walks and returns each face as its vertex
cycle, for ``embedding.planarize``.
``index_edges`` checks and indexes the edge list of every ``Graph``.

The hand-written C extension in ``_kernel.c`` implements the same
functions, input checks included, and returns the same result for every
input; ``acecolor.kernel`` picks whichever is available at import time.
The one exception is ``read_drawing``, the C kernel's scanner of drawing
text, which here is a stub that returns None.
"""

from __future__ import annotations

import heapq
import operator

BACKEND = "python"


def _check_entries(name: str, seq, m: int, bound: int) -> None:
    """Raise ValueError unless seq has m entries, each in [0, bound)."""
    if len(seq) != m:
        raise ValueError(f"{name} must have one entry per edge")
    if m and not (0 <= min(seq) and max(seq) < bound):
        i, x = next((i, x) for i, x in enumerate(seq) if not 0 <= x < bound)
        raise ValueError(f"{name}[{i}] = {x} is out of range [0, {bound})")


def peeling_order(n: int, eu: list[int], ev: list[int]) -> list[int]:
    """Edge indices in coloring order: min-degree peeling, reversed.

    Peeling repeatedly takes the vertex of least (degree, id) among those
    with edges left and removes its edge to its neighbor of least
    (degree, id); the last edge removed is colored first, so the lightest
    structure is colored last. Raises ValueError unless eu and ev have
    equal lengths, every endpoint lies in [0, n), and no edge is a loop
    or repeats an earlier one (in either direction): the graph is simple,
    so every (degree, id) is distinct and the order is unique.

    The least vertex comes from a lazy-deletion heap of (degree, id)
    entries: a vertex gets a new entry whenever its degree drops, and
    entries that no longer match its degree are skipped. Each step scans
    only the chosen vertex's remaining edges, so the order costs
    O(m * degeneracy + m log n).
    """
    m = len(eu)
    _check_entries("eu", eu, m, n)
    _check_entries("ev", ev, m, n)
    if any(map(operator.eq, eu, ev)):
        i = next(i for i in range(m) if eu[i] == ev[i])
        raise ValueError(f"edge {i} is a loop at vertex {eu[i]}")
    # nbrs[v] maps each remaining neighbor of v to the index of their edge
    nbrs: list[dict[int, int]] = [{} for _ in range(n)]
    for i, u, v in zip(range(m), eu, ev):
        at_u = nbrs[u]
        if v in at_u:
            raise ValueError(f"edge {i} repeats edge {at_u[v]}")
        at_u[v] = i
        nbrs[v][u] = i
    deg = list(map(len, nbrs))
    heap = [(d, v) for v, d in enumerate(deg) if d]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    order = [0] * m
    for j in range(m - 1, -1, -1):
        d, v = pop(heap)
        while deg[v] != d:  # stale: v's degree dropped since this entry
            d, v = pop(heap)
        at_v = nbrs[v]
        u, du = -1, n  # every degree is below n
        for x in at_v:
            dx = deg[x]
            if dx < du or (dx == du and x < u):
                u, du = x, dx
        order[j] = at_v.pop(u)
        del nbrs[u][v]
        d -= 1
        deg[v] = d
        if d:
            push(heap, (d, v))
        du -= 1
        deg[u] = du
        if du:
            push(heap, (du, u))
    return order


def find_coloring(
    n: int,
    k: int,
    eu: list[int],
    ev: list[int],
    order: list[int],
    max_nodes: int = -1,
) -> list[int] | None | bool:
    """Search for an acyclic edge coloring with colors 1..k.

    eu/ev give edge endpoints; order is the permutation of edge indices to
    color, typically chosen so each edge touches previously colored ones.
    Returns per-edge colors aligned with eu/ev, or None if no coloring
    exists within k colors. With max_nodes >= 0 the search stops once it
    has visited more than max_nodes nodes and returns False: no answer
    either way. A negative max_nodes (the default) sets no limit. An
    empty graph or k <= 0 is answered before the first node. Raises
    ValueError unless every endpoint lies in [0, n) and order is a
    permutation of range(m).
    """
    max_nodes = operator.index(max_nodes)
    m = len(eu)
    for name, seq, bound in (("eu", eu, n), ("ev", ev, n), ("order", order, m)):
        _check_entries(name, seq, m, bound)
    if len(set(order)) != m:
        raise ValueError("order must be a permutation of range(m)")
    if m == 0:
        return []
    if k <= 0:
        return None
    stride = k + 1
    # vcol[v*stride + c] = w+1 if vertex v has an edge of color c to w, else 0
    vcol = [0] * (n * stride)
    colors = [0] * m

    def closes_cycle(u: int, v: int, c: int) -> bool:
        # A new (c, b)-cycle through uv needs color b present at both ends;
        # walk the alternating path from u and see if it lands on v via b.
        ub = u * stride
        vb = v * stride
        for b in range(1, k + 1):
            if b == c or not vcol[ub + b] or not vcol[vb + b]:
                continue
            cur = u
            use = b
            while True:
                nxt = vcol[cur * stride + use]
                if not nxt:
                    break
                cur = nxt - 1
                if cur == v:
                    if use == b:
                        return True
                    break
                use = b if use == c else c
        return False

    # Backtracking as a loop, as in the C kernel, so the recursion limit
    # caps no input: colors[order[i]] is the color tried at depth i (0 for
    # none yet) and maxc[i] the largest color on the edges before it.
    # stop is the first node past the budget; without a budget it is 0,
    # which the count never equals.
    maxc = [0] * (m + 1)
    stop = max_nodes + 1 if max_nodes >= 0 else 0
    nodes = 0
    i = 0
    while 0 <= i < m:
        nodes += 1
        if nodes == stop:
            return False
        e = order[i]
        u = eu[e]
        v = ev[e]
        ub = u * stride
        vb = v * stride
        c = colors[e]
        limit = maxc[i] + 1 if maxc[i] + 1 < k else k
        if c:  # back from depth i+1: take back this depth's color
            vcol[ub + c] = 0
            vcol[vb + c] = 0
        c += 1
        while c <= limit and (vcol[ub + c] or vcol[vb + c] or closes_cycle(u, v, c)):
            c += 1
        if c > limit:
            colors[e] = 0
            i -= 1
            continue
        colors[e] = c
        vcol[ub + c] = v + 1
        vcol[vb + c] = u + 1
        maxc[i + 1] = c if c > maxc[i] else maxc[i]
        i += 1
    return colors if i == m else None


def _row_problems(n: int, v: int, row):
    """The entries of ``rot[v]`` that are out of range, loops or repeats
    of an earlier entry, as messages in row order."""
    first: dict[int, int] = {}
    for i, w in enumerate(row):
        if not 0 <= w < n:
            yield f"rot[{v}][{i}] = {w} is out of range [0, {n})"
        elif w == v:
            yield f"rot[{v}][{i}] is a loop at vertex {v}"
        elif w in first:
            yield f"rot[{v}][{i}] repeats rot[{v}][{first[w]}]"
        else:
            first[w] = i


def trace_faces(n: int, rot) -> list[tuple[int, ...]]:
    """The faces of a rotation system, each as the tuple of its boundary
    vertices in walk order: the tail of each dart on its walk.

    ``rot[v]`` is the cyclic order of the neighbors of vertex v. From the
    dart (u, v) a walk continues with (v, w), where w follows u in
    ``rot[v]``; every dart lies on exactly one walk, so a face f has the
    darts (f[i], f[i + 1]), cyclically. Darts are taken with v ascending
    and then in ``rot[v]`` order, and each walk starts at the first dart
    not on an earlier one.

    Raises ValueError unless rot has n rows, every entry lies in [0, n),
    no row lists its own vertex or an entry twice, and every dart (v, w)
    has its reverse (w, v), that is, v is in ``rot[w]``. The first bad
    entry in row order is reported; a missing reverse only when every
    entry is good, at the first dart in row order without one.
    """
    if len(rot) != n:
        raise ValueError("rot must have one row per vertex")
    # pos[v][w] is the slot of w in rot[v]
    pos: list[dict[int, int]] = []
    for v, row in enumerate(rot):
        at = {w: i for i, w in enumerate(row)}
        if len(at) != len(row) or v in at or (row and not (0 <= min(row) and max(row) < n)):
            raise ValueError(next(_row_problems(n, v, row)))
        pos.append(at)
    # seen[v][i]: the dart (v, rot[v][i]) lies on a walk traced already
    seen = [[False] * len(row) for row in rot]
    faces = []
    for v, row in enumerate(rot):
        for i, w in enumerate(row):
            if seen[v][i]:
                continue
            walk = []
            a, j, b = v, i, w
            while not seen[a][j]:
                seen[a][j] = True
                walk.append(a)
                k = pos[b].get(a)
                if k is None:  # (a, b) has no reverse; report the first such dart
                    a, b = next((a, b) for a, row in enumerate(rot) for b in row if a not in pos[b])
                    raise ValueError(f"dart ({a}, {b}) has no reverse: {a} is not in rot[{b}]")
                next_row = rot[b]
                k += 1
                if k == len(next_row):
                    k = 0
                a, j, b = b, k, next_row[k]
            faces.append(tuple(walk))
    return faces


def index_edges(n: int, edges):
    """The canonical edges sorted, the sorted neighbor rows and the
    degrees of the simple graph on 0..n-1 with the given edges.

    Each entry of ``edges`` must be a tuple or list of two ints. Raises
    ValueError for the first bad entry in input order: one that is not
    such a pair, then one with an endpoint outside [0, n), then a loop,
    then a repeat of an earlier edge in either direction. Raises
    MemoryError, before it allocates, for n >= 2**31 - 1: the C kernel
    stores vertex ids as int.
    """
    if n >= 2**31 - 1:
        raise MemoryError
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for e in edges:
        if not (isinstance(e, (tuple, list)) and len(e) == 2 and isinstance(e[0], int) and isinstance(e[1], int)):
            raise ValueError(f"edge {e!r} is not a pair of ints")
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        c = (u, v) if u < v else (v, u)
        if c in seen:
            raise ValueError(f"duplicate edge {c}")
        seen.add(c)
    canon = sorted(seen)
    for u, v in canon:
        adj[u].append(v)
        adj[v].append(u)
    # each row is sorted already: x's neighbors below x come from the
    # edges (u, x), which precede the edges (x, v), each group in order
    return tuple(canon), tuple(map(tuple, adj)), tuple(map(len, adj))


def read_drawing(text: str) -> None:
    """None for every str: only the C kernel has this fast path, so
    ``embedding.parse_drawing`` reads each text with its reference reader
    ``embedding._read_drawing``, which defines the format."""
    if not isinstance(text, str):
        raise TypeError(f"read_drawing expects a str, got {type(text).__name__}")
    return None
