"""Pure-Python search kernel for acyclic edge colorings.

Backtracks over edges in a fixed order, lowest color first, pruning
assignments that break properness or close a bichromatic cycle. Color
classes are interchangeable, so edge i may only use colors up to one more
than the largest color used on earlier edges (first-use symmetry break).
A node is one pass of the backtracking loop: one edge tried at one depth,
forward or back. A node budget caps how many the search may visit.

The hand-written C extension in ``_kernel.c`` implements the same search,
input checks included, and returns the same result for every input;
``acecolor.kernel`` picks whichever is available at import time.
"""

from __future__ import annotations

import operator

BACKEND = "python"


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
        if len(seq) != m:
            raise ValueError(f"{name} must have one entry per edge")
        for i, x in enumerate(seq):
            if not 0 <= x < bound:
                raise ValueError(f"{name}[{i}] = {x} is out of range [0, {bound})")
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
