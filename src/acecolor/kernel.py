"""Kernel backend selection.

Prefers the hand-written C extension ``_kernel`` (built from ``_kernel.c``
by ``setup.py`` when a C compiler is present); falls back to the
pure-Python kernel when the extension is missing or when ACECOLOR_PURE is
set in the environment. Both backends run the same algorithms and return
the same result for every input; for a rejected input they raise
ValueError with the same message. ``read_drawing`` alone differs (below).

``find_coloring(n, k, eu, ev, order, max_nodes=-1)`` returns the per-edge
colors, None when no acyclic coloring within k colors exists, or False
when the search visited more than ``max_nodes`` nodes (passes of its
backtracking loop) before it could tell; a negative budget sets no limit.
Both backends count nodes the same way.

``peeling_order(n, eu, ev)`` returns the edge indices in the order the
solvers color them: the reverse of min-degree peeling, which repeatedly
takes the vertex of least (degree, id) among those with edges left and
removes its edge to its neighbor of least (degree, id). It raises
ValueError unless eu and ev have equal lengths, every endpoint lies in
[0, n), and no edge is a loop or repeats an earlier one, so every
(degree, id) is distinct and the order is unique. It costs
O(m * degeneracy + m log n).

``trace_faces(n, rot)`` returns the faces of the rotation system ``rot``
(``rot[v]`` lists the neighbors of v in cyclic order), each as the tuple
of its boundary vertices in walk order: from the dart (u, v) a walk goes
on to (v, w), where w follows u in ``rot[v]``, and a face f lists the
tail of each dart on its walk, so its darts are (f[i], f[i + 1]),
cyclically. Darts are taken with v ascending and then in ``rot[v]``
order, and each walk starts at the first dart not on an earlier one, so
the faces and their order are unique. It raises ValueError unless rot has n
rows, every entry lies in [0, n), no row lists its own vertex or an entry
twice, and every dart (v, w) has its reverse (v is in ``rot[w]``); the
message names the first bad entry in row order, or else the first dart
without a reverse. It costs O(n + m), however the degrees are spread.

``index_edges(n, edges)`` returns ``(edges, adj, degrees)`` for the simple
graph on 0..n-1 with the given edges: the canonical (min, max) edges
sorted, the sorted neighbor row of each vertex and the degrees, all as
tuples. It raises ValueError for the first bad entry in input order, with
the checks in this order: an entry that is not a tuple or list of two
ints ("edge [0] is not a pair of ints"), an endpoint outside [0, n)
("edge (3, 0) has an endpoint outside 0..2", as given), a loop
("self-loop at vertex 2") and a repeat of an earlier edge in either
direction ("duplicate edge (0, 1)", canonical). A bad endpoint is written
as the int it is, however large. It raises MemoryError, before it
allocates, for n >= 2**31 - 1, beyond the int vertex ids of the C kernel.
It costs O(n + m).

``read_drawing(text)``, a fast path of the C kernel only, returns
``(n, edges, crossing_pairs, rotation)``, the arguments of ``Graph`` and
``Drawing``, from the canonical text that ``embedding.format_drawing``
writes, and None for any other text: ASCII numbers without a sign or a
leading zero and of at most 18 digits, one space between tokens, a
newline after every line, ``rot v: `` for an empty row, rotation tokens
below n and ``X<i>`` tokens below the number k of ``x`` lines, and n + k
rotation lines with no head listed twice. It checks nothing that
``Graph`` and ``Drawing`` check, in O(len(text)). The Python backend
returns None for every str. ``embedding.parse_drawing`` reads with its
reference reader ``_read_drawing``, which defines the format, on None or
on their error.
"""

from __future__ import annotations

import os

if os.environ.get("ACECOLOR_PURE"):
    from . import _kernel_py as _impl
else:
    try:
        from . import _kernel as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _kernel_py as _impl

BACKEND: str = _impl.BACKEND  # "c" or "python"
find_coloring = _impl.find_coloring
peeling_order = _impl.peeling_order
trace_faces = _impl.trace_faces
index_edges = _impl.index_edges
read_drawing = _impl.read_drawing
