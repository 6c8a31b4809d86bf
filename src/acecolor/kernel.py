"""Kernel backend selection.

Prefers the hand-written C extension ``_kernel`` (built from ``_kernel.c``
by ``setup.py`` when a C compiler is present); falls back to the
pure-Python kernel when the extension is missing or when ACECOLOR_PURE is
set in the environment. Both backends run the same algorithms and return
the same result for every input; for a rejected input they raise
ValueError with the same message.

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
