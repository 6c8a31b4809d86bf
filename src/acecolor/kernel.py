"""Kernel backend selection.

Prefers the hand-written C extension ``_kernel`` (built from ``_kernel.c``
by ``setup.py`` when a C compiler is present); falls back to the
pure-Python kernel when the extension is missing or when ACECOLOR_PURE is
set in the environment. Both backends run the same search and return the
same result for every input.

``find_coloring(n, k, eu, ev, order, max_nodes=-1)`` returns the per-edge
colors, None when no acyclic coloring within k colors exists, or False
when the search visited more than ``max_nodes`` nodes (passes of its
backtracking loop) before it could tell; a negative budget sets no limit.
Both backends count nodes the same way.
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
