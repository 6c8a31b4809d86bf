"""Kernel backend selection.

Prefers the hand-written C extension ``_kernel`` (built from ``_kernel.c``
by ``setup.py`` when a C compiler is present); falls back to the
pure-Python kernel when the extension is missing or when ACECOLOR_PURE is
set in the environment. Both backends run the same search and return the
same result for every input.
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
