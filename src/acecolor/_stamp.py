"""The stamp that ties a build of the C kernel to its source.

``setup.py`` compiles the digest of ``_kernel.c`` into the extension as
its ``SOURCE_DIGEST`` string, and ``acecolor.kernel`` refuses an
extension whose stamp is not the digest of the ``_kernel.c`` beside it.
This module imports nothing from the package, so ``setup.py`` can load it
by its path before anything is built.
"""

import hashlib

REBUILD = "python setup.py build_ext --inplace --force"


def source_digest(path) -> str:
    """The sha256 of the file at path, in hex."""
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def built_from(module, source) -> bool:
    """Whether the extension module carries the digest of the source file."""
    return getattr(module, "SOURCE_DIGEST", None) == source_digest(source)
