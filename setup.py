"""Build script: compiles the optional C search kernel extension.

The extension is optional: without a C compiler the build still succeeds
and ``acecolor.kernel`` selects the pure-Python kernel at import time.
Each build is stamped with the digest of ``_kernel.c`` (``_stamp.py``),
so ``acecolor.kernel`` refuses a build that is older than its source.
"""

import runpy

from setuptools import Extension, setup

KERNEL_C = "src/acecolor/_kernel.c"
source_digest = runpy.run_path("src/acecolor/_stamp.py")["source_digest"]

setup(
    ext_modules=[
        Extension(
            "acecolor._kernel",
            [KERNEL_C],
            define_macros=[("SOURCE_DIGEST", f'"{source_digest(KERNEL_C)}"')],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
