"""Build script: compiles the optional C search kernel extension.

The extension is optional: without a C compiler the build still succeeds
and ``acecolor.kernel`` selects the pure-Python kernel at import time.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "acecolor._kernel",
            ["src/acecolor/_kernel.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
