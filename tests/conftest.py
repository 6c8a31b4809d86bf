"""Shared test setup: tests/oracle.py and tests/graphlib.py importable
regardless of cwd, the two kernel backends as fixtures, and a fixture
that counts the witness and violation texts worded.

When the C extension is not built in place, the ``c_kernel`` fixture
builds it once per session from ``src/acecolor/_kernel.c`` into a
temporary directory with setuptools and loads it from there. It skips
only when no C compiler is found.
"""

import importlib.util
import shlex
import shutil
import sys
import sysconfig
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from acecolor import _kernel_py, conditions, discharging  # noqa: E402

KERNEL_C = Path(__file__).resolve().parents[1] / "src" / "acecolor" / "_kernel.c"


def _build_kernel(out_dir: Path):
    from setuptools import Distribution, Extension

    ext = Extension("acecolor._kernel", [str(KERNEL_C)], extra_compile_args=["-O2"])
    cmd = Distribution({"ext_modules": [ext]}).get_command_obj("build_ext")
    cmd.build_lib = str(out_dir)
    cmd.build_temp = str(out_dir / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(ext.name, cmd.get_ext_fullpath(ext.name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def c_kernel(tmp_path_factory):
    try:
        from acecolor import _kernel

        return _kernel
    except ImportError:
        pass
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler found to build the C kernel")
    return _build_kernel(tmp_path_factory.mktemp("c_kernel"))


@pytest.fixture(params=["python", "c"])
def backend(request):
    if request.param == "python":
        return _kernel_py
    return request.getfixturevalue("c_kernel")


@pytest.fixture
def worded(monkeypatch):
    """The names of the wording functions called, in call order: each
    ``_word_*`` function of the conditions and the discharging is
    replaced by one that records its name, so a witness or violation
    made during the test words its text through it."""
    calls = []

    def counting(name, word):
        def count(*values):
            calls.append(name)
            return word(*values)

        return count

    for module in (conditions, discharging):
        for name, word in list(vars(module).items()):
            if name.startswith("_word_"):
                monkeypatch.setattr(module, name, counting(name, word))
    return calls
