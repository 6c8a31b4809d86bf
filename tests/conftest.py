"""Shared test setup: tests/oracle.py and tests/graphlib.py importable
regardless of cwd, the two kernel backends as fixtures, and a fixture
that counts the witness and violation texts worded.

The ``c_kernel`` fixture takes the C extension built in place when it
carries the digest of ``src/acecolor/_kernel.c``. When nothing is built
in place, or the build is older than its source, it builds the extension
once per session with ``setup.py`` into a temporary directory and loads
it from there. It skips only when no C compiler is found.
"""

import importlib.util
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from acecolor import _kernel_py, conditions, discharging  # noqa: E402
from acecolor._stamp import built_from  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
KERNEL_C = ROOT / "src" / "acecolor" / "_kernel.c"


def _build_kernel(out_dir: Path):
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--build-lib", str(out_dir),
         "--build-temp", str(out_dir / "tmp")],
        cwd=ROOT, check=True, capture_output=True, timeout=300,
    )
    path = out_dir / "acecolor" / f"_kernel{sysconfig.get_config_var('EXT_SUFFIX')}"
    spec = importlib.util.spec_from_file_location("acecolor._kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def c_kernel(tmp_path_factory):
    try:
        from acecolor import _kernel
    except ImportError:
        _kernel = None
    if _kernel is not None and built_from(_kernel, KERNEL_C):
        return _kernel
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
