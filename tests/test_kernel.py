"""Backend parity: the compiled C kernel and the pure-Python fallback must
implement the identical search, input checks included.

When the extension is not built in place, the ``c_kernel`` fixture builds
it once per session from ``src/acecolor/_kernel.c`` into a temporary
directory with setuptools and loads it from there. The compiled tests
skip only when no C compiler is found.
"""

import importlib.util
import shlex
import shutil
import signal
import sysconfig
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acecolor import _kernel_py
from acecolor import kernel

from graphlib import complete, cycle, path, petersen, small_library

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


def _inputs(g):
    eu = [e[0] for e in g.edges]
    ev = [e[1] for e in g.edges]
    order = list(range(g.m))
    return g.n, eu, ev, order


def test_python_kernel_basics():
    n, eu, ev, order = _inputs(cycle(4))
    assert _kernel_py.find_coloring(n, 2, eu, ev, order) is None
    got = _kernel_py.find_coloring(n, 3, eu, ev, order)
    assert got is not None and len(got) == 4


def test_python_kernel_empty_graph():
    assert _kernel_py.find_coloring(0, 3, [], [], []) == []
    assert _kernel_py.find_coloring(2, 0, [0], [1], [0]) is None


@pytest.mark.parametrize("k", [0, -1, -(2**70)])
def test_nonpositive_palette_refutes(backend, k):
    assert backend.find_coloring(2, k, [0], [1], [0]) is None
    assert backend.find_coloring(2, k, [], [], []) == []


def test_c_kernel_reports_backend(c_kernel):
    assert c_kernel.BACKEND == "c"


def test_backends_agree(c_kernel):
    for name, g in small_library():
        if g.m > 12:
            continue
        n, eu, ev, order = _inputs(g)
        for k in range(max(1, g.max_degree()), g.max_degree() + 3):
            a = _kernel_py.find_coloring(n, k, eu, ev, order)
            b = c_kernel.find_coloring(n, k, eu, ev, order)
            # identical results: the search is deterministic
            assert a == b, (name, k)


def test_backends_agree_petersen(c_kernel):
    n, eu, ev, order = _inputs(petersen())
    for k in (3, 4):
        assert _kernel_py.find_coloring(n, k, eu, ev, order) == c_kernel.find_coloring(
            n, k, eu, ev, order
        )


@st.composite
def kernel_inputs(draw):
    """A random small simple graph with each edge in a random direction,
    a random edge order and a palette size in 0..max degree + 2."""
    n = draw(st.integers(1, 8))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=12)) if pool else []
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    k = draw(st.integers(0, max(deg) + 2))
    order = draw(st.permutations(range(len(edges))))
    return n, k, [u for u, _ in edges], [v for _, v in edges], order


@settings(max_examples=200, deadline=None)
@given(kernel_inputs())
def test_backends_agree_on_random_graphs(c_kernel, args):
    assert _kernel_py.find_coloring(*args) == c_kernel.find_coloring(*args)


def test_deep_search_does_not_recurse(backend):
    # far deeper than the Python recursion limit
    n, eu, ev, order = _inputs(path(20000))
    assert backend.find_coloring(n, 2, eu, ev, order) == [1, 2] * 10000


def test_c_kernel_search_is_interruptible(c_kernel):
    # refuting K10 at k=9 takes about 30 s; a signal must end it early
    class Interrupted(Exception):
        pass

    def handler(signum, frame):
        raise Interrupted

    n, eu, ev, order = _inputs(complete(10))
    previous = signal.signal(signal.SIGALRM, handler)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.1)
        t0 = time.perf_counter()
        with pytest.raises(Interrupted):
            c_kernel.find_coloring(n, 9, eu, ev, order)
        assert time.perf_counter() - t0 < 5
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "eu, ev, message",
    [
        ([0, -1], [1, 2], r"eu\[1\] = -1 is out of range \[0, 3\)"),
        ([0, 1], [1, 3], r"ev\[1\] = 3 is out of range \[0, 3\)"),
        ([0, 1], [1, 2**70], r"ev\[1\] = \d+ is out of range \[0, 3\)"),
        ([0, 1], [1, 2, 0], r"ev must have one entry per edge"),
    ],
    ids=["negative", "equal-to-n", "huge", "extra"],
)
def test_endpoint_out_of_range_raises(backend, eu, ev, message):
    with pytest.raises(ValueError, match=message):
        backend.find_coloring(3, 3, eu, ev, [0, 1])


@pytest.mark.parametrize(
    "order, message",
    [
        ([0, 0, 1], r"order must be a permutation of range\(m\)"),
        ([0, 1], r"order must have one entry per edge"),
        ([0, 1, 2, 0], r"order must have one entry per edge"),
        ([0, 1, 3], r"order\[2\] = 3 is out of range \[0, 3\)"),
        ([-1, 0, 1], r"order\[0\] = -1 is out of range \[0, 3\)"),
    ],
    ids=["repeat", "short", "long", "too-big", "negative"],
)
def test_order_not_a_permutation_raises(backend, order, message):
    with pytest.raises(ValueError, match=message):
        backend.find_coloring(4, 3, [0, 1, 2], [1, 2, 3], order)


def test_selected_backend_exposed():
    assert kernel.BACKEND in ("c", "python")
    assert callable(kernel.find_coloring)
