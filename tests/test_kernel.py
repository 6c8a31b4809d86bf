"""Backend parity: the compiled C kernel and the pure-Python fallback must
implement the identical search, input checks and node counts included.

The ``c_kernel`` and ``backend`` fixtures live in ``conftest.py``; the
compiled tests skip only when no C compiler is found.
"""

import importlib.machinery
import importlib.util
import os
import re
import resource
import shlex
import shutil
import signal
import subprocess
import sys
import sysconfig
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acecolor
from acecolor import _kernel_py
from acecolor import kernel
from acecolor._stamp import REBUILD, source_digest
from acecolor.embedding import format_drawing
from acecolor.generate import grid_builder

from conftest import KERNEL_C
from graphlib import complete, complete_bipartite, cycle, path, petersen, small_library


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


@pytest.mark.parametrize("graph", [cycle(4), petersen()], ids=["C4", "petersen"])
@pytest.mark.parametrize("palette", [lambda m: m, lambda m: m + 1, lambda m: 2**62], ids=["m", "m+1", "2**62"])
def test_a_palette_above_m_acts_as_m(c_kernel, graph, palette):
    # colors above m are never reached, so both backends clip k to m: the
    # same coloring at every node budget, and no table of n * k slots
    n, eu, ev, order = _inputs(graph)
    m = len(eu)
    for budget in range(5 * m + 1):
        want = _kernel_py.find_coloring(n, m, eu, ev, order, budget)
        for backend in (_kernel_py, c_kernel):
            got = backend.find_coloring(n, palette(m), eu, ev, order, budget)
            assert got == want and type(got) is type(want), (backend.BACKEND, budget)
    assert _kernel_py.find_coloring(n, palette(m), eu, ev, order) not in (None, False)


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


@settings(max_examples=200, deadline=None)
@given(kernel_inputs())
def test_backends_agree_at_every_node_budget(c_kernel, args):
    # equal outcomes at every budget up to 5m mean equal node counts: the
    # smallest budget that gives an answer is the number of nodes visited
    m = len(args[2])
    for budget in range(5 * m + 1):
        a = _kernel_py.find_coloring(*args, budget)
        b = c_kernel.find_coloring(*args, budget)
        assert a == b and type(a) is type(b), budget
    unbounded = _kernel_py.find_coloring(*args)
    assert a is False or a == unbounded


def test_zero_node_budget_gives_no_answer(backend):
    n, eu, ev, order = _inputs(cycle(4))
    assert backend.find_coloring(n, 3, eu, ev, order, 0) is False
    # an empty graph or an empty palette is answered before the first node
    assert backend.find_coloring(n, 3, [], [], [], 0) == []
    assert backend.find_coloring(n, 0, eu, ev, order, 0) is None


def test_forest_takes_exactly_m_nodes(backend):
    # with 2*delta - 1 colors no edge of a forest is ever stuck, so the
    # search visits each edge once and never backtracks
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (6, 7), (6, 8), (8, 9)]
    eu, ev = [u for u, _ in edges], [v for _, v in edges]
    m = len(edges)
    for order in (list(range(m)), list(reversed(range(m))), [4, 8, 0, 6, 2, 7, 1, 5, 3]):
        full = backend.find_coloring(10, 5, eu, ev, order)
        assert full is not None and backend.find_coloring(10, 5, eu, ev, order, m) == full
        assert backend.find_coloring(10, 5, eu, ev, order, m - 1) is False


def test_negative_budget_is_no_limit(backend):
    for name, g in small_library():
        if g.m > 12:
            continue
        n, eu, ev, order = _inputs(g)
        for k in range(max(1, g.max_degree()), g.max_degree() + 3):
            five = backend.find_coloring(n, k, eu, ev, order)
            assert backend.find_coloring(n, k, eu, ev, order, -1) == five, (name, k)
            assert backend.find_coloring(n, k, eu, ev, order, -(2**70)) == five, (name, k)


def test_spent_budget_is_not_a_refutation(backend):
    # K5,5 has no acyclic 5-coloring; a small budget must not claim that
    n, eu, ev, order = _inputs(complete_bipartite(5, 5))
    assert backend.find_coloring(n, 5, eu, ev, order, 1000) is False
    assert backend.find_coloring(n, 5, eu, ev, order, 2**70) is not False


@pytest.mark.parametrize("budget", [1.5, "10", None])
def test_node_budget_must_be_an_int(backend, budget):
    n, eu, ev, order = _inputs(cycle(4))
    with pytest.raises(TypeError):
        backend.find_coloring(n, 3, eu, ev, order, budget)


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


# -- peeling order ------------------------------------------------------------


@st.composite
def peeling_inputs(draw):
    """A random simple graph on up to 40 vertices, split into up to three
    vertex classes with edges only inside a class (so several components
    and isolated vertices are common), each edge in a random direction
    and the edges in a random order."""
    n = draw(st.integers(0, 40))
    parts = draw(st.integers(1, 3))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n) if i % parts == j % parts]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=90)) if pool else []
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]
    return n, [u for u, _ in edges], [v for _, v in edges]


@settings(max_examples=300, deadline=None)
@given(peeling_inputs())
def test_peeling_order_backends_agree(c_kernel, args):
    order = _kernel_py.peeling_order(*args)
    assert c_kernel.peeling_order(*args) == order
    assert sorted(order) == list(range(len(args[1])))


def test_peeling_order_without_edges(backend):
    assert backend.peeling_order(0, [], []) == []
    assert backend.peeling_order(5, [], []) == []


def test_peeling_order_colors_the_first_peeled_edge_last(backend):
    # the path 0-1-2-3 given as edges 2, 0, 1: leaf 0 peels first, taking
    # its edge (0, 1), then 1 is a leaf and takes (1, 2), then (2, 3)
    assert backend.peeling_order(4, [2, 0, 1], [3, 1, 2]) == [0, 2, 1]


@pytest.mark.parametrize(
    "n, eu, ev, message",
    [
        (3, [0, 1], [1], r"^ev must have one entry per edge$"),
        (3, [0, 1], [1, 3], r"^ev\[1\] = 3 is out of range \[0, 3\)$"),
        (3, [0, -1], [1, 2], r"^eu\[1\] = -1 is out of range \[0, 3\)$"),
        (3, [0, 1, 2], [1, 1, 0], r"^edge 1 is a loop at vertex 1$"),
        (3, [0, 1, 1, 0], [1, 2, 0, 2], r"^edge 2 repeats edge 0$"),
        (3, [0, 1, 1, 2], [1, 2, 2, 2], r"^edge 3 is a loop at vertex 2$"),  # loops first
    ],
    ids=["length", "endpoint-high", "endpoint-negative", "loop", "repeat", "loop-before-repeat"],
)
def test_peeling_order_rejects_non_simple_input(backend, n, eu, ev, message):
    with pytest.raises(ValueError, match=message):
        backend.peeling_order(n, eu, ev)


def _k2(b):
    return 2 + b, [0] * b + [1] * b, [2 + j for j in range(b)] * 2


def _grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return rows * cols, [u for u, _ in edges], [v for _, v in edges]


@pytest.mark.parametrize("graph", [_k2(2000), _grid(100, 100)], ids=["K2,2000", "grid100x100"])
def test_peeling_order_time_is_bounded_on_hubs_and_grids(backend, graph):
    # each step scans the chosen vertex's remaining edges only and drops
    # one edge from each end in O(1) plus heap updates; a step that
    # scanned every vertex, or a hub's whole edge list, would take far
    # longer here
    t0 = time.perf_counter()
    order = backend.peeling_order(*graph)
    assert time.perf_counter() - t0 < 5
    assert sorted(order) == list(range(len(graph[1])))


def _public_functions(module):
    return {name for name, obj in vars(module).items() if callable(obj) and not name.startswith("_")}


def test_backends_expose_the_same_functions(c_kernel):
    # a function added to one backend and not the other fails here, and
    # acecolor.kernel re-exports each of them
    assert _public_functions(_kernel_py) == _public_functions(c_kernel)
    assert _public_functions(kernel) == _public_functions(_kernel_py)
    assert {"find_coloring", "peeling_order", "trace_faces", "index_edges", "read_drawing"} <= _public_functions(kernel)


def test_an_in_place_build_carries_the_digest_of_its_source():
    # a build older than _kernel.c would run every test on code the source
    # no longer has. A fresh interpreter reads the stamp, as this one may
    # hold the c_kernel fixture's own build under the same module name.
    if importlib.machinery.PathFinder.find_spec("acecolor._kernel", acecolor.__path__) is None:
        pytest.skip("no C kernel built in place")
    done = subprocess.run(
        [sys.executable, "-c", "from acecolor import _kernel; print(getattr(_kernel, 'SOURCE_DIGEST', None))"],
        env={**os.environ, "ACECOLOR_PURE": "1", "PYTHONPATH": str(KERNEL_C.parents[1])},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == source_digest(KERNEL_C), REBUILD


def test_a_kernel_built_from_other_source_is_refused(monkeypatch):
    # acecolor.kernel names the rebuild, and does not fall back to the
    # Python kernel
    stale = types.ModuleType("acecolor._kernel")
    stale.__file__, stale.SOURCE_DIGEST = "_kernel.so", "0" * 64
    monkeypatch.setitem(sys.modules, "acecolor._kernel", stale)
    monkeypatch.setattr(acecolor, "_kernel", stale, raising=False)
    monkeypatch.delenv("ACECOLOR_PURE", raising=False)
    spec = importlib.util.spec_from_file_location("acecolor.kernel", kernel.__file__)
    with pytest.raises(ImportError, match=re.escape(REBUILD)):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


# -- face walks -----------------------------------------------------------------


def _k2_rotation(b):
    """K2,b drawn in the plane: the hubs 0 and 1 list the other vertices in
    opposite orders, so there are b faces of length 4."""
    leaves = tuple(range(2, b + 2))
    return b + 2, [leaves, leaves[::-1]] + [(0, 1)] * b


def _darts(rot):
    return sorted((v, w) for v, row in enumerate(rot) for w in row)


@st.composite
def rotation_inputs(draw):
    """A random simple graph on 1 to 12 vertices with each rotation row
    shuffled, as a tuple or a list, then up to two faults: an entry
    dropped, one out of range, a loop, a repeated entry, or a row added or
    removed."""
    n = draw(st.integers(1, 12))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=30)) if pool else []
    rows = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    rot = [draw(st.permutations(row)) for row in rows]
    rot = [tuple(row) if draw(st.booleans()) else list(row) for row in rot]
    faults = ["drop", "range", "loop", "repeat", "rows"]
    for fault in draw(st.lists(st.sampled_from(faults), max_size=2)):
        if fault == "rows":
            rot = rot + [()] if draw(st.booleans()) or not rot else rot[:-1]
            continue
        if not rot:
            continue
        v = draw(st.integers(0, len(rot) - 1))
        row = list(rot[v])
        i = draw(st.integers(0, len(row)))
        if fault == "drop" and row:
            del row[i % len(row)]
        elif fault == "range":
            row.insert(i, draw(st.sampled_from([-1, n, n + 3, 2**70, -(2**70)])))
        elif fault == "loop":
            row.insert(i, v)
        elif fault == "repeat" and row:
            row.insert(i, draw(st.sampled_from(row)))
        rot[v] = row
    return n, rot


def _faces_or_message(backend, n, rot):
    try:
        return backend.trace_faces(n, rot)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(rotation_inputs())
def test_trace_faces_backends_agree(c_kernel, args):
    # equal faces on a good rotation, equal messages on a bad one
    faces = _faces_or_message(_kernel_py, *args)
    assert _faces_or_message(c_kernel, *args) == faces
    if not isinstance(faces, str):  # every dart on exactly one walk
        assert sorted(d for f in faces for d in zip(f, f[1:] + f[:1])) == _darts(args[1])


def test_trace_faces_order(backend):
    # a 4-cycle: walks start at the first unused dart, in row order, and
    # list the tail of each dart
    rot = [(1, 3), (2, 0), (3, 1), (0, 2)]
    assert backend.trace_faces(4, rot) == [(0, 1, 2, 3), (0, 3, 2, 1)]
    assert backend.trace_faces(0, []) == []
    assert backend.trace_faces(3, [(), (), ()]) == []
    assert backend.trace_faces(2, [[1], [0]]) == [(0, 1)]


@pytest.mark.parametrize(
    "n, rot, message",
    [
        (2, [(1,)], r"^rot must have one row per vertex$"),
        (-1, [], r"^rot must have one row per vertex$"),
        (2, [(1, 2), (0,)], r"^rot\[0\]\[1\] = 2 is out of range \[0, 2\)$"),
        (2, [(1,), (-1, 0)], r"^rot\[1\]\[0\] = -1 is out of range \[0, 2\)$"),
        (2, [(1,), (2**70,)], rf"^rot\[1\]\[0\] = {2**70} is out of range \[0, 2\)$"),
        (2, [(1, 0), (0,)], r"^rot\[0\]\[1\] is a loop at vertex 0$"),
        (3, [(1, 2, 1), (0,), (0,)], r"^rot\[0\]\[2\] repeats rot\[0\]\[0\]$"),
        (3, [(1, 2), (0,), ()], r"^dart \(0, 2\) has no reverse: 0 is not in rot\[2\]$"),
        (3, [(1,), (0, 2), (5,)], r"^rot\[2\]\[0\] = 5 is out of range \[0, 3\)$"),  # entries first
    ],
    ids=["short", "negative-n", "high", "negative", "huge", "loop", "repeat", "reverse",
         "entry-before-reverse"],
)
def test_trace_faces_rejects_malformed_rows(backend, n, rot, message):
    with pytest.raises(ValueError, match=message):
        backend.trace_faces(n, rot)


def _grid_rotation(rows, cols):
    b = grid_builder(rows, cols)
    return b.n, [tuple(b.rotation[v]) for v in range(b.n)]


@pytest.mark.parametrize(
    "n, rot, faces",
    [(*_k2_rotation(2000), 2000), (*_grid_rotation(100, 100), 99 * 99 + 1)],
    ids=["K2,2000", "grid100x100"],
)
def test_trace_faces_is_linear_on_hubs_and_grids(backend, n, rot, faces):
    # the reverse of each dart is found without scanning the row of its
    # head, so a hub's 2000 darts cost no more than 2000 darts elsewhere
    t0 = time.perf_counter()
    walks = backend.trace_faces(n, rot)
    assert time.perf_counter() - t0 < 5
    assert len(walks) == faces
    assert sum(map(len, walks)) == len(_darts(rot))


# -- edge index -------------------------------------------------------------------


def _index_edges_loop(n, edges):
    """The loop ``Graph.__init__`` ran before the kernel took it over."""
    seen = set()
    canon = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        canon.append(e)
    edges = tuple(sorted(canon))
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return edges, tuple(map(tuple, adj)), tuple(map(len, adj))


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


NOT_PAIRS = [(0,), (0, 1, 2), [1], 3, "01", (0, 1.0), ("0", 1), None, (None, None)]


@st.composite
def edge_lists(draw):
    """A random simple graph on up to 12 vertices, each edge a tuple or a
    list in a random direction and the edges in a random order, then up
    to three faults: an endpoint out of range (huge ones included), a
    loop, a repeat in either direction, or an entry that is not a pair of
    ints. Returns (n, edges, whether an entry is not a pair)."""
    n = draw(st.integers(-1, 12))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=30)) if pool else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    edges = [list(e) if draw(st.booleans()) else e for e in edges]
    simple = list(edges)
    odd = False
    for fault in draw(st.lists(st.sampled_from(["range", "loop", "repeat", "entry"]), max_size=3)):
        at = draw(st.integers(0, len(edges)))
        v = draw(st.integers(0, max(n - 1, 0)))
        if fault == "range":
            bad = draw(st.sampled_from([-1, n, n + 3, 2**70, -(2**70)]))
            edges.insert(at, (bad, v) if draw(st.booleans()) else (v, bad))
        elif fault == "loop":
            edges.insert(at, (v, v))
        elif fault == "repeat" and simple:
            u, w = draw(st.sampled_from(simple))
            edges.insert(at, (w, u) if draw(st.booleans()) else [u, w])
        elif fault == "entry":
            edges.insert(at, draw(st.sampled_from(NOT_PAIRS)))
            odd = True
    return n, edges, odd


@settings(max_examples=400, deadline=None)
@given(edge_lists())
def test_index_edges_backends_agree_with_the_old_loop(c_kernel, args):
    # equal indexes on good input, equal messages for the first bad entry
    n, edges, odd = args
    got = _outcome(_kernel_py.index_edges, n, edges)
    assert _outcome(c_kernel.index_edges, n, edges) == got
    if not odd:
        assert got == _outcome(_index_edges_loop, n, edges)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (3, 0)], "edge (3, 0) has an endpoint outside 0..2"),
        ([(0, 1), (2, 2)], "self-loop at vertex 2"),
        ([(1, 2), (1, 0), (0, 1)], "duplicate edge (0, 1)"),
        ([(0, 1), [2, 1], (1, 2)], "duplicate edge (1, 2)"),
        ([(0, 1), (2**70, 0)], f"edge ({2**70}, 0) has an endpoint outside 0..2"),
        ([(0, -(2**70))], f"edge (0, {-(2**70)}) has an endpoint outside 0..2"),
        ([(5, 5)], "edge (5, 5) has an endpoint outside 0..2"),  # range before loop
        ([(0, 1), (0, 1, 2)], "edge (0, 1, 2) is not a pair of ints"),
        ([[0]], "edge [0] is not a pair of ints"),
        ([(0, 1.0)], "edge (0, 1.0) is not a pair of ints"),
        ([7], "edge 7 is not a pair of ints"),
        # the first bad entry in input order, whatever it fails
        ([(0, 1), (1, 0), (5, 5)], "duplicate edge (0, 1)"),
        ([(0, 1), (5, 0), (1, 0)], "edge (5, 0) has an endpoint outside 0..2"),
        ([(1, 1), (0, 7)], "self-loop at vertex 1"),
        ([(0, 2), "x", (2, 0)], "edge 'x' is not a pair of ints"),
    ],
)
def test_index_edges_reports_the_first_bad_entry(backend, edges, message):
    with pytest.raises(ValueError) as err:
        backend.index_edges(3, edges)
    assert str(err.value) == message


@pytest.mark.parametrize("n", [2**31 - 1, 2**31, 2**70])
def test_index_edges_refuses_a_vertex_count_beyond_int_ids(backend, n):
    # both backends refuse before they allocate a row per vertex
    with pytest.raises(MemoryError):
        backend.index_edges(n, [(0, 1)])


def test_index_edges_rows_and_degrees(backend):
    assert backend.index_edges(0, []) == ((), (), ())
    assert backend.index_edges(3, iter([(2, 1), [1, 0]])) == (
        ((0, 1), (1, 2)),
        ((1,), (0, 2), (1,)),
        (1, 2, 1),
    )


# -- the canonical drawing text -----------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3 0",
        "3 0\r\n",
        "03 0\n",
        "+3 0\n",
        "3  0\n",
        "3 0 \n",
        "3 0\n\n",
        "2 1\n0 1\nrot 0: 1\nrot 1: 0",
        "2 1\n0 1\nrot 00: 1\nrot 1: 0\n",
        "2 1\n0 1\nrot 0: 01\nrot 1: 0\n",
        "2 1\n0 1\nrot 0: 2\nrot 1: 0\n",
        "2 1\n0 1\nrot 2: 1\nrot 1: 0\n",
        "2 1\n0 1\nrot X0: 1\nrot 1: 0\n",
        "2 1\n0 1\nrot 0: 1\nrot 0: 1\n",
        "2 1\n0 1\nrot 0:\nrot 1: 0\n",
        "2 1\n0 1\nrot 0: 1 \nrot 1: 0\n",
        "2 1\n0 1\nrot 0:  1\nrot 1: 0\n",
        "2 2\n0 1\nrot 0: 1\nrot 1: 0\n",
        "2 0\n0 1\nrot 0: 1\nrot 1: 0\n",
        "2 1\n0 1\nrot 0: 1\nx 0 1 0 1\n",
        "4 2\n0 2\n1 3\nx 0 2 1 3\nrot X1: 0 1 2 3\n",
        "4 2\n0 2\n1 3\nx 0 2 1 3\nrot X01: 0 1 2 3\n",
        "1 0\nrot \u0660: \n",
        "1000000000000000000 0\n",
        "1 1\n0 1000000000000000000\n",
        # fewer rotation lines than n + k: the reference reader names the counts
        "999999999999999999 1\n0 999999999999999998\n",
        "5 2\n0 2\n3 1\nx 0 2 1 3\nrot 0: X0\nrot 4: \nrot X0: 0 1 2 3\n",
    ],
)
def test_read_drawing_refuses_other_text(backend, text):
    # the C scanner refuses every text that is not canonical; the Python
    # backend has no scanner and returns None for every text
    assert backend.read_drawing(text) is None


def test_read_drawing_numbers(backend):
    # the C scanner's numbers, read from exactly n + k rotation lines; the
    # Python backend leaves every text, canonical or not, to the reference
    # reader
    cases = [
        (
            "4 2\n0 2\n3 1\nx 0 2 1 3\nrot 0: X0\nrot 3: \nrot 1: 0\nrot 2: \nrot X0: 0 1 2 3\n",
            (4, [(0, 2), (3, 1)], [((0, 2), (1, 3))], {0: [4], 3: [], 1: [0], 2: [], 4: [0, 1, 2, 3]}),
        ),
        ("1 1\n0 999999999999999998\nrot 0: \n", (1, [(0, 10**18 - 2)], [], {0: []})),
        ("0 0\n", (0, [], [], {})),
    ]
    for text, numbers in cases:
        assert backend.read_drawing(text) == (numbers if backend.BACKEND == "c" else None)


def test_read_drawing_takes_only_a_str(backend):
    with pytest.raises(TypeError, match="read_drawing expects a str, got bytes"):
        backend.read_drawing(b"0 0\n")


def test_c_kernel_does_not_leak(c_kernel):
    # the max RSS after each of three rounds of the same calls, good and
    # bad: a reference the C side failed to drop would grow it every round
    b = grid_builder(6, 6)
    b.insert_crossing(7, 8)
    d = b.to_drawing()
    text = format_drawing(d)
    texts = [text, text + "rot 0: 1\n", text.replace("rot 3:", "rot 99:"), text[:-1]]
    edge_inputs = [list(d.base.edges), [(0, 1), (1, 0)], [(0, 1), (1, 1)], [(0, 99)], [(0, 1), "x"]]
    rss = []
    for _ in range(3):
        for _ in range(3000):
            for t in texts:
                c_kernel.read_drawing(t)
            for edges in edge_inputs:
                _outcome(c_kernel.index_edges, d.base.n, edges)
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    assert rss[2] == rss[1], rss


def test_c_kernel_compiles_without_warnings(tmp_path):
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler found")
    include = sysconfig.get_paths()["include"]
    cmd = [*cc, "-Wall", "-Wextra", "-Werror", "-O2", "-fPIC", "-I", include,
           "-c", str(KERNEL_C), "-o", str(tmp_path / "_kernel.o")]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
