#!/usr/bin/env python3
"""Benchmark: the C search kernel vs the pure-Python fallback.

Runs the same exact-search workloads through both kernel implementations
and prints the wall times side by side. The C column appears when the
extension is built (``python setup.py build_ext --inplace``). Each search
runs on its backend's own ``peeling_order``, computed outside the timed
region. The last two search workloads, K5,5 at k=6 and K8 at k=8, are
refutations that take seconds in pure Python. Two more rows time
``peeling_order`` itself, on the 100x100 grid and on K2,2000, two time
``trace_faces``, on the plane graph of the 100x100 grid with 1000
crossings and on K2,2000 drawn in the plane, and the last two time
reading the text of that crossed grid into a ``Drawing`` and
``index_edges`` on its edges, shuffled and each in a random direction.
The text is read as ``parse_drawing`` reads it on each backend: by the C
scanner, or by the reference reader ``embedding._read_drawing``; both
build the ``Graph`` with the kernel ``acecolor.kernel`` selects. Usage:

    python benchmarks/bench_kernel.py [--repeat N]
"""

from __future__ import annotations

import argparse
import random
import time

from acecolor import _kernel_py
from acecolor.embedding import Drawing, _read_drawing, format_drawing
from acecolor.generate import grid_builder
from acecolor.graph import Graph

try:
    from acecolor import _kernel
except ImportError:
    _kernel = None


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + ((i + 2) % 5)) for i in range(5)]
    return Graph(10, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def mobius_kantor() -> Graph:
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(i, 8 + i) for i in range(8)]
    edges += [(8 + i, 8 + ((i + 3) % 8)) for i in range(8)]
    return Graph(16, edges)


def workloads():
    """(name, graph, k) exact-search calls; the unsatisfiable palettes are
    the expensive refutations that dominate exact solving."""
    yield "petersen k=3 (unsat)", petersen(), 3
    yield "petersen k=4 (sat)", petersen(), 4
    yield "K3,3 k=4 (unsat)", complete_bipartite(3, 3), 4
    yield "K3,3 k=5 (sat)", complete_bipartite(3, 3), 5
    yield "K5 k=5 (unsat)", complete(5), 5
    yield "K6 k=7 (unsat)", complete(6), 7
    yield "K4,4 k=4 (unsat)", complete_bipartite(4, 4), 4
    yield "K5,5 k=5 (unsat)", complete_bipartite(5, 5), 5
    yield "mobius-kantor k=3 (unsat)", mobius_kantor(), 3
    yield "mobius-kantor k=4 (sat)", mobius_kantor(), 4
    yield "K5,5 k=6 (unsat)", complete_bipartite(5, 5), 6
    yield "K8 k=8 (unsat)", complete(8), 8


def grid(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


def peeling_workloads():
    """(name, graph) peeling-order calls: a large sparse graph and one
    with two hubs."""
    yield "peel grid 100x100", grid(100, 100)
    yield "peel K2,2000", complete_bipartite(2, 2000)


def crossed_grid_drawing(rows: int, cols: int, crossings: int, seed: int = 0) -> Drawing:
    """A rows x cols grid with `crossings` crossing chords, tried over its
    edges in a seeded order."""
    b = grid_builder(rows, cols)
    candidates = sorted(b.edges)
    random.Random(seed).shuffle(candidates)
    inserted = 0
    for a, c in candidates:
        if inserted == crossings:
            break
        if b.can_insert_crossing(a, c):
            b.insert_crossing(a, c)
            inserted += 1
    return b.to_drawing()


def crossed_grid_rotation(rows: int, cols: int, crossings: int, seed: int = 0):
    """(vertex count, rotation rows) of the plane graph of
    ``crossed_grid_drawing``."""
    d = crossed_grid_drawing(rows, cols, crossings, seed)
    n_all = d.base.n + len(d.crossing_pairs)
    return n_all, [d.rotation[v] for v in range(n_all)]


def planar_k2_rotation(b: int):
    """(vertex count, rotation rows) of K2,b drawn in the plane: the hubs 0
    and 1 list the other vertices in opposite orders."""
    leaves = tuple(range(2, b + 2))
    return b + 2, [leaves, leaves[::-1]] + [(0, 1)] * b


def face_workloads():
    """(name, n, rot) face-tracing calls: a large sparse plane graph with
    crossing vertices and one with two hubs."""
    yield "faces grid 100x100 +1000x", *crossed_grid_rotation(100, 100, 1000)
    yield "faces K2,2000", *planar_k2_rotation(2000)


def read_with(mod, text: str) -> Drawing:
    """The drawing ``parse_drawing`` reads from text on the backend mod:
    through the C scanner, or through the reference reader, to which the
    Python backend leaves every text."""
    numbers = mod.read_drawing(text)
    if numbers is None:
        return _read_drawing(text)
    n, edges, pairs, rotation = numbers
    return Drawing(Graph(n, edges), pairs, rotation)


def reader_workloads():
    """(name, call) pairs of reader calls, each taking a kernel module: the
    canonical text of the crossed 100x100 grid read into a Drawing, and its
    edges as a reader hands them to Graph, shuffled and each in a random
    direction."""
    d = crossed_grid_drawing(100, 100, 1000)
    text = format_drawing(d)
    rng = random.Random(0)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in d.base.edges]
    rng.shuffle(edges)
    n = d.base.n
    yield "read grid 100x100 +1000x", lambda mod: read_with(mod, text)
    yield "index grid 100x100 +1000x", lambda mod: mod.index_edges(n, edges)


def best_time(call, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def edge_arrays(g: Graph) -> tuple[list[int], list[int]]:
    return [e[0] for e in g.edges], [e[1] for e in g.edges]


def run(kernel_module, g: Graph, k: int, repeat: int) -> float:
    """Best time of the search for a k-coloring on the backend's own
    peeling order."""
    eu, ev = edge_arrays(g)
    order = kernel_module.peeling_order(g.n, eu, ev)
    return best_time(lambda: kernel_module.find_coloring(g.n, k, eu, ev, order), repeat)


def run_peeling(kernel_module, g: Graph, repeat: int) -> float:
    eu, ev = edge_arrays(g)
    return best_time(lambda: kernel_module.peeling_order(g.n, eu, ev), repeat)


def report(name: str, times: list[float]) -> None:
    """One row: the workload's best time per backend, then the speedup."""
    row = f"{name:28s}" + "".join(f"{t * 1000:10.2f}ms" for t in times)
    if len(times) == 2 and times[1] > 0:
        row += f"{times[0] / times[1]:9.1f}x"
    print(row)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="runs per cell (best kept)")
    args = parser.parse_args()

    backends = [("python", _kernel_py)]
    if _kernel is not None:
        backends.append(("c", _kernel))
    else:
        print("note: compiled kernel not built; run `python setup.py build_ext --inplace`")

    header = f"{'workload':28s}" + "".join(f"{name:>12s}" for name, _ in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10s}"
    print(header)
    print("-" * len(header))
    for name, g, k in workloads():
        report(name, [run(mod, g, k, args.repeat) for _, mod in backends])
    for name, g in peeling_workloads():
        report(name, [run_peeling(mod, g, args.repeat) for _, mod in backends])
    for name, n, rot in face_workloads():
        report(name, [best_time(lambda: mod.trace_faces(n, rot), args.repeat) for _, mod in backends])
    for name, call in reader_workloads():
        report(name, [best_time(lambda: call(mod), args.repeat) for _, mod in backends])


if __name__ == "__main__":
    main()
