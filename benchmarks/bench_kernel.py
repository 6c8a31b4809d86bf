#!/usr/bin/env python3
"""Benchmark: the C search kernel vs the pure-Python fallback.

Runs the same exact-search workloads through both kernel implementations
and prints the wall times side by side. The C column appears when the
extension is built (``python setup.py build_ext --inplace``). The last two
workloads, K5,5 at k=6 and K8 at k=8, are refutations that take seconds
in pure Python. Usage:

    python benchmarks/bench_kernel.py [--repeat N]
"""

from __future__ import annotations

import argparse
import time

from acecolor import _kernel_py
from acecolor.graph import Graph
from acecolor.solver import edge_insertion_order

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


def run(kernel_module, g: Graph, k: int, repeat: int) -> tuple[float, bool]:
    eu = [e[0] for e in g.edges]
    ev = [e[1] for e in g.edges]
    index = {e: i for i, e in enumerate(g.edges)}
    order = [index[e] for e in reversed(edge_insertion_order(g))]
    best = float("inf")
    found = False
    for _ in range(repeat):
        t0 = time.perf_counter()
        res = kernel_module.find_coloring(g.n, k, eu, ev, order)
        best = min(best, time.perf_counter() - t0)
        found = res is not None
    return best, found


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
        times = []
        for _, mod in backends:
            t, found = run(mod, g, k, args.repeat)
            times.append(t)
        row = f"{name:28s}" + "".join(f"{t * 1000:10.2f}ms" for t in times)
        if len(times) == 2 and times[1] > 0:
            row += f"{times[0] / times[1]:9.1f}x"
        print(row)


if __name__ == "__main__":
    main()
