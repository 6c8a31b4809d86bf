"""Golden outputs of the heuristic colorer, pinned before refactors.

The slice below is taken from the tight-palette set of the pipeline
benchmark, ``CorpusSpec(count=90, n_max=20, seed=1000)``: every instance
is colored at kappa = max degree and, on a miss, at max degree + 1. It
holds the instances whose final colorings use recolor, exchange and
uncolor-shift moves, plus misses that spend the whole move budget. The
hash covers each coloring, its moves in order and the restarts used, so
any change to an accept/reject decision, the move order or the budget
use shows up here.
"""

import hashlib

from acecolor.generate import CorpusSpec, generate_instance
from acecolor.solver import heuristic_color

SPEC = CorpusSpec(count=90, n_max=20, seed=1000)
WITH_MOVES = (11, 22, 24, 34, 38, 39, 46, 65, 68, 74, 89)
MISSES = (0, 8, 14, 20, 23, 26, 30, 81, 86)
GOLDEN = "5fe9b60728ef21388e7391424b1bf6416f0e994bad85b18dba70426a6d8bc5f9"


def _tight_outputs():
    for i in sorted(WITH_MOVES + MISSES):
        family = SPEC.families[i % len(SPEC.families)]
        g = generate_instance(family, SPEC.seed + i, SPEC.n_min, SPEC.n_max).base
        for kappa in (g.max_degree(), g.max_degree() + 1):
            out = heuristic_color(g, kappa)
            yield i, kappa, out
            if out is not None:
                break


def test_heuristic_golden_outputs_on_tight_slice():
    h = hashlib.sha256()
    kinds = set()
    misses = 0
    for i, kappa, out in _tight_outputs():
        if out is None:
            misses += 1
            h.update(f"{i} {kappa} miss\n".encode())
            continue
        kinds.update(m.kind for m in out.moves)
        moves = [(m.kind, m.detail) for m in out.moves]
        colors = sorted(out.coloring.colored_edges().items())
        h.update(f"{i} {kappa} {colors} {moves} {out.restarts_used}\n".encode())
    assert kinds == {"recolor", "exchange", "uncolor-shift"}
    assert misses == len(MISSES)
    assert h.hexdigest() == GOLDEN
