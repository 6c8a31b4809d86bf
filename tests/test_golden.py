"""Golden outputs, pinned before refactors.

Heuristic colorer, on the tight-palette set of the pipeline benchmark,
``CorpusSpec(count=90, n_max=20, seed=1000)``: every instance is colored
at kappa = max degree and, on a miss, at max degree + 1.

- The repair path, with the search's node budget set to 0 so that every
  run falls through to it: the slice below holds the instances whose
  final colorings use recolor, exchange and uncolor-shift moves, plus
  misses that spend the whole move budget. The hash covers each
  coloring, its moves in order and the restarts used, so any change to
  an accept/reject decision, the move order or the budget use shows up
  here.
- The default path over the whole set, where the budgeted search decides
  every palette.
- Over the acceptance corpus at max degree + 16 and + 1, the search's
  coloring is the greedy one wherever greedy needs no repair.

Discharging and the structural conditions: over the 210-drawing
acceptance corpus, ``CorpusSpec(count=210, seed=1000)``, at the default
palette and at max degree + 2, and over two hand-built drawings at every
slack from 0 to 16, the hash covers each discharge report (its JSON and
every final charge), each condition's witnesses and the reducible
witness.

The generator: the serialized drawings of the acceptance corpus, the
tight-palette set, and the exact and scaling inputs of the pipeline
benchmark at seed 1.
"""

import hashlib
import json
import random

from acecolor import solver
from acecolor.conditions import CONDITION_ORDER, check_condition, find_reducible_configuration
from acecolor.discharging import discharge
from acecolor.embedding import format_drawing, planarize
from acecolor.generate import CorpusSpec, generate_corpus, generate_instance, grid_builder
from acecolor.solver import heuristic_color

from fixtures import five_vertex_fixture, heavy_four_vertex_fixture

SPEC = CorpusSpec(count=90, n_max=20, seed=1000)
WITH_MOVES = (11, 22, 24, 34, 38, 39, 46, 65, 68, 74, 89)
MISSES = (0, 8, 14, 20, 23, 26, 30, 81, 86)
GOLDEN = "5fe9b60728ef21388e7391424b1bf6416f0e994bad85b18dba70426a6d8bc5f9"
TIGHT_GOLDEN = "f135ca9f47984b8d1bd6fbcbe350f0912e7d0e4e01071cce0b2ab2bc35096aae"
CORPUS = CorpusSpec(count=210, seed=1000)


def _tight_outputs(indices):
    for i in indices:
        family = SPEC.families[i % len(SPEC.families)]
        g = generate_instance(family, SPEC.seed + i, SPEC.n_min, SPEC.n_max).base
        for kappa in (g.max_degree(), g.max_degree() + 1):
            out = heuristic_color(g, kappa)
            yield i, kappa, out
            if out is not None:
                break


def _hash_tight(indices) -> tuple[str, set, int]:
    """Digest of the tight outputs, the repair kinds used and the misses."""
    h = hashlib.sha256()
    kinds = set()
    misses = 0
    for i, kappa, out in _tight_outputs(indices):
        if out is None:
            misses += 1
            h.update(f"{i} {kappa} miss\n".encode())
            continue
        kinds.update(m.kind for m in out.moves)
        moves = [(m.kind, m.detail) for m in out.moves]
        colors = sorted(out.coloring.colored_edges().items())
        h.update(f"{i} {kappa} {colors} {moves} {out.restarts_used}\n".encode())
    return h.hexdigest(), kinds, misses


def test_heuristic_golden_outputs_on_tight_slice(monkeypatch):
    monkeypatch.setattr(solver, "NODES_PER_EDGE", 0)
    digest, kinds, misses = _hash_tight(sorted(WITH_MOVES + MISSES))
    assert kinds == {"recolor", "exchange", "uncolor-shift"}
    assert misses == len(MISSES)
    assert digest == GOLDEN


def test_heuristic_golden_outputs_on_tight_set():
    # no repairs: the search colors or refutes every palette within its
    # budget; the 18 misses at max degree are the 17 palettes the lower
    # bound rules out and one the search refutes
    digest, kinds, misses = _hash_tight(range(SPEC.count))
    assert kinds == set()
    assert misses == 18
    assert digest == TIGHT_GOLDEN


def test_search_coloring_is_greedy_coloring_where_no_repair_is_needed():
    # greedy needs no repair on any corpus drawing at these palettes
    for name, d in generate_corpus(CORPUS):
        g = d.base
        order = solver._coloring_order(g)
        for kappa in (g.max_degree() + 16, g.max_degree() + 1):
            greedy = solver._color_once(g, kappa, order, 50 * g.m, None)
            assert greedy is not None and greedy.moves == [], (name, kappa)
            out = heuristic_color(g, kappa)
            assert (out.moves, out.restarts_used, out.colors_used) == ([], 0, greedy.colors_used)
            assert out.coloring.colored_edges() == greedy.coloring.colored_edges(), (name, kappa)


# -- discharging and the structural conditions on the acceptance corpus ---------

DISCHARGE_GOLDEN = {
    16: "559c781bc842a0e867320b7026f7198d8f0aaa04bcb59986c1c047fc22531e90",
    2: "7ddddc66c60b713e7e35ca2d3f3370ce72a810969a09dca6e4c1f0d31aef26de",
}
FIXTURE_GOLDEN = "e805fa99b1a71a9ca73aa6956e96b59155c0368435265858eb900a16fed5c086"


def _hash_discharge_audit(h, name: str, d, kappa: int) -> set:
    """Feed h the discharge report (JSON plus every final charge), each
    condition's witness list and the reducible witness of one drawing at
    palette kappa. Returns the rules that fired."""
    g = d.base
    p = planarize(d)
    rep = discharge(p, g, kappa)
    charges = [(e, f"{q.numerator}/{q.denominator}") for e, q in sorted(rep.charges.items())]
    h.update(f"{name} {kappa} {json.dumps(rep.to_json(), sort_keys=True)} {charges}\n".encode())
    for cond in CONDITION_ORDER:
        found = check_condition(g, p, kappa, cond)
        h.update(f"{cond.value} {[(w.vertices, w.detail) for w in found]}\n".encode())
    w = find_reducible_configuration(g, p, kappa)
    w = None if w is None else (w.condition.value, w.vertices, w.detail)
    h.update(f"witness {w}\n".encode())
    return set(rep.rule_firings)


def _discharge_audit_digest(slack: int) -> tuple[str, set]:
    """Digest over the corpus at kappa = max degree + slack, and the rules
    that fired."""
    h = hashlib.sha256()
    fired = set()
    for name, d in generate_corpus(CORPUS):
        fired |= _hash_discharge_audit(h, name, d, d.base.max_degree() + slack)
    return h.hexdigest(), fired


def test_discharge_and_audit_golden_at_default_palette():
    digest, _ = _discharge_audit_digest(16)
    assert digest == DISCHARGE_GOLDEN[16]


def test_discharge_and_audit_golden_at_slack_two():
    # at slack 2 the tight (degree 4) and high (degree 5+) rules fire on
    # the corpus; huge is degree 8+, above its max degree of 6
    digest, fired = _discharge_audit_digest(2)
    assert {"deg3-from-tight", "deg3-from-high"} <= fired
    assert digest == DISCHARGE_GOLDEN[2]


def test_discharge_and_audit_golden_on_fixtures():
    # the corpus has max degree <= 6, so the fractional 4- and 5-vertex
    # rules (1/4, 1/3, 1/6) fire only on these hand-built drawings
    h = hashlib.sha256()
    fired = set()
    for name, d in (("five", five_vertex_fixture()), ("heavy-four", heavy_four_vertex_fixture())):
        for slack in range(17):
            fired |= _hash_discharge_audit(h, name, d, d.base.max_degree() + slack)
    assert {"deg4-quarter", "deg4-third", "deg5-sixth"} <= fired
    assert h.hexdigest() == FIXTURE_GOLDEN


# -- the generator ----------------------------------------------------------------

# The inputs of the pipeline benchmark, copied here so that the digest
# does not move when the benchmark's own files do: the small-instance
# specs of its exact workload and its scaling grids, both at seed 1.
EXACT_SMALL = {"named": 32, "subdivided-quadrangulation": 32, "grid-with-crossings": 16}
EXACT_SEED0 = 1000 + 210 * 1
SCALING_SHAPES = (
    ("crossed-grid", 12, 12, 6),
    ("subdivided-grid", 12, 12, 40),
    ("crossed-grid", 16, 16, 8),
    ("subdivided-grid", 16, 16, 60),
    ("crossed-grid", 22, 23, 12),
    ("subdivided-grid", 20, 20, 100),
    ("crossed-grid", 28, 28, 15),
    ("subdivided-grid", 26, 26, 200),
    ("crossed-grid", 32, 32, 18),
)
GENERATOR_GOLDEN = "9dcfe91704046879411f5bebf40d048448ffadc470649979a10dd2bfa2fa5bfa"


def _exact_small_drawings():
    """The corpus drawings the exact workload takes (m <= 16 or n <= 8),
    a fixed number per family, searched spec by spec."""
    for family, quota in EXACT_SMALL.items():
        base, found = EXACT_SEED0, 0
        while found < quota:
            spec = CorpusSpec(count=quota, n_max=16, families=(family,), seed=base)
            for name, d in generate_corpus(spec):
                if (d.base.m <= 16 or d.base.n <= 8) and found < quota:
                    yield name, d
                    found += 1
            base += quota


def _scaling_drawings():
    """Grids with crossing chords or subdivided edges at edges drawn from
    a seeded shuffle of the grid's edges."""
    for i, (shape, rows, cols, extra) in enumerate(SCALING_SHAPES):
        rng = random.Random(f"scaling:1:{i}")
        b = grid_builder(rows, cols)
        candidates = sorted(b.edges)
        rng.shuffle(candidates)
        if shape == "subdivided-grid":
            for u, v in candidates[:extra]:
                b.subdivide(u, v)
        else:
            inserted = 0
            for a, c in candidates:
                if inserted == extra:
                    break
                if b.can_insert_crossing(a, c):
                    b.insert_crossing(a, c)
                    inserted += 1
        yield f"{shape}-{rows}x{cols}-{i}", b.to_drawing()


def test_generator_golden():
    h = hashlib.sha256()
    sources = (
        generate_corpus(CORPUS),
        generate_corpus(SPEC),
        _exact_small_drawings(),
        _scaling_drawings(),
    )
    for source in sources:
        for name, d in source:
            h.update(f"{name}\n{format_drawing(d)}".encode())
    assert h.hexdigest() == GENERATOR_GOLDEN
