"""Golden outputs, pinned before refactors.

Heuristic colorer, on the tight-palette set of the pipeline benchmark,
``CorpusSpec(count=90, n_max=20, seed=1000)``: every instance is colored
at kappa = max degree and, on a miss, at max degree + 1.

- Over the whole set the budgeted search on the peeling order decides
  every palette. The hash covers each coloring, its (always empty) moves
  and the rooted searches used.
- Over the acceptance corpus at max degree + 16 and + 1, the search's
  coloring is the greedy one wherever greedy needs no repair.

Discharging and the structural conditions: over the 210-drawing
acceptance corpus, ``CorpusSpec(count=210, seed=1000)``, at the default
palette and at max degree + 2, and over two hand-built drawings at every
slack from 0 to 16, the hash covers each condition's witnesses, the
reducible witness and, from the audit's floor (max degree + 16) up, each
discharge report (its JSON and every final charge); below the floor,
where the audit refuses, the ledger of the rules (every firing and every
final charge) instead.

The generator: the serialized drawings of the acceptance corpus, the
tight-palette set, and the exact and scaling inputs of the pipeline
benchmark at seed 1.

The faces: the boundary vertex sequence of every face of the plane graph,
in face order, over the acceptance corpus, the tight-palette set and the
scaling inputs.
"""

import hashlib
import json
import random

from acecolor import solver
from acecolor.coloring import EdgeColoring
from acecolor.conditions import CONDITION_ORDER, check_condition, find_reducible_configuration
from acecolor.discharging import FLOOR_SLACK, apply_rules, discharge, initial_charges
from acecolor.embedding import format_drawing, planarize
from acecolor.generate import CorpusSpec, generate_corpus, generate_instance, grid_builder
from acecolor.solver import heuristic_color

from fixtures import five_vertex_fixture, heavy_four_vertex_fixture

SPEC = CorpusSpec(count=90, n_max=20, seed=1000)
TIGHT_GOLDEN = "f135ca9f47984b8d1bd6fbcbe350f0912e7d0e4e01071cce0b2ab2bc35096aae"
CORPUS = CorpusSpec(count=210, seed=1000)


def _tight_outputs():
    for i in range(SPEC.count):
        family = SPEC.families[i % len(SPEC.families)]
        g = generate_instance(family, SPEC.seed + i, SPEC.n_min, SPEC.n_max).base
        for kappa in (g.max_degree(), g.max_degree() + 1):
            out = heuristic_color(g, kappa)
            yield i, kappa, out
            if out is not None:
                break


def test_heuristic_golden_outputs_on_tight_set():
    # the search on the peeling order colors or refutes every palette
    # within its budget; the 18 misses at max degree are the 17 palettes
    # the lower bound rules out and one the search refutes
    h = hashlib.sha256()
    misses = 0
    for i, kappa, out in _tight_outputs():
        if out is None:
            misses += 1
            h.update(f"{i} {kappa} miss\n".encode())
            continue
        colors = sorted(out.coloring.colored_edges().items())
        h.update(f"{i} {kappa} {colors} {out.moves} {out.restarts_used}\n".encode())
    assert misses == 18
    assert h.hexdigest() == TIGHT_GOLDEN


def _greedy_coloring(g, kappa):
    """Each edge in coloring order takes its lowest valid color; None if
    some edge has none."""
    col = EdgeColoring(g, kappa)
    for e in reversed(solver.edge_insertion_order(g)):
        valid = col.valid_colors(e)
        if not valid:
            return None
        col.assign(e, min(valid))
    return col


def test_search_coloring_is_greedy_coloring_where_no_repair_is_needed():
    # greedy needs no repair on any corpus drawing at these palettes
    for name, d in generate_corpus(CORPUS):
        g = d.base
        for kappa in (g.max_degree() + 16, g.max_degree() + 1):
            greedy = _greedy_coloring(g, kappa)
            assert greedy is not None, (name, kappa)
            out = heuristic_color(g, kappa)
            colors_used = len(set(greedy.colored_edges().values()))
            assert (out.moves, out.restarts_used, out.colors_used) == ([], 0, colors_used)
            assert out.coloring.colored_edges() == greedy.colored_edges(), (name, kappa)


# -- discharging and the structural conditions on the acceptance corpus ---------

DISCHARGE_GOLDEN = {
    16: "559c781bc842a0e867320b7026f7198d8f0aaa04bcb59986c1c047fc22531e90",
    2: "df6082ccccde6af4e79f9b4ac2760ed6442457e90224475cf843cc9e11be8f3c",
}
FIXTURE_GOLDEN = "5d771f42288918962e11cd600fa7c2eb7dab319fe86ba6508fd3086f40a444b1"


def _hash_discharge_audit(h, name: str, d, kappa: int) -> set:
    """Feed h the discharge report (JSON plus every final charge), or below
    the audit's floor the rules' ledger, then each condition's witness
    list and the reducible witness of one drawing at palette kappa.
    Returns the rules that fired."""
    g = d.base
    p = planarize(d)
    if kappa >= g.max_degree() + FLOOR_SLACK:
        rep = discharge(p, g, kappa)
        charges = [(e, f"{q.numerator}/{q.denominator}") for e, q in sorted(rep.charges.items())]
        h.update(f"{name} {kappa} {json.dumps(rep.to_json(), sort_keys=True)} {charges}\n".encode())
        fired = set(rep.rule_firings)
    else:
        led = apply_rules(initial_charges(p), p, g, kappa)
        h.update(f"{name} {kappa} {led.transfers} {sorted(led.charges.items())}\n".encode())
        fired = {t.rule for t in led.transfers}
    for cond in CONDITION_ORDER:
        found = check_condition(g, p, kappa, cond)
        h.update(f"{cond.value} {[(w.vertices, w.detail) for w in found]}\n".encode())
    w = find_reducible_configuration(g, p, kappa)
    w = None if w is None else (w.condition.value, w.vertices, w.detail)
    h.update(f"witness {w}\n".encode())
    return fired


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


FACE_GOLDEN = "8ced6a264a0331964eb2f93e6234a01d2303d4c40e0688e396a16039761a68b4"


def test_face_golden():
    h = hashlib.sha256()
    for source in (generate_corpus(CORPUS), generate_corpus(SPEC), _scaling_drawings()):
        for name, d in source:
            h.update(f"{name} {list(planarize(d).faces)}\n".encode())
    assert h.hexdigest() == FACE_GOLDEN
