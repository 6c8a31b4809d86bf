from fractions import Fraction

import pytest

from acecolor.conditions import DEG5_BIG, HEAVY, Condition, check_condition, thresholds
from acecolor.discharging import (
    SCALE,
    ChargeLedger,
    Transfer,
    Violation,
    apply_rules,
    compute_transfers,
    conservation_check,
    discharge,
    element_hypothesis_failures,
    initial_charges,
)
from acecolor.embedding import planarize
from acecolor.errors import EmbeddingError
from acecolor.generate import CorpusSpec, cycle_builder, generate_corpus, generate_instance, grid_builder

from fixtures import five_vertex_fixture, heavy_four_vertex_fixture, pendant_cycle_fixture


def test_initial_charges_basics():
    b = grid_builder(3, 4)
    w = b.subdivide(5, 6)
    d = b.to_drawing()
    p = planarize(d)
    led = initial_charges(p)  # the ledger counts twelfths
    assert led.charges[("v", w)] == -2 * SCALE  # 2-vertex
    assert led.total() == -8 * SCALE
    # crossing vertex carries 0
    b = grid_builder(3, 4)
    x = b.insert_crossing(5, 6)
    p = planarize(b.to_drawing())
    led = initial_charges(p)
    assert led.charges[("v", x)] == 0
    three = [i for i, f in enumerate(p.faces) if f.degree == 3]
    assert all(led.charges[("f", i)] == -1 * SCALE for i in three)


def test_initial_charges_c4():
    p = planarize(cycle_builder(4).to_drawing())
    led = initial_charges(p)
    assert led.total() == -8 * SCALE
    assert all(led.charges[("v", v)] == -2 * SCALE for v in range(4))


def test_initial_charges_rejects_disconnected():
    from acecolor.embedding import Drawing
    from acecolor.graph import Graph

    base = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    rot = {v: [(v - 1) % 4 if v % 4 == 0 else v - 1, (v + 1) if v % 4 != 3 else v - 3] for v in range(8)}
    rot = {
        0: [1, 3], 1: [2, 0], 2: [3, 1], 3: [0, 2],
        4: [5, 7], 5: [6, 4], 6: [7, 5], 7: [4, 6],
    }
    p = planarize(Drawing(base, [], rot))
    with pytest.raises(EmbeddingError):
        initial_charges(p)


def test_worked_computation_two_vertex():
    # a 2-vertex with both supports of degree >= 3 ends at exactly zero:
    # -2 initial, +1 from each neighbor, pays nothing
    b = grid_builder(3, 4)
    w = b.subdivide(5, 6)
    d = b.to_drawing()
    p = planarize(d)
    led = apply_rules(initial_charges(p), p, d.base)
    assert led.charges[("v", w)] == 0
    incoming = [t for t in led.transfers if t.target == ("v", w)]
    assert [t.amount for t in incoming] == [SCALE, SCALE]  # 1 and 1
    assert all(t.rule == "deg2-from-neighbors" for t in incoming)
    assert not [t for t in led.transfers if t.source == ("v", w)]


def test_worked_computation_three_face():
    # a 3-face from a crossing insertion: one crossing + two real
    # vertices, receives exactly 2 x 1/2: -1 + 1 = 0
    b = grid_builder(4, 4)
    b.insert_crossing(5, 6)
    d = b.to_drawing()
    p = planarize(d)
    led = apply_rules(initial_charges(p), p, d.base)
    three = [i for i, f in enumerate(p.faces) if f.degree == 3]
    assert three
    for i in three:
        assert led.charges[("f", i)] == 0
        incoming = [t for t in led.transfers if t.target == ("f", i)]
        assert [t.amount for t in incoming] == [SCALE // 2, SCALE // 2]  # 1/2 and 1/2
        assert all(t.rule == "triface-from-real" for t in incoming)


def test_worked_computation_five_vertex():
    # 5-vertex with exactly three 8+ neighbors and three 3-faces:
    # 5 - 4 + 3*(1/6) - 3*(1/2) = 0, bit-exact
    d = five_vertex_fixture()
    p = planarize(d)
    g = d.base
    assert g.degree(0) == 5
    assert sorted(g.degree(u) >= 8 for u in g.neighbors(0)).count(True) == 3
    assert sum(1 for i in p.faces_at(0) if p.faces[i].degree == 3) == 3
    led = apply_rules(initial_charges(p), p, g)
    assert led.charges[("v", 0)] == 0
    incoming = [t for t in led.transfers if t.target == ("v", 0)]
    outgoing = [t for t in led.transfers if t.source == ("v", 0)]
    assert [t.amount for t in incoming] == [SCALE // 6] * 3  # 1/6
    assert [t.amount for t in outgoing] == [SCALE // 2] * 3  # 1/2
    assert {t.rule for t in incoming} == {"deg5-sixth"}
    assert {t.rule for t in outgoing} == {"triface-from-real"}


def test_conservation_on_fresh_and_applied_ledgers():
    b = grid_builder(3, 5)
    b.insert_crossing(6, 7)
    d = b.to_drawing()
    p = planarize(d)
    led0 = initial_charges(p)
    assert conservation_check(led0, led0)
    led1 = apply_rules(led0, p, d.base)
    assert conservation_check(led0, led1)
    assert led1.total() == -8 * SCALE


def test_conservation_detects_fabricated_transfer():
    p = planarize(grid_builder(3, 3).to_drawing())
    led0 = initial_charges(p)
    forged = led0.copy()
    forged.charges[("v", 0)] += SCALE // 2  # one-sided transfer of 1/2
    forged.transfers.append(
        Transfer("forged", ("v", 1), ("v", 0), SCALE // 2)
    )
    assert not conservation_check(led0, forged)
    with pytest.raises(ValueError):
        other = ChargeLedger({("v", 99): 0})
        conservation_check(led0, other)


def test_crossing_vertices_end_at_exactly_zero():
    for seed in range(6):
        d = generate_instance("grid-with-crossings", seed)
        p = planarize(d)
        rep = discharge(p, d.base)
        for x in range(p.n_real, p.graph.n):
            assert rep.charges[("v", x)] == Fraction(0)


def test_corpus_conservation_and_blame():
    for fam in ("subdivided-quadrangulation", "grid-with-crossings", "named"):
        for seed in range(5):
            d = generate_instance(fam, seed)
            p = planarize(d)
            g = d.base
            kappa = g.max_degree() + 16
            rep = discharge(p, g, kappa)
            assert rep.total == Fraction(-8)
            assert rep.conserved
            assert rep.negative_elements
            for ne in rep.negative_elements:
                assert ne.violated, (fam, seed, ne.element)


def test_hypothesis_soundness_elementwise():
    # all attached hypotheses hold => final charge >= 0, element by element
    for fam in ("subdivided-quadrangulation", "grid-with-crossings", "named"):
        for seed in range(5):
            d = generate_instance(fam, seed)
            p = planarize(d)
            g = d.base
            kappa = g.max_degree() + 16
            led = apply_rules(initial_charges(p), p, g, kappa)
            for elem, charge in led.charges.items():
                if not element_hypothesis_failures(p, g, kappa, elem):
                    assert charge >= 0, (fam, seed, elem, charge)


def test_three_vertex_blamed_when_next_to_light_vertex():
    # 3-vertices adjacent to small-degree vertices violate the 3-vertex
    # neighbor condition and may carry negative charge; the audit says so
    p = planarize(grid_builder(3, 3).to_drawing())
    g = p.base
    kappa = g.max_degree() + 16
    rep = discharge(p, g, kappa)
    negative_threes = [
        ne for ne in rep.negative_elements
        if ne.element[0] == "v" and g.degree(ne.element[1]) == 3
    ]
    assert negative_threes
    for ne in negative_threes:
        assert any(v.hypothesis == "deg3-big-neighbors" for v in ne.violated)


def test_report_serialization():
    b = grid_builder(3, 4)
    b.insert_crossing(5, 6)
    d = b.to_drawing()
    p = planarize(d)
    rep = discharge(p, d.base)
    text = rep.to_text()
    assert "total=-8/1" in text
    assert "conserved=yes" in text
    doc = rep.to_json()
    assert doc["total"] == "-8/1"
    assert doc["conserved"] is True
    assert all("/" in row["charge"] for row in doc["negative_elements"])
    led = apply_rules(initial_charges(p), p, d.base)
    assert sum(doc["rule_firings"].values()) == len(led.transfers)


def test_ledger_counts_integer_twelfths():
    # every charge and amount is an int; the report holds the same values
    # as exact fractions
    d = five_vertex_fixture()
    p = planarize(d)
    g = d.base
    for slack in (0, 16):
        kappa = g.max_degree() + slack
        led = apply_rules(initial_charges(p), p, g, kappa)
        assert all(type(q) is int for q in led.charges.values())
        assert all(type(t.amount) is int and t.amount > 0 for t in led.transfers)
        rep = discharge(p, g, kappa)
        assert rep.charges == {e: Fraction(q, SCALE) for e, q in led.charges.items()}
        assert rep.total == Fraction(led.total(), SCALE) == -8
        for ne in rep.negative_elements:
            assert ne.charge == Fraction(led.charges[ne.element], SCALE) < 0


def test_discharge_refuses_palette_below_max_degree():
    d = generate_instance("grid-with-crossings", 3)
    p = planarize(d)
    g = d.base
    for kappa in (0, 1, g.max_degree() - 1):
        with pytest.raises(ValueError, match="below max degree"):
            discharge(p, g, kappa)
    assert discharge(p, g, g.max_degree()).total == -8


def test_threshold_table_holds_the_paper_constants_at_default_slack():
    g = five_vertex_fixture().base
    t = thresholds(g, g.max_degree() + 16)
    assert (t.slack, t.tight, t.high, t.deg2_big, t.huge) == (16, 18, 19, 20, 22)
    assert (HEAVY, DEG5_BIG) == (10, 8)


def test_deg4_rules_fire_exactly_where_the_neighbor_profile_holds():
    # the deg4-* rules and DEG4_NEIGHBOR_PROFILE read one threshold table,
    # so at every palette a 4-vertex takes charge from a deg4 rule iff the
    # condition finds no witness at it
    drawings = [d for _, d in generate_corpus(CorpusSpec(count=210, seed=1000))]
    drawings += [five_vertex_fixture(), heavy_four_vertex_fixture()]
    for i, d in enumerate(drawings):
        p = planarize(d)
        g = d.base
        fours = {v for v in range(g.n) if g.degree(v) == 4}
        for slack in range(21):
            kappa = g.max_degree() + slack
            fed = {t.target[1] for t in compute_transfers(p, g, kappa) if t.rule.startswith("deg4-")}
            found = check_condition(g, p, kappa, Condition.DEG4_NEIGHBOR_PROFILE)
            assert fed == fours - {w.vertices[0] for w in found}, (i, slack)


def test_pendant_vertex_is_blamed_on_min_degree():
    # a degree-1 vertex ends negative; its hypothesis is min degree 2
    d = pendant_cycle_fixture()
    p = planarize(d)
    g = d.base
    kappa = g.max_degree() + 16
    rep = discharge(p, g, kappa)
    negative = {ne.element: ne for ne in rep.negative_elements}
    assert negative[("v", 4)].charge < 0
    assert [v.hypothesis for v in negative[("v", 4)].violated] == ["min-degree-2connected"]
    assert element_hypothesis_failures(p, g, kappa, ("v", 4)) == list(negative[("v", 4)].violated)
    assert all(ne.violated for ne in rep.negative_elements)


# -- the batched blame against a per-element copy of the ladder --------------------


def _old_face_profile_deg3(p, v):
    faces = [p.faces[i].degree for i in p.faces_at(v)]
    three = sum(1 for d in faces if d == 3)
    if three >= 2 and not any(d >= 5 for d in faces):
        return Violation(
            "deg3-face-profile",
            f"3-vertex {v} has incident face degrees {sorted(faces)}: two "
            "3-faces but no 5+ face",
        )
    return None


def _old_face_no_consecutive_deg3(p, g, fi):
    walk = p.faces[fi].vertices
    d = len(walk)
    for i in range(d):
        a, b = walk[i], walk[(i + 1) % d]
        if a < p.n_real and b < p.n_real and g.degree(a) == 3 and g.degree(b) == 3:
            return Violation(
                "no-consecutive-deg3",
                f"face {fi} has consecutive 3-vertices {a}, {b} on its boundary",
            )
    return None


def _per_element_blame(p, g, kappa, elem):
    """The blame ladder of one element, one scoped check_condition call
    per rung: the audit's blame before it was batched."""
    kind, idx = elem
    out = []
    if kind == "f":
        if p.faces[idx].degree >= 5:
            v = _old_face_no_consecutive_deg3(p, g, idx)
            if v:
                out.append(v)
        return out
    v = idx
    if p.is_crossing(v):
        return []
    d = g.degree(v)
    deg2_neighbors = [u for u in g.adj[v] if g.degree(u) == 2]

    def cond(c, at=None):
        found = check_condition(g, p, kappa, c, vertices=(v,) if at is None else at)
        out.extend(Violation(c.value, w.detail) for w in found)

    if d < 2:
        cond(Condition.MIN_DEGREE_2CONNECTED)
    elif d == 2:
        cond(Condition.DEG2_BIG_NEIGHBORS)
        cond(Condition.DEG2_FACE_SIZES)
    elif d == 3:
        cond(Condition.DEG3_BIG_NEIGHBORS)
        cond(Condition.TRIANGLE_FACE_BUDGET)
        prof = _old_face_profile_deg3(p, v)
        if prof:
            out.append(prof)
    elif 4 <= d < HEAVY:
        if d == 4:
            cond(Condition.DEG4_NEIGHBOR_PROFILE)
        elif d == 5:
            cond(Condition.DEG5_NEIGHBOR_PROFILE)
        cond(Condition.TRIANGLE_FACE_BUDGET)
        if deg2_neighbors:
            cond(Condition.DEG2_BIG_NEIGHBORS, at=tuple(deg2_neighbors))
    else:
        cond(Condition.TRIANGLE_FACE_BUDGET)
        if deg2_neighbors:
            cond(Condition.HEAVY_DEG2_SUPPORT)
        else:
            t = thresholds(g, kappa)
            if d == t.tight:
                cond(Condition.TIGHT_VERTEX_SMALL_NEIGHBOR)
            elif t.high <= d < t.huge:
                cond(Condition.TWO_DEG4_NEIGHBORS)
    return out


def test_batched_blame_matches_the_per_element_ladder():
    # every negative element gets the violations the per-element ladder
    # gives it, at every slack: the unblamed elements of small slacks
    # included, whose count this test does not pin
    drawings = [d for _, d in generate_corpus(CorpusSpec(count=210, seed=1000))]
    fixtures = [five_vertex_fixture(), heavy_four_vertex_fixture(), pendant_cycle_fixture()]
    blamed = 0
    for i, d in enumerate(drawings + fixtures):
        p = planarize(d)
        g = d.base
        for slack in range(17):
            kappa = g.max_degree() + slack
            rep = discharge(p, g, kappa)
            for ne in rep.negative_elements:
                assert ne.violated == tuple(_per_element_blame(p, g, kappa, ne.element)), (
                    i, slack, ne.element,
                )
                blamed += bool(ne.violated)
            if i >= len(drawings):  # the one-element entry point, on every element
                for elem in rep.charges:
                    assert element_hypothesis_failures(p, g, kappa, elem) == (
                        _per_element_blame(p, g, kappa, elem)
                    ), (i, slack, elem)
    assert blamed


def test_one_element_blame_errors():
    p = planarize(grid_builder(3, 3).to_drawing())
    g = p.base
    kappa = g.max_degree() + 16
    with pytest.raises(ValueError, match="outside"):
        element_hypothesis_failures(p, g, kappa, ("v", -1))
    with pytest.raises(IndexError):
        element_hypothesis_failures(p, g, kappa, ("f", len(p.faces)))
    assert element_hypothesis_failures(p, g, kappa, ("v", p.graph.n)) == []
