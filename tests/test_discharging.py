import re
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acecolor.conditions import DEG5_BIG, HEAVY, Condition, check_condition, thresholds
from acecolor.discharging import (
    FLOOR_SLACK,
    _blame,
    RULES,
    SCALE,
    Transfer,
    apply_rules,
    audit_final_charges,
    compute_transfers,
    discharge,
    element_hypothesis_failures,
    initial_charges,
)
from acecolor.embedding import planarize
from acecolor.errors import EmbeddingError
from acecolor.generate import CorpusSpec, cycle_builder, generate_corpus, generate_instance, grid_builder

from fixtures import five_vertex_fixture, heavy_four_vertex_fixture, pendant_cycle_fixture, two_vertex_on_three_face


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
    three = [i for i, f in enumerate(p.faces) if len(f) == 3]
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
    three = [i for i, f in enumerate(p.faces) if len(f) == 3]
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
    assert sorted(g.degree(u) >= 8 for u in g.adj[0]).count(True) == 3
    assert sum(1 for i in p.faces_at(0) if len(p.faces[i]) == 3) == 3
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
    led1 = apply_rules(led0, p, d.base)
    assert led0.total() == led1.total() == -8 * SCALE
    assert led1.charges.keys() == led0.charges.keys()
    assert discharge(p, d.base).conserved


def test_conservation_detects_fabricated_transfer():
    d = grid_builder(3, 3).to_drawing()
    p, g = planarize(d), d.base
    kappa = g.delta + FLOOR_SLACK
    led = apply_rules(initial_charges(p), p, g, kappa)
    assert audit_final_charges(led, p, g, kappa).conserved is True
    forged = led.copy()
    forged.charges[("v", 0)] += SCALE // 2  # one-sided transfer of 1/2
    forged.transfers.append(Transfer(RULES[0].name, ("v", 1), ("v", 0), SCALE // 2))
    assert audit_final_charges(forged, p, g, kappa).conserved is False


def test_audit_refuses_a_transfer_of_an_unknown_rule():
    d = grid_builder(3, 3).to_drawing()
    p, g = planarize(d), d.base
    kappa = g.delta + FLOOR_SLACK
    forged = apply_rules(initial_charges(p), p, g, kappa)
    forged.transfers.append(Transfer("forged", ("v", 1), ("v", 4), 6))
    with pytest.raises(ValueError, match="unknown rule 'forged'"):
        audit_final_charges(forged, p, g, kappa)


def test_crossing_vertices_end_at_exactly_zero():
    for seed in range(6):
        d = generate_instance("grid-with-crossings", seed)
        p = planarize(d)
        rep = discharge(p, d.base)
        for x in range(p.n_real, p.n):
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
    rep = discharge(p, g, kappa)  # slack 16: the audit runs from its floor up only
    assert rep.charges == {e: Fraction(q, SCALE) for e, q in led.charges.items()}
    assert rep.total == Fraction(led.total(), SCALE) == -8
    for ne in rep.negative_elements:
        assert ne.charge == Fraction(led.charges[ne.element], SCALE) < 0


def test_discharge_refuses_palette_below_max_degree():
    # below max degree + 16 the audit's argument does not close: the rules
    # still run from max degree up, but the pipeline, the audit and the
    # one-element blame refuse, naming the floor
    d = generate_instance("grid-with-crossings", 3)
    p = planarize(d)
    g = d.base
    floor = g.max_degree() + 16
    for kappa in (0, 1, g.max_degree() - 1, g.max_degree(), floor - 1):
        message = f"palette {kappa} below max degree \\+ 16 = {floor}"
        with pytest.raises(ValueError, match=message):
            discharge(p, g, kappa)
        if kappa < g.max_degree():
            continue
        led = apply_rules(initial_charges(p), p, g, kappa)
        assert led.total() == -8 * SCALE
        with pytest.raises(ValueError, match=message):
            audit_final_charges(led, p, g, kappa)
        with pytest.raises(ValueError, match=message):
            element_hypothesis_failures(p, g, kappa, ("v", 0))
    assert discharge(p, g, floor).total == -8


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


# -- the rule table and the floor ------------------------------------------------


def test_transfers_read_names_and_amounts_from_the_rule_table():
    # every firing carries its rule's amount, and each of the eight rules
    # fires somewhere: on the corpus at slack 2 and 16, or on the fixtures
    table = {rule.name: rule.amount for rule in RULES}
    assert len(table) == 8
    corpus = [d for _, d in generate_corpus(CorpusSpec(count=60, seed=1000))]
    fixtures = [five_vertex_fixture(), heavy_four_vertex_fixture()]
    runs = [(d, s) for d in corpus for s in (2, 16)] + [(d, s) for d in fixtures for s in range(17)]
    fired = set()
    for d, slack in runs:
        p, g = planarize(d), d.base
        for t in compute_transfers(p, g, g.max_degree() + slack):
            assert t.amount == table[t.rule]
            fired.add(t.rule)
    assert fired == set(table)


def _worst_sender_charges(slack: int) -> tuple[int, int]:
    """The least final charge, in twelfths, of a high (not huge) and of a
    huge sender, with only the bounds the audit checks: at most
    floor(2d/3) 3-faces (triangle-face-budget) and, at a high sender, two
    neighbors of degree 4 or more (two-deg4-neighbors), the other d - 2
    being 3-vertices."""
    g = five_vertex_fixture().base
    t = thresholds(g, g.max_degree() + slack)
    amount = {rule.name: rule.amount for rule in RULES}
    face = amount["triface-from-real"]
    to_three = amount["deg3-from-high"]
    to_four_or_five = max(amount["deg4-quarter"], amount["deg5-sixth"])
    to_any = max(to_three, to_four_or_five, amount["deg4-third"])
    high = min(
        (d - 4) * SCALE - (d - 2) * to_three - 2 * to_four_or_five - (2 * d // 3) * face
        for d in range(t.high, t.huge)
    )
    huge = min(
        (d - 4) * SCALE - d * to_any - (2 * d // 3) * face for d in range(t.huge, 3 * t.huge)
    )
    return high, huge


def test_the_floor_is_where_high_and_huge_senders_close():
    # the audit's floor is the paper's +16: a change to an amount or a
    # threshold that moves the least closing slack fails here
    assert FLOOR_SLACK == 16
    assert _worst_sender_charges(15) == (-SCALE // 2, -SCALE // 2)
    for slack in (16, 17, 18):
        assert _worst_sender_charges(slack) == (0, 0)
    assert all(min(_worst_sender_charges(slack)) >= 0 for slack in range(16, 40))


# -- sound blame from the floor up ------------------------------------------------


@cache
def _corpus_drawings():
    return [d for _, d in generate_corpus(CorpusSpec(count=210, seed=1000))]


@st.composite
def _grids(draw):
    """A grid with some distinct edges subdivided, then crossing chords
    inserted over drawn edges where the builder allows one."""
    b = grid_builder(draw(st.integers(2, 6)), draw(st.integers(3, 6)))
    for u, v in draw(st.lists(st.sampled_from(sorted(b.edges)), max_size=6, unique=True)):
        b.subdivide(u, v)
    for a, c in draw(st.lists(st.sampled_from(sorted(b.edges)), max_size=6)):
        if b.can_insert_crossing(a, c):
            b.insert_crossing(a, c)
    return b.to_drawing()


_DRAWINGS = st.one_of(
    st.integers(0, 209).map(lambda i: _corpus_drawings()[i]),
    st.sampled_from([five_vertex_fixture, heavy_four_vertex_fixture, pendant_cycle_fixture]).map(
        lambda make: make()
    ),
    _grids(),
)


@settings(max_examples=150, deadline=None)
@given(_DRAWINGS, st.integers(16, 24))
def test_blame_is_sound_from_the_floor_up(d, slack):
    # no negative element is unblamed, the one-element blame agrees with
    # the audit's, and the total is -8
    p, g = planarize(d), d.base
    kappa = g.max_degree() + slack
    rep = discharge(p, g, kappa)
    assert rep.total == -8 and rep.conserved
    assert rep.negative_elements
    for ne in rep.negative_elements:
        assert ne.violated, ne.element
        assert element_hypothesis_failures(p, g, kappa, ne.element) == list(ne.violated)


def test_one_element_blame_equals_the_blame_from_the_full_ledger():
    # on every element of the acceptance corpus, and of a drawing whose
    # 3-face blame fires, the one-element blame is the one the full ledger
    # gives
    face_blamed = 0
    for d in _corpus_drawings() + [two_vertex_on_three_face()]:
        p, g = planarize(d), d.base
        kappa = g.max_degree() + FLOOR_SLACK
        full = compute_transfers(p, g, kappa)
        elems = [("v", v) for v in range(p.n)] + [("f", i) for i in range(len(p.faces))]
        for elem in elems:
            blame = _blame(p, g, kappa, full, [elem])[0]
            assert element_hypothesis_failures(p, g, kappa, elem) == blame, elem
            face_blamed += any(v.hypothesis == Condition.DEG2_FACE_SIZES.value for v in blame)
    assert face_blamed


def test_one_element_blame_errors():
    p = planarize(grid_builder(3, 3).to_drawing())
    g = p.base
    kappa = g.max_degree() + 16
    bad = [("v", -1), ("v", p.n), ("v", 10**6), ("f", -1), ("f", len(p.faces)), ("q", 0)]
    for elem in bad:
        with pytest.raises(ValueError, match=f"element {re.escape(repr(elem))} is not"):
            element_hypothesis_failures(p, g, kappa, elem)
    assert element_hypothesis_failures(p, g, kappa, ("f", len(p.faces) - 1)) == []
