"""Discharging on the plane graph of a triangle-free 1-planar drawing.

Every vertex and face of the planarized drawing starts with charge
deg - 4; the total is exactly -8 on a connected drawing with an edge.
The discharging takes those with two edges or more, as the one face of
K2 has degree 2. Eight local rules then move charge toward the light
elements (2-, 3-, 4-, 5-vertices and 3-faces). Rules read only the input
structure, so they commute and conserve the total.

Every amount is a multiple of 1/12, so the ledger counts charge in
integer twelfths (``SCALE``); the report converts to ``Fraction`` once.
Vertex-to-vertex rules follow adjacency in the *base* graph; crossing
vertices neither send nor receive (they hold charge 0). Face rules count
incidences per boundary-walk slot: a face is the tuple of its boundary
vertices in walk order, with multiplicity.

The ``RULES`` table declares each rule once: its name, its amount and the
hypotheses that bound a sender's outflow under it; ``NEEDS`` declares
what each receiver class needs. Degree thresholds come from the table of
``conditions`` (``Thresholds``, ``HEAVY``, ``DEG5_BIG``).

The audit blames each negative element on the violated hypotheses among
its class's need and the sender hypotheses of each rule it fired, read
from the ledger; if all hold, the element ends non-negative. Each
condition the blame reads runs once per drawing, over the whole drawing,
and an element takes the witnesses that bind its own vertex (or its
2-vertex receivers) first. With only
the bounds these hypotheses give (at most floor(2d/3) 3-faces at a
d-vertex, at most one 3-neighbor at a tight sender, two neighbors of
degree 4 or more at a high one), every sender class ends >= 0 from the
palette max degree + 16 (``FLOOR_SLACK``, the paper's constant) on, but
at slack 15 a high sender of degree 18 and a huge one of degree 21 can
end at -1/2. So the audit refuses a smaller palette; the rules run at
every palette.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .conditions import DEG5_BIG, HEAVY, Condition, ConditionWitness, check_condition, thresholds
from .embedding import PlaneGraph
from .errors import EmbeddingError
from .graph import Graph
from .solver import DEFAULT_SLACK

Element = tuple[str, int]  # ("v", vertex id) or ("f", face index)

SCALE = 12  # ledger charges and transfer amounts are integer twelfths
FLOOR_SLACK = DEFAULT_SLACK  # the audit needs palette >= max degree + this

# audit-only face-profile hypotheses, alongside the Condition values
HYP_DEG3_FACE_PROFILE = "deg3-face-profile"
HYP_NO_CONSECUTIVE_DEG3 = "no-consecutive-deg3"
Hypothesis = Condition | str

# Where a sender hypothesis is checked: at the sender, at a heavy sender, or
# at each 2-vertex receiver of a light sender (degree 4 to HEAVY - 1; a 2-
# or 3-vertex sender of deg2-from-neighbors fails its own need instead).
SENDER, HEAVY_SENDER, LIGHT_RECEIVERS = "sender", "heavy sender", "light sender's receivers"


class Rule(NamedTuple):
    name: str
    amount: int  # twelfths
    bounds: tuple[tuple[Hypothesis, str], ...] = ()  # what bounds a sender's outflow, and where


# The eight rules (amounts in twelfths), in the order the audit reports their hypotheses.
RULES: tuple[Rule, ...] = (
    Rule("triface-from-real", 6, (
        (Condition.DEG2_FACE_SIZES, SENDER),
        (Condition.TRIANGLE_FACE_BUDGET, SENDER),
        (HYP_DEG3_FACE_PROFILE, SENDER),
    )),
    Rule("deg3-from-bigface", 6, ((HYP_NO_CONSECUTIVE_DEG3, SENDER),)),
    Rule("deg2-from-neighbors", 12, (
        (Condition.HEAVY_DEG2_SUPPORT, HEAVY_SENDER),
        (Condition.DEG2_BIG_NEIGHBORS, LIGHT_RECEIVERS),
    )),
    Rule("deg3-from-tight", 18, ((Condition.TIGHT_VERTEX_SMALL_NEIGHBOR, SENDER),)),
    Rule("deg3-from-high", 6, ((Condition.TWO_DEG4_NEIGHBORS, SENDER),)),
    Rule("deg4-quarter", 3),
    Rule("deg4-third", 4),
    Rule("deg5-sixth", 2),
)
TRIFACE, BIGFACE, DEG2, DEG3_TIGHT, DEG3_HIGH, DEG4_QUARTER, DEG4_THIRD, DEG5_SIXTH = RULES
_RANK = {rule.name: i for i, rule in enumerate(RULES)}

# What a vertex receiver needs to end non-negative, by degree, checked at
# itself; a vertex of degree 6 or more, a crossing or a face needs nothing.
NEEDS: tuple[Condition, ...] = (Condition.MIN_DEGREE_2CONNECTED,) * 2 + (
    Condition.DEG2_BIG_NEIGHBORS, Condition.DEG3_BIG_NEIGHBORS,
    Condition.DEG4_NEIGHBOR_PROFILE, Condition.DEG5_NEIGHBOR_PROFILE,
)


class Transfer(NamedTuple):
    rule: str
    source: Element
    target: Element
    amount: int  # twelfths


@dataclass
class ChargeLedger:
    charges: dict[Element, int]  # twelfths
    transfers: list[Transfer] = field(default_factory=list)

    def total(self) -> int:
        return sum(self.charges.values())

    def copy(self) -> "ChargeLedger":
        return ChargeLedger(dict(self.charges), list(self.transfers))


class Violation(NamedTuple):
    """A hypothesis an element's blame found violated. ``wording`` is a
    module-level function followed by the values its text reads: a
    condition's violation takes over the wording of its witness, and the
    two face-profile hypotheses word theirs here. ``detail`` calls it, so
    the text is built only when read. Two violations of one drawing
    compare equal exactly when their hypothesis and text agree."""

    hypothesis: str
    wording: tuple

    detail = ConditionWitness.detail


class NegativeElement(NamedTuple):
    element: Element
    charge: Fraction
    violated: tuple[Violation, ...]


@dataclass
class DischargeReport:
    total: Fraction
    conserved: bool
    rule_firings: dict[str, int]
    negative_elements: list[NegativeElement]
    charges: dict[Element, Fraction]

    def to_text(self) -> str:
        lines = [f"total={_frac(self.total)} conserved={'yes' if self.conserved else 'no'}"]
        for rule in sorted(self.rule_firings):
            lines.append(f"rule.{rule}={self.rule_firings[rule]}")
        lines.append(f"negative={len(self.negative_elements)}")
        for ne in self.negative_elements:
            kind, idx = ne.element
            hyps = ",".join(v.hypothesis for v in ne.violated) or "-"
            lines.append(f"elem={kind}:{idx} charge={_frac(ne.charge)} violated={hyps}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "total": _frac(self.total),
            "conserved": self.conserved,
            "rule_firings": dict(sorted(self.rule_firings.items())),
            "negative_elements": [
                {
                    "element": f"{ne.element[0]}:{ne.element[1]}",
                    "charge": _frac(ne.charge),
                    "violated": [
                        {"hypothesis": v.hypothesis, "detail": v.detail}
                        for v in ne.violated
                    ],
                }
                for ne in self.negative_elements
            ],
        }


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def initial_charges(p: PlaneGraph) -> ChargeLedger:
    """Charge deg - 4 on every planarized vertex and every face.

    The drawing must be connected and have at least two edges. Without an
    edge no face walk exists to carry the -4 of its one face, and the
    one face of K2 has degree 2, which no rule feeds and no hypothesis
    covers, so its charge -2 would stay unblamed."""
    if p.base.m < 2 or not p.base.is_connected():
        raise EmbeddingError("discharging requires a connected drawing with at least two edges")
    charges: dict[Element, int] = {}
    for v, d in enumerate(p.base.degrees):
        charges[("v", v)] = (d - 4) * SCALE
    for x in range(p.n_real, p.n):  # a crossing has degree 4
        charges[("v", x)] = 0
    for i, f in enumerate(p.faces):
        charges[("f", i)] = (len(f) - 4) * SCALE
    return ChargeLedger(charges)


def compute_transfers(p: PlaneGraph, g: Graph, kappa: int | None = None) -> list[Transfer]:
    """The rule firings, computed from the pre-rule structure only."""
    if kappa is None:
        kappa = g.delta + DEFAULT_SLACK
    t = thresholds(g, kappa)
    tight, high, huge = t.tight, t.high, t.huge
    deg, adj = g.degrees, g.adj
    out: list[Transfer] = []
    for v in range(g.n):
        d = deg[v]
        if d == 2:
            for u in adj[v]:
                out.append(Transfer(DEG2.name, ("v", u), ("v", v), DEG2.amount))
        elif d == 3:
            for u in adj[v]:
                if deg[u] == tight:
                    out.append(Transfer(DEG3_TIGHT.name, ("v", u), ("v", v), DEG3_TIGHT.amount))
                elif deg[u] >= high:
                    out.append(Transfer(DEG3_HIGH.name, ("v", u), ("v", v), DEG3_HIGH.amount))
        elif d == 4:
            degs = sorted(deg[u] for u in adj[v])
            if degs[0] >= HEAVY:
                for u in adj[v]:
                    out.append(Transfer(DEG4_QUARTER.name, ("v", u), ("v", v), DEG4_QUARTER.amount))
            elif degs[1] >= huge:
                for u in adj[v]:
                    if deg[u] >= huge:
                        out.append(Transfer(DEG4_THIRD.name, ("v", u), ("v", v), DEG4_THIRD.amount))
        elif d == 5:
            for u in adj[v]:
                if deg[u] >= DEG5_BIG:
                    out.append(Transfer(DEG5_SIXTH.name, ("v", u), ("v", v), DEG5_SIXTH.amount))
    n_real = p.n_real
    for i, f in enumerate(p.faces):
        if len(f) == 3:
            for v in f:
                if v < n_real:
                    out.append(Transfer(TRIFACE.name, ("v", v), ("f", i), TRIFACE.amount))
        elif len(f) >= 5:
            for v in f:
                if v < n_real and deg[v] == 3:
                    out.append(Transfer(BIGFACE.name, ("f", i), ("v", v), BIGFACE.amount))
    return out


def apply_rules(ledger: ChargeLedger, p: PlaneGraph, g: Graph, kappa: int | None = None) -> ChargeLedger:
    """Apply every rule firing once; returns a new ledger with the log."""
    out = ledger.copy()
    for t in compute_transfers(p, g, kappa):
        out.charges[t.source] -= t.amount
        out.charges[t.target] += t.amount
        out.transfers.append(t)
    return out


# -- the audit ---------------------------------------------------------------------


def _require_floor(g: Graph, kappa: int) -> None:
    floor = g.delta + FLOOR_SLACK
    if kappa < floor:
        raise ValueError(
            f"palette {kappa} below max degree + {FLOOR_SLACK} = {floor}, the discharging "
            "floor: below it a sender's worst-case final charge is negative")


def _face_profile_deg3(p: PlaneGraph, g: Graph, v: int) -> Violation | None:
    """A 3-vertex on two 3-faces must also touch a 5+ face."""
    if g.degrees[v] != 3 or len(p.triangles_at[v]) < 2:
        return None
    faces = tuple(sorted(len(p.faces[i]) for i in p.faces_at(v)))
    if faces[-1] >= 5:
        return None
    return Violation(HYP_DEG3_FACE_PROFILE, (_word_deg3_face_profile, v, faces))


def _word_deg3_face_profile(v, faces):
    return f"3-vertex {v} has incident face degrees {list(faces)}: two 3-faces but no 5+ face"


def _face_no_consecutive_deg3(p: PlaneGraph, g: Graph, fi: int) -> Violation | None:
    walk, n_real, deg = p.faces[fi], p.n_real, g.degrees
    for a, b in zip(walk, walk[1:] + walk[:1]):
        if a < n_real and b < n_real and deg[a] == 3 and deg[b] == 3:
            return Violation(HYP_NO_CONSECUTIVE_DEG3, (_word_consecutive_deg3, fi, a, b))
    return None


def _word_consecutive_deg3(fi, a, b):
    return f"face {fi} has consecutive 3-vertices {a}, {b} on its boundary"


_PROFILE_CHECKS = {
    HYP_DEG3_FACE_PROFILE: _face_profile_deg3,
    HYP_NO_CONSECUTIVE_DEG3: _face_no_consecutive_deg3,
}


def _blame(
    p: PlaneGraph, g: Graph, kappa: int, transfers: list[Transfer], elems: list[Element]
) -> list[list[Violation]]:
    """The violated hypotheses of each element: its class's need, then the
    sender hypotheses of each rule it fired, in table order, at itself and
    then at its receivers. A condition runs once, over the whole drawing,
    when an element first asks for it, and each place takes the witnesses
    that bind it first; a face-profile hypothesis is checked at each place
    that asks for it."""
    # the receivers of each rule (by table position) a negative element fired
    negative = set(elems)
    sent: dict[Element, dict[int, list[int]]] = {}
    for name, source, target, _ in transfers:
        if source in negative:
            sent.setdefault(source, {}).setdefault(_RANK[name], []).append(target[1])
    n_real, deg = p.n_real, g.degrees
    found: dict[Condition, dict[int, list[Violation]]] = {}
    out = []
    for elem in elems:
        kind, x = elem
        at = (x,)
        d = deg[x] if kind == "v" and x < n_real else -1  # -1: a face or a crossing
        places = [(NEEDS[d], at)] if 0 <= d < len(NEEDS) else []
        fired = sorted(sent.get(elem, {}).items())
        own = (SENDER, HEAVY_SENDER) if d >= HEAVY else (SENDER,)
        for i, _ in fired:
            for hyp, where in RULES[i].bounds:
                if where in own:
                    places.append((hyp, at))
        if 4 <= d < HEAVY:  # a light sender: then at its 2-vertex receivers
            for i, receivers in fired:
                for hyp, where in RULES[i].bounds:
                    if where is LIGHT_RECEIVERS:
                        places.append((hyp, tuple(receivers)))
        violated: list[Violation] = []
        for hyp, xs in places:
            if not isinstance(hyp, Condition):
                for place in xs:
                    violation = _PROFILE_CHECKS[hyp](p, g, place)
                    if violation:
                        violated.append(violation)
                continue
            at_place = found.get(hyp)
            if at_place is None:
                found[hyp] = at_place = {}
                for w in check_condition(g, p, kappa, hyp):
                    at_place.setdefault(w.vertices[0], []).append(Violation(hyp.value, w.wording))
            for place in xs:
                violated.extend(at_place.get(place, ()))
        out.append(violated)
    return out


def element_hypothesis_failures(
    p: PlaneGraph, g: Graph, kappa: int, elem: Element
) -> list[Violation]:
    """The audit's blame for one element alone; if it is empty, the
    element's final charge is >= 0. An unknown element kind, an index
    outside the drawing and a palette below the floor raise ValueError."""
    kind, idx = elem
    size = {"v": p.n, "f": len(p.faces)}.get(kind)
    if size is None or not 0 <= idx < size:
        raise ValueError(f"element {elem!r} is not a vertex or face of the drawing")
    _require_floor(g, kappa)
    return _blame(p, g, kappa, compute_transfers(p, g, kappa), [elem])[0]


def audit_final_charges(
    ledger: ChargeLedger, p: PlaneGraph, g: Graph, kappa: int
) -> DischargeReport:
    """Per-element final-charge audit after the rules were applied: every
    negative element (there is one, as the total of a connected drawing is
    -8) with its violated hypotheses, blamed in one batch from the ledger's
    transfers, and the charges as exact ``Fraction`` values. A palette
    below the discharging floor, or a transfer whose rule is not in
    ``RULES``, raises ValueError."""
    _require_floor(g, kappa)
    firings = Counter(t.rule for t in ledger.transfers)
    unknown = firings.keys() - _RANK.keys()
    if unknown:
        raise ValueError(f"ledger transfer names unknown rule {min(unknown, key=str)!r}")
    total = ledger.total()
    # one Fraction per distinct charge, shared by the elements holding it
    value = {q: Fraction(q, SCALE) for q in set(ledger.charges.values())}
    charges = {elem: value[q] for elem, q in ledger.charges.items()}
    elems = sorted(elem for elem, q in ledger.charges.items() if q < 0)
    negative = [
        NegativeElement(elem, charges[elem], tuple(violated))
        for elem, violated in zip(elems, _blame(p, g, kappa, ledger.transfers, elems))
    ]
    return DischargeReport(
        total=Fraction(total, SCALE),
        conserved=total == -8 * SCALE,
        rule_firings=firings,
        negative_elements=negative,
        charges=charges,
    )


def discharge(p: PlaneGraph, g: Graph, kappa: int | None = None) -> DischargeReport:
    """Initial charges, rules, audit; a palette below the floor raises ValueError."""
    if kappa is None:
        kappa = g.delta + DEFAULT_SLACK
    _require_floor(g, kappa)
    ledger = apply_rules(initial_charges(p), p, g, kappa)
    return audit_final_charges(ledger, p, g, kappa)
