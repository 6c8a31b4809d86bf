"""Discharging on the plane graph of a triangle-free 1-planar drawing.

Every vertex and face of the planarized drawing starts with charge
deg - 4; the total is exactly -8 on a connected drawing. Eight local
rules then move charge toward the light elements (2-, 3-, 4-, 5-vertices
and 3-faces). Rules read only the input structure, so they commute and
conserve the total.

Every amount is a multiple of 1/12, so the ledger counts charge in
integer twelfths (``SCALE``): the arithmetic stays exact without
rationals. The report converts to ``Fraction`` once, at its boundary.

Vertex-to-vertex rules follow adjacency in the *base* graph, never in the
planarized one; crossing vertices neither send nor receive (they hold
charge 0 throughout). Face rules count incidences per boundary-walk slot.

The rules' degree thresholds are read from the palette-threshold table
of ``conditions`` (``Thresholds``, ``HEAVY``, ``DEG5_BIG``), the same
table the structural conditions read.

The audit attaches to every negative element the structural hypotheses
whose failure explains the deficit; if all attached hypotheses hold, the
element cannot be negative (this implication is what the test suite
checks instance by instance). The hypotheses of an element's degree
class form its blame ladder (``_ladder``). The audit blames all negative
elements in one batch: each condition is checked once, scoped to the
union of the vertices the ladders ask it about, and every element takes
the witnesses at its own vertices, in ladder order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .conditions import DEG5_BIG, HEAVY, Condition, Thresholds, check_condition, thresholds
from .embedding import PlaneGraph
from .errors import EmbeddingError
from .graph import Graph
from .solver import DEFAULT_SLACK

Element = tuple[str, int]  # ("v", vertex id) or ("f", face index)

SCALE = 12  # ledger charges and transfer amounts are integer twelfths
ONE = SCALE
HALF = SCALE // 2
THIRD = SCALE // 3
QUARTER = SCALE // 4
SIXTH = SCALE // 6
THREE_HALVES = 3 * SCALE // 2

# audit-only face-profile hypotheses, alongside the Condition values
HYP_DEG3_FACE_PROFILE = "deg3-face-profile"
HYP_NO_CONSECUTIVE_DEG3 = "no-consecutive-deg3"


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
    hypothesis: str
    detail: str


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
        lines = [
            f"total={_frac(self.total)} conserved={'yes' if self.conserved else 'no'}"
        ]
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
    """Charge deg - 4 on every planarized vertex and every face."""
    if not p.graph.is_connected():
        raise EmbeddingError("discharging requires a connected drawing")
    charges: dict[Element, int] = {}
    for v, d in enumerate(p.graph.degrees):
        charges[("v", v)] = (d - 4) * SCALE
    for i, f in enumerate(p.faces):
        charges[("f", i)] = (f.degree - 4) * SCALE
    return ChargeLedger(charges)


def compute_transfers(p: PlaneGraph, g: Graph, kappa: int | None = None) -> list[Transfer]:
    """All rule firings, computed from the pre-rule structure only."""
    if kappa is None:
        kappa = g.delta + DEFAULT_SLACK
    t = thresholds(g, kappa)
    tight, high, huge = t.tight, t.high, t.huge
    deg, adj = g.degrees, g.adj
    out: list[Transfer] = []

    for v, d in enumerate(deg):
        if d == 2:
            for u in adj[v]:
                out.append(Transfer("deg2-from-neighbors", ("v", u), ("v", v), ONE))
        elif d == 3:
            for u in adj[v]:
                if deg[u] == tight:
                    out.append(Transfer("deg3-from-tight", ("v", u), ("v", v), THREE_HALVES))
                elif deg[u] >= high:
                    out.append(Transfer("deg3-from-high", ("v", u), ("v", v), HALF))
        elif d == 4:
            degs = sorted(deg[u] for u in adj[v])
            if degs[0] >= HEAVY:
                for u in adj[v]:
                    out.append(Transfer("deg4-quarter", ("v", u), ("v", v), QUARTER))
            elif degs[1] >= huge:
                for u in adj[v]:
                    if deg[u] >= huge:
                        out.append(Transfer("deg4-third", ("v", u), ("v", v), THIRD))
        elif d == 5:
            for u in adj[v]:
                if deg[u] >= DEG5_BIG:
                    out.append(Transfer("deg5-sixth", ("v", u), ("v", v), SIXTH))

    n_real = p.n_real
    for i, f in enumerate(p.faces):
        if f.degree == 3:
            for v in f.vertices:
                if v < n_real:
                    out.append(Transfer("triface-from-real", ("v", v), ("f", i), HALF))
        elif f.degree >= 5:
            for v in f.vertices:
                if v < n_real and deg[v] == 3:
                    out.append(Transfer("deg3-from-bigface", ("f", i), ("v", v), HALF))
    return out


def apply_rules(ledger: ChargeLedger, p: PlaneGraph, g: Graph, kappa: int | None = None) -> ChargeLedger:
    """Apply every rule firing once; returns a new ledger with the log."""
    out = ledger.copy()
    for t in compute_transfers(p, g, kappa):
        out.charges[t.source] -= t.amount
        out.charges[t.target] += t.amount
        out.transfers.append(t)
    return out


def conservation_check(before: ChargeLedger, after: ChargeLedger) -> bool:
    """Totals must agree (transfers are zero-sum) over the same elements."""
    if set(before.charges) != set(after.charges):
        raise ValueError("ledgers cover different element sets")
    return before.total() == after.total()


# -- the audit ---------------------------------------------------------------------


def _face_profile_deg3(p: PlaneGraph, g: Graph, v: int) -> Violation | None:
    """A 3-vertex on two 3-faces must also touch a 5+ face."""
    if len(p.triangles_at[v]) < 2:
        return None
    faces = [p.faces[i].degree for i in p.faces_at(v)]
    if not any(d >= 5 for d in faces):
        return Violation(
            HYP_DEG3_FACE_PROFILE,
            f"3-vertex {v} has incident face degrees {sorted(faces)}: two "
            "3-faces but no 5+ face",
        )
    return None


def _face_no_consecutive_deg3(p: PlaneGraph, g: Graph, fi: int) -> Violation | None:
    walk = p.faces[fi].vertices
    d = len(walk)
    n_real, deg = p.n_real, g.degrees
    for i in range(d):
        a, b = walk[i], walk[(i + 1) % d]
        if a < n_real and b < n_real and deg[a] == 3 and deg[b] == 3:
            return Violation(
                HYP_NO_CONSECUTIVE_DEG3,
                f"face {fi} has consecutive 3-vertices {a}, {b} on its boundary",
            )
    return None


_PROFILE_CHECKS = {
    HYP_DEG3_FACE_PROFILE: _face_profile_deg3,
    HYP_NO_CONSECUTIVE_DEG3: _face_no_consecutive_deg3,
}

# One rung of an element's blame ladder: a hypothesis checked at some
# vertices (or, for a face's profile, at its index). The hypothesis is a
# Condition, or the name of an audit-only profile check.
Rung = tuple[Condition | str, tuple[int, ...]]


def _ladder(p: PlaneGraph, g: Graph, t: Thresholds, elem: Element) -> list[Rung]:
    """The local hypotheses of one element's degree class, in the order
    they are reported.

    The hypothesis sets mirror the per-class nonnegativity argument: if
    none of them is violated, the element's final charge is >= 0.
    Crossing vertices and 3-/4-faces need no hypotheses at all.
    """
    kind, idx = elem
    if kind == "f":
        return [(HYP_NO_CONSECUTIVE_DEG3, (idx,))] if p.faces[idx].degree >= 5 else []
    v = idx
    if p.is_crossing(v):
        return []
    d = g.degree(v)
    at = (v,)
    if d < 2:
        return [(Condition.MIN_DEGREE_2CONNECTED, at)]
    if d == 2:
        return [(Condition.DEG2_BIG_NEIGHBORS, at), (Condition.DEG2_FACE_SIZES, at)]
    if d == 3:
        return [
            (Condition.DEG3_BIG_NEIGHBORS, at),
            (Condition.TRIANGLE_FACE_BUDGET, at),
            (HYP_DEG3_FACE_PROFILE, at),
        ]
    deg = g.degrees
    deg2_neighbors = tuple(u for u in g.adj[v] if deg[u] == 2)
    rungs: list[Rung] = []
    if d < HEAVY:
        if d == 4:
            rungs.append((Condition.DEG4_NEIGHBOR_PROFILE, at))
        elif d == 5:
            rungs.append((Condition.DEG5_NEIGHBOR_PROFILE, at))
        rungs.append((Condition.TRIANGLE_FACE_BUDGET, at))
        if deg2_neighbors:
            rungs.append((Condition.DEG2_BIG_NEIGHBORS, deg2_neighbors))
        return rungs
    # heavy
    rungs.append((Condition.TRIANGLE_FACE_BUDGET, at))
    if deg2_neighbors:
        rungs.append((Condition.HEAVY_DEG2_SUPPORT, at))
    elif d == t.tight:
        rungs.append((Condition.TIGHT_VERTEX_SMALL_NEIGHBOR, at))
    elif t.high <= d < t.huge:
        rungs.append((Condition.TWO_DEG4_NEIGHBORS, at))
    return rungs


def _blame(p: PlaneGraph, g: Graph, kappa: int, elems: list[Element]) -> list[list[Violation]]:
    """The violated hypotheses of each element, in ladder order.

    Each hypothesis is checked once, at the union of the places that the
    elements' ladders ask it about. A scoped condition check returns the
    concatenation of its single-vertex results in vertex order, so each
    vertex gets the witnesses a check scoped to it alone would return.
    """
    t = thresholds(g, kappa)
    ladders = [_ladder(p, g, t, e) for e in elems]
    scopes: defaultdict[Condition | str, set[int]] = defaultdict(set)
    for rungs in ladders:
        for hyp, at in rungs:
            scopes[hyp].update(at)
    found: dict[Condition | str, dict[int, list[Violation]]] = {}
    for hyp, scope in scopes.items():
        at_vertex: dict[int, list[Violation]] = {}
        if isinstance(hyp, Condition):
            name = hyp.value
            for w in check_condition(g, p, kappa, hyp, vertices=scope):
                at_vertex.setdefault(w.vertices[0], []).append(Violation(name, w.detail))
        else:
            profile = _PROFILE_CHECKS[hyp]
            for x in scope:
                violation = profile(p, g, x)
                if violation:
                    at_vertex[x] = [violation]
        found[hyp] = at_vertex
    out = []
    for rungs in ladders:
        violated: list[Violation] = []
        for hyp, at in rungs:
            at_vertex = found[hyp]
            for x in at:
                violated.extend(at_vertex.get(x, ()))
        out.append(violated)
    return out


def element_hypothesis_failures(
    p: PlaneGraph, g: Graph, kappa: int, elem: Element
) -> list[Violation]:
    """Violated local hypotheses for one element's degree class: the
    audit's blame for that element alone. If the returned list is empty,
    the element's final charge is >= 0."""
    return _blame(p, g, kappa, [elem])[0]


def audit_final_charges(
    ledger: ChargeLedger, p: PlaneGraph, g: Graph, kappa: int
) -> DischargeReport:
    """Per-element final-charge audit after the rules were applied.

    Every negative element is reported together with the violated local
    hypotheses of its class, blamed in one batch; for a connected drawing
    the total is -8, so the negative list is never empty on valid input.
    The report holds the ledger's twelfths as exact ``Fraction`` values.
    """
    firings: dict[str, int] = {}
    for t in ledger.transfers:
        firings[t.rule] = firings.get(t.rule, 0) + 1
    total = ledger.total()
    # one Fraction per distinct charge, shared by the elements holding it
    value = {q: Fraction(q, SCALE) for q in set(ledger.charges.values())}
    charges = {elem: value[q] for elem, q in ledger.charges.items()}
    elems = sorted(elem for elem, q in ledger.charges.items() if q < 0)
    negative = [
        NegativeElement(elem, charges[elem], tuple(violated))
        for elem, violated in zip(elems, _blame(p, g, kappa, elems))
    ]
    return DischargeReport(
        total=Fraction(total, SCALE),
        conserved=total == -8 * SCALE,
        rule_firings=firings,
        negative_elements=negative,
        charges=charges,
    )


def discharge(p: PlaneGraph, g: Graph, kappa: int | None = None) -> DischargeReport:
    """Full pipeline: initial charges, rules, audit. A palette below the
    max degree raises ValueError: no coloring can use it."""
    if kappa is None:
        kappa = g.delta + DEFAULT_SLACK
    elif kappa < g.delta:
        raise ValueError(f"palette {kappa} below max degree {g.delta}; properness impossible")
    ledger = apply_rules(initial_charges(p), p, g, kappa)
    return audit_final_charges(ledger, p, g, kappa)
