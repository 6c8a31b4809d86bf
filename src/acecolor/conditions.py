"""Executable structural conditions for palette-minimal graphs.

A graph whose acyclic chromatic index exceeds the palette size kappa,
while every proper subgraph colors within kappa, is *palette-minimal*
(kappa-deletion-minimal). Such graphs are known to satisfy a list of
local degree conditions; each enum member below is one of them, checkable
directly on a concrete graph (plus, for the face conditions, the plane
graph that ``embedding.planarize`` builds once from its drawing).
A witness is a binding of a condition's quantifiers at which it fails.
A check records how to word each witness, a module-level function and
the values its text reads, and formats nothing: the text is built when
``detail`` is read, which only the reports do (the CLI ``audit``'s one
witness per drawing, and the discharge report's JSON through the blame).

Every degree threshold that scales with the palette slack kappa -
max_degree is declared once, in the ``Thresholds`` table; the discharging
rules read the same table, so a rule and the condition it relies on
cannot drift apart. ``HEAVY`` and ``DEG5_BIG`` are the two thresholds
that do not scale. ``check_condition`` evaluates a condition at any
palette. ``find_reducible_configuration`` and the CLI ``audit`` accept
kappa >= max_degree (``require_in_scope``): below it no proper coloring
exists. The discharging audit, whose blame reads these conditions,
accepts only kappa >= max_degree + 16, where its argument closes.

Every check reads the degrees and the max degree the graph computed once,
and the face checks read the per-vertex 3-faces of the plane graph, so a
check scoped to a few vertices costs O(their degrees), not O(n). A check
visits only the vertices that can fail it: those of its degree class
(read from the graph's degree classes at full scope), the vertices on a
3-face, or the neighbors of 2-vertices. A check scoped to a set of
vertices returns the concatenation of its results scoped to each of them
alone, in increasing order; the discharging audit relies on this to
blame all negative elements with one check per condition.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .embedding import PlaneGraph
from .errors import SizeRefusal
from .graph import Graph
from .solver import has_acyclic_coloring


class Condition(Enum):
    MIN_DEGREE_2CONNECTED = "min-degree-2connected"
    DEG2_BIG_NEIGHBORS = "deg2-big-neighbors"
    DEG3_BIG_NEIGHBORS = "deg3-big-neighbors"
    TIGHT_VERTEX_SMALL_NEIGHBOR = "tight-vertex-small-neighbor"
    TWO_DEG4_NEIGHBORS = "two-deg4-neighbors"
    DEG4_NEIGHBOR_PROFILE = "deg4-neighbor-profile"
    DEG5_NEIGHBOR_PROFILE = "deg5-neighbor-profile"
    HEAVY_DEG2_SUPPORT = "heavy-deg2-support"
    DEG2_FACE_SIZES = "deg2-face-sizes"
    TRIANGLE_FACE_BUDGET = "triangle-face-budget"
    DEG2_SUPPORT_COUNTS = "deg2-support-counts"
    DEG4_DEGREE_SUM = "deg4-degree-sum"
    DEG3_TIGHT_STRUCTURE = "deg3-tight-structure"

    # members are singletons and compare by identity, so they hash by it
    # too, in C, instead of by name through Enum.__hash__
    __hash__ = object.__hash__


FACE_CONDITIONS = frozenset({Condition.DEG2_FACE_SIZES, Condition.TRIANGLE_FACE_BUDGET})

# evaluation order for find_reducible_configuration: global connectivity
# first, then the numbered degree conditions, then face conditions, then
# the finer counting conditions
CONDITION_ORDER: tuple[Condition, ...] = (
    Condition.MIN_DEGREE_2CONNECTED,
    Condition.DEG2_BIG_NEIGHBORS,
    Condition.DEG3_BIG_NEIGHBORS,
    Condition.TIGHT_VERTEX_SMALL_NEIGHBOR,
    Condition.TWO_DEG4_NEIGHBORS,
    Condition.DEG4_NEIGHBOR_PROFILE,
    Condition.DEG5_NEIGHBOR_PROFILE,
    Condition.HEAVY_DEG2_SUPPORT,
    Condition.DEG2_FACE_SIZES,
    Condition.TRIANGLE_FACE_BUDGET,
    Condition.DEG2_SUPPORT_COUNTS,
    Condition.DEG3_TIGHT_STRUCTURE,
    Condition.DEG4_DEGREE_SUM,
)


class ConditionWitness(NamedTuple):
    """A binding of a condition's quantifiers at which it fails.

    ``wording`` is a module-level function followed by the values its
    text reads, the graph's own tuples (its degrees, a vertex's
    neighbors) among them, not copies; ``detail`` calls it, so the text
    is built only when read. The function and its values determine the
    text, and on one graph the text determines them, so two witnesses of
    one graph compare equal exactly when their condition, vertices and
    text agree."""

    condition: Condition
    vertices: tuple[int, ...]
    wording: tuple

    @property
    def detail(self) -> str:
        say, *values = self.wording
        return say(*values)


HEAVY = 10  # a vertex of this degree or more is heavy
DEG5_BIG = 8  # a 5-vertex needs three neighbors of this degree or more


class Thresholds(NamedTuple):
    """The degree thresholds of one palette, all offsets of the slack
    kappa - max_degree: a "tight" vertex has degree exactly ``tight``, a
    "high" one at least ``high``, a "huge" one at least ``huge``, and a
    2-vertex needs two neighbors of degree ``deg2_big`` or more."""

    slack: int
    tight: int
    high: int
    deg2_big: int
    huge: int


@lru_cache(maxsize=64)
def _table(slack: int) -> Thresholds:
    return Thresholds(slack, slack + 2, slack + 3, slack + 4, slack + 6)


def thresholds(g: Graph, kappa: int) -> Thresholds:
    """The table of palette kappa on g. Tables are immutable, so one per
    slack is built and shared: a call costs a lookup, not a construction."""
    return _table(kappa - g.delta)


def _scope(g: Graph, vertices) -> Sequence[int]:
    """The vertices a check examines, sorted: all of them, or the scope
    check_condition has validated, deduplicated and sorted."""
    return range(g.n) if vertices is None else vertices


def _of_degree(g: Graph, vertices, d: int) -> Sequence[int]:
    """The vertices of degree d a check examines, sorted: the graph's
    degree class, or the scope's members of it."""
    if vertices is None:
        classes = g.degree_classes()
        return classes[d] if 0 <= d < len(classes) else ()
    deg = g.degrees
    return [v for v in vertices if deg[v] == d]


def _heavy(g: Graph, vertices) -> Sequence[int]:
    """The heavy vertices a check examines, sorted."""
    if vertices is None:
        return sorted(chain.from_iterable(g.degree_classes()[HEAVY:]))
    deg = g.degrees
    return [v for v in vertices if deg[v] >= HEAVY]


def _at_least(nbrs: tuple[int, ...], deg: tuple[int, ...], d: int) -> int:
    """How many of nbrs have degree d or more."""
    have = 0
    for u in nbrs:
        if deg[u] >= d:
            have += 1
    return have


def _too_few(
    g: Graph, cond: Condition, vertices, d: int, need: int, word
) -> list[ConditionWitness]:
    """A witness of cond at each of vertices with fewer than need
    neighbors of degree d or more, worded by word(v, have, d, need, deg,
    adj[v]). The lemmas "a vertex of this class has need neighbors of
    degree >= d" all check through here."""
    deg, adj = g.degrees, g.adj
    out = []
    for v in vertices:
        nbrs = adj[v]
        have = _at_least(nbrs, deg, d)
        if have < need:
            out.append(ConditionWitness(cond, (v,), (word, v, have, d, need, deg, nbrs)))
    return out


# -- wordings --------------------------------------------------------------------
#
# Each function words one kind of witness from the values its check
# records after it in the witness's wording; ``detail`` calls it.


def _word_low_degree(v, d):
    return f"vertex {v} has degree {d} < 2"


def _word_cut_vertex(v):
    return f"vertex {v} is a cut vertex"


def _word_disconnected():
    return "graph is disconnected"


def _word_deg2_big(v, have, d, need, deg, nbrs):
    return f"2-vertex {v} has neighbor degrees {[deg[u] for u in nbrs]}, needs two >= {d}"


def _word_deg3_big(v, have, d, need, deg, nbrs):
    return f"3-vertex {v} has neighbor degrees {[deg[u] for u in nbrs]}, needs three >= {d}"


def _word_tight_small(w, tight, deg, nbrs):
    small = [u for u in nbrs if deg[u] == 3]
    return (f"degree-{tight} vertex {w} has {len(small)} 3-vertex "
            f"neighbors {small}, at most one allowed")


def _word_two_deg4(v, have, d, need, deg, nbrs):
    return f"vertex {v} is adjacent to only {have} vertices of degree >= {d}"


def _word_deg4_profile(v, huge, deg, nbrs):
    return (f"4-vertex {v} has neighbor degrees {sorted([deg[u] for u in nbrs])}; "
            f"needs four {HEAVY}+ or one {HEAVY - 1}- with three {huge}+")


def _word_deg5_profile(v, have, d, need, deg, nbrs):
    return f"5-vertex {v} is adjacent to only {have} vertices of degree >= {d}"


def _word_heavy_support(v, have, d, need, deg, nbrs):
    return (f"vertex {v} (degree {deg[v]}, has a 2-neighbor) is adjacent to "
            f"{have} vertices of degree >= {d}, needs {need}")


def _word_deg2_on_3face(v, face):
    return f"2-vertex {v} lies on 3-face {face}"


def _word_triangle_budget(v, count, bound):
    return f"vertex {v} lies on {count} 3-faces, budget {bound}"


def _word_support_count(b, v0, have, need_degree, need):
    return (f"support {b} of 2-vertex {v0}: {have} neighbors of "
            f"degree >= {need_degree}, needs {need}")


def _word_strong_twos(b, strong, twos, most):
    return f"support {b} with exactly {strong} strong neighbors has {twos} 2-neighbors, max {most}"


def _word_strong_degree(b, strong, db, big):
    return f"support {b} with exactly {strong} strong neighbors has degree {db} < {big}"


def _word_degree_sum(w0, w, total, bound):
    return f"4-vertex {w0} with light neighbor {w}: neighbor degree sum {total} < {bound}"


def _word_deg3_tight(v, w, nbrs):
    return (f"3-vertex {v} with threshold neighbor {w}: no labeling of the other "
            f"neighbors {[x for x in nbrs if x != w]} meets the degree and counting "
            "requirements")


# -- individual checks ----------------------------------------------------------
#
# A check scoped to S returns the concatenation of its results scoped to
# each vertex of S alone, in increasing order: the audit's batched blame
# rests on this. Only the full-scope min-degree-2connected check orders
# its witnesses otherwise, with the disconnected-graph witness among them.


def _check_min_degree_2connected(g: Graph, kappa: int, vertices) -> list[ConditionWitness]:
    cond = Condition.MIN_DEGREE_2CONNECTED
    deg = g.degrees

    def low(v: int) -> ConditionWitness:
        return ConditionWitness(cond, (v,), (_word_low_degree, v, deg[v]))

    def cut(v: int) -> ConditionWitness:
        return ConditionWitness(cond, (v,), (_word_cut_vertex, v))

    if vertices is not None:
        cuts = set(g.articulation_points())
        out = []
        for v in vertices:
            if deg[v] < 2:
                out.append(low(v))
            if v in cuts:
                out.append(cut(v))
        return out
    out = [low(v) for v in range(g.n) if deg[v] < 2]
    if g.n >= 2 and not g.is_connected():
        reps = tuple(c[0] for c in g.connected_components())
        out.append(ConditionWitness(cond, reps, (_word_disconnected,)))
    out.extend(cut(v) for v in g.articulation_points())
    return out


def _check_deg2_big_neighbors(g: Graph, kappa: int, vertices) -> list[ConditionWitness]:
    return _too_few(
        g, Condition.DEG2_BIG_NEIGHBORS, _of_degree(g, vertices, 2),
        thresholds(g, kappa).deg2_big, 2, _word_deg2_big,
    )


def _check_deg3_big_neighbors(g: Graph, kappa: int, vertices) -> list[ConditionWitness]:
    return _too_few(
        g, Condition.DEG3_BIG_NEIGHBORS, _of_degree(g, vertices, 3),
        thresholds(g, kappa).tight, 3, _word_deg3_big,
    )


def _check_tight_vertex_small_neighbor(g: Graph, kappa: int, vertices) -> list[ConditionWitness]:
    tight = thresholds(g, kappa).tight
    deg, adj = g.degrees, g.adj
    out = []
    for w in _of_degree(g, vertices, tight):
        nbrs = adj[w]
        if len([u for u in nbrs if deg[u] == 3]) >= 2:
            out.append(
                ConditionWitness(
                    Condition.TIGHT_VERTEX_SMALL_NEIGHBOR, (w,), (_word_tight_small, w, tight, deg, nbrs)
                )
            )
    return out


def _check_two_deg4_neighbors(g: Graph, kappa: int, vertices) -> list[ConditionWitness]:
    return _too_few(g, Condition.TWO_DEG4_NEIGHBORS, _scope(g, vertices), 4, 2, _word_two_deg4)


def _check_deg4_neighbor_profile(g: Graph, kappa: int, vertices) -> list[ConditionWitness]:
    """A 4-vertex has four heavy neighbors, or one light one and three
    huge ones: exactly the 4-vertices the deg4-* rules send charge to."""
    huge = thresholds(g, kappa).huge
    deg, adj = g.degrees, g.adj
    out = []
    for v in _of_degree(g, vertices, 4):
        nbrs = adj[v]
        degs = sorted([deg[u] for u in nbrs])
        if not (degs[0] >= HEAVY or degs[1] >= huge):
            out.append(
                ConditionWitness(
                    Condition.DEG4_NEIGHBOR_PROFILE, (v,), (_word_deg4_profile, v, huge, deg, nbrs)
                )
            )
    return out


def _check_deg5_neighbor_profile(g: Graph, kappa: int, vertices) -> list[ConditionWitness]:
    return _too_few(
        g, Condition.DEG5_NEIGHBOR_PROFILE, _of_degree(g, vertices, 5), DEG5_BIG, 3,
        _word_deg5_profile,
    )


def _check_heavy_deg2_support(g: Graph, kappa: int, vertices) -> list[ConditionWitness]:
    t = thresholds(g, kappa)
    deg, adj = g.degrees, g.adj
    supports = [v for v in _heavy(g, vertices) if 2 in [deg[u] for u in adj[v]]]
    return _too_few(
        g, Condition.HEAVY_DEG2_SUPPORT, supports, t.tight, t.slack + 1, _word_heavy_support
    )


def _check_deg2_face_sizes(g: Graph, plane: PlaneGraph, vertices) -> list[ConditionWitness]:
    """Real 2-vertices on a 3-face, one witness per 3-face at each 2-vertex
    of the scope. In a drawing with as few crossings as possible every
    2-vertex lies only on faces of degree >= 4, so a witness signals a
    drawing that is not crossing-minimal."""
    faces = plane.faces
    out = []
    for v in _of_degree(plane.base, vertices, 2):
        for fi in plane.triangles_at[v]:
            out.append(
                ConditionWitness(Condition.DEG2_FACE_SIZES, (v,), (_word_deg2_on_3face, v, faces[fi]))
            )
    return out


def _check_triangle_face_budget(g: Graph, plane: PlaneGraph, vertices) -> list[ConditionWitness]:
    """A vertex of degree d with l 2-neighbors lies on at most
    floor(2(d - l)/3) 3-faces. Only vertices on a 3-face are visited: a
    count of 0 is within every budget, which is never negative."""
    deg, adj = plane.base.degrees, plane.base.adj
    triangles = plane.triangles_at
    out = []
    for v in _scope(g, vertices):
        count = len(triangles[v])
        if not count:
            continue
        twos = sum(1 for u in adj[v] if deg[u] == 2)
        bound = (2 * (deg[v] - twos)) // 3
        if count > bound:
            out.append(
                ConditionWitness(
                    Condition.TRIANGLE_FACE_BUDGET, (v,), (_word_triangle_budget, v, count, bound)
                )
            )
    return out


def _check_deg2_support_counts(g: Graph, kappa: int, vertices) -> list[ConditionWitness]:
    """Counting conditions at each support (neighbor) b of a 2-vertex v0
    whose other neighbor is a, with the conditional refinement for
    supports with the minimum count. Only the supports in the scope are
    visited. A witness binds its support, and one support's witnesses
    come out once each, ordered by their text.

    No text is built for that. The per-2-vertex texts ("support {b} of
    2-vertex {v0}:") come first, with v0 taken in the order of
    f"{v0}:" ("12:" < "1:", as the texts sort, where str(v0) would put
    "1" first); then the strong-neighbor texts ("support {b} with
    exactly"), one each per support, "has {count} 2-neighbors" before
    "has degree", as a digit sorts before a letter.

    There is no refinement for adjacent supports a and b: they would close
    the triangle v0-a-b, which ``require_in_scope`` refuses and no
    discharging rule reads, so a graph with triangles gets no witness for
    them either."""
    t = thresholds(g, kappa)
    deg, adj = g.degrees, g.adj
    cond = Condition.DEG2_SUPPORT_COUNTS
    if vertices is None:
        vertices = sorted({b for v0 in _of_degree(g, None, 2) for b in adj[v0]})
    out = []
    for b in vertices:
        nbrs = adj[b]
        twos = [v0 for v0 in nbrs if deg[v0] == 2]
        if not twos:
            continue
        # b must support its 2-vertices: many neighbors of high degree
        db = deg[b]
        need_degree = kappa - db + 2
        have = _at_least(nbrs, deg, need_degree)
        found = []  # the wordings of b's witnesses, in text order
        for v0 in sorted(twos, key="{}:".format):
            w, v = adj[v0]
            need = kappa - deg[w if v == b else v] + 1
            if have < need:
                found.append((_word_support_count, b, v0, have, need_degree, need))
        if t.slack >= 2:
            strong = _at_least(nbrs, deg, t.tight)
            if strong == t.slack + 1:
                max_deg2 = db - t.high
                if len(twos) > max_deg2:
                    found.append((_word_strong_twos, b, strong, len(twos), max_deg2))
                if db < t.deg2_big:
                    found.append((_word_strong_degree, b, strong, db, t.deg2_big))
        out.extend(ConditionWitness(cond, (b,), wording) for wording in found)
    return out


def _check_deg4_degree_sum(g: Graph, kappa: int, vertices) -> list[ConditionWitness]:
    slack = thresholds(g, kappa).slack
    deg, adj = g.degrees, g.adj
    out = []
    for w0 in _of_degree(g, vertices, 4):
        total = sum([deg[x] for x in adj[w0]])
        if total >= 2 * kappa + 4:
            continue
        for w in adj[w0]:
            if deg[w] <= slack:
                out.append(
                    ConditionWitness(
                        Condition.DEG4_DEGREE_SUM, (w0,), (_word_degree_sum, w0, w, total, 2 * kappa + 4)
                    )
                )
                break
    return out


def _check_deg3_tight_structure(g: Graph, kappa: int, vertices) -> list[ConditionWitness]:
    """Structure around a 3-vertex with a tight neighbor, via its degree
    consequences only."""
    t = thresholds(g, kappa)
    delta, tight = g.delta, t.tight
    deg, adj = g.degrees, g.adj
    out = []
    cond = Condition.DEG3_TIGHT_STRUCTURE
    for v in _of_degree(g, vertices, 3):
        nbrs = adj[v]
        for w in nbrs:
            if deg[w] != tight:
                continue
            others = [x for x in nbrs if x != w]
            ok = False
            for v1, v2 in ((others[0], others[1]), (others[1], others[0])):
                if deg[v1] != delta or deg[v2] < t.high:
                    continue
                if _at_least(adj[v1], deg, tight) < kappa - deg[v2] + 1:
                    continue
                if _at_least(adj[v2], deg, kappa - deg[v2] + 2) < t.slack:
                    continue
                if _at_least(adj[v2], deg, 4) < t.slack + 1:
                    continue
                ok = True
                break
            if not ok:
                out.append(ConditionWitness(cond, (v, w), (_word_deg3_tight, v, w, nbrs)))
    return out


_GRAPH_CHECKS = {
    Condition.MIN_DEGREE_2CONNECTED: _check_min_degree_2connected,
    Condition.DEG2_BIG_NEIGHBORS: _check_deg2_big_neighbors,
    Condition.DEG3_BIG_NEIGHBORS: _check_deg3_big_neighbors,
    Condition.TIGHT_VERTEX_SMALL_NEIGHBOR: _check_tight_vertex_small_neighbor,
    Condition.TWO_DEG4_NEIGHBORS: _check_two_deg4_neighbors,
    Condition.DEG4_NEIGHBOR_PROFILE: _check_deg4_neighbor_profile,
    Condition.DEG5_NEIGHBOR_PROFILE: _check_deg5_neighbor_profile,
    Condition.HEAVY_DEG2_SUPPORT: _check_heavy_deg2_support,
    Condition.DEG2_SUPPORT_COUNTS: _check_deg2_support_counts,
    Condition.DEG4_DEGREE_SUM: _check_deg4_degree_sum,
    Condition.DEG3_TIGHT_STRUCTURE: _check_deg3_tight_structure,
}

_FACE_CHECKS = {
    Condition.DEG2_FACE_SIZES: _check_deg2_face_sizes,
    Condition.TRIANGLE_FACE_BUDGET: _check_triangle_face_budget,
}


def check_condition(
    g: Graph,
    plane: PlaneGraph | None,
    kappa: int,
    condition: Condition,
    vertices=None,
) -> list[ConditionWitness]:
    """All witnesses violating one condition; empty means it holds.

    `plane`, the plane graph of g's drawing, is required for the two face
    conditions and ignored otherwise; anything else, a Drawing included,
    raises TypeError. `vertices` restricts the bindings examined to a set
    of vertices (order and repeats do not matter); an id outside 0..n-1
    raises ValueError. The discharging audit passes the union of the
    vertices its elements' blame asks about.
    """
    if plane is not None and not isinstance(plane, PlaneGraph):
        raise TypeError(f"expected a PlaneGraph or None, got {type(plane).__name__}: use embedding.planarize")
    if vertices is not None:
        vertices = tuple(vertices)  # an iterator is read once, here
        for v in vertices:
            if not (0 <= v < g.n):
                raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
        vertices = sorted(set(vertices))
    if condition in FACE_CONDITIONS:
        if plane is None:
            raise ValueError(f"{condition.value} requires the plane graph of a drawing")
        return _FACE_CHECKS[condition](g, plane, vertices)
    return _GRAPH_CHECKS[condition](g, kappa, vertices)


def require_in_scope(g: Graph, kappa: int) -> None:
    """Raise ValueError unless a reducible witness must exist: the palette
    is at least the max degree and g is triangle-free."""
    if kappa < g.delta:
        raise ValueError(f"palette {kappa} below max degree {g.delta}; properness impossible")
    ok, witness = g.is_triangle_free()
    if not ok:
        raise ValueError(f"graph contains triangle {witness}; outside the scope")


def find_reducible_configuration(
    g: Graph, plane: PlaneGraph | None, kappa: int
) -> ConditionWitness | None:
    """First witness over all conditions in CONDITION_ORDER, or None;
    `plane` is as ``check_condition`` takes it.

    For a triangle-free 1-planar graph with the default palette this must
    never return None; a None result flags a bug (or a counterexample to
    the underlying structure theory) and callers treat it as an error.
    """
    require_in_scope(g, kappa)
    for cond in CONDITION_ORDER:
        found = check_condition(g, plane, kappa, cond)
        if found:
            return found[0]
    return None


def recheck_witness(g: Graph, plane: PlaneGraph | None, kappa: int, w: ConditionWitness) -> bool:
    """Re-evaluate the witness's condition restricted to its vertices and
    confirm the same violation reappears."""
    found = check_condition(g, plane, kappa, w.condition, vertices=w.vertices)
    return any(x.vertices == w.vertices for x in found)


def exact_size_ok(g: Graph) -> bool:
    """Whether g is small enough for the exhaustive computations: the
    CLI's exact index and the deletion-minimality probe."""
    return g.m <= 16 or g.n <= 8


def deletion_minimal_probe(g: Graph, kappa: int) -> tuple[bool, dict]:
    """Exhaustively test palette-minimality on a tiny graph.

    True iff g itself does not color within kappa but every single-edge
    deletion does (subgraph monotonicity reduces all proper subgraphs to
    edge deletions; isolated vertices rule minimality out immediately).
    """
    if not exact_size_ok(g):
        raise SizeRefusal(
            f"graph with n={g.n}, m={g.m} too large for the exhaustive probe"
        )
    detail: dict = {"kappa": kappa}
    if 0 in g.degrees:
        detail["isolated_vertices"] = [v for v, d in enumerate(g.degrees) if d == 0]
        return False, detail
    whole = has_acyclic_coloring(g, kappa)
    detail["colorable_with_kappa"] = whole is not None
    if whole is not None:
        return False, detail
    failing = []
    for e in g.edges:
        if has_acyclic_coloring(g.without_edge(*e), kappa) is None:
            failing.append(e)
    detail["uncolorable_deletions"] = failing
    return not failing, detail
