import random
import time
from unittest import mock
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acecolor import _kernel_py, kernel, solver
from acecolor.coloring import EdgeColoring, verify
from acecolor.generate import grid_builder
from acecolor.graph import Graph
from acecolor.solver import (
    edge_insertion_order,
    exact_acyclic_index,
    has_acyclic_coloring,
    heuristic_color,
    repair_exchange_pair,
    repair_recolor_single,
)

from graphlib import complete, complete_bipartite, cycle, path, petersen, prism, star
from oracle import acyclic_index_exhaustive


def test_exact_star():
    for n in (1, 3, 5):
        assert exact_acyclic_index(star(n), 10).min_colors == n


def test_exact_c4():
    r = exact_acyclic_index(cycle(4), 10)
    assert r.min_colors == 3
    assert verify(r.coloring).ok


def test_exact_k4():
    r = exact_acyclic_index(complete(4), 10)
    assert r.min_colors == 5
    assert verify(r.coloring).ok


def test_exact_petersen_regression():
    # the Petersen graph is class 2, so the index is at least 4; a valid
    # acyclic 4-coloring exists (search witness, re-verified here)
    r = exact_acyclic_index(petersen(), 10)
    assert r.min_colors == 4
    assert verify(r.coloring).ok


def test_exact_unsat_below_bound():
    assert exact_acyclic_index(cycle(4), 2) is None
    # bound below max degree: immediately unsat
    assert exact_acyclic_index(star(5), 4) is None


def test_exact_empty_graph():
    r = exact_acyclic_index(Graph(3, []), 5)
    assert r.min_colors == 0 and r.coloring.kappa == 0
    assert exact_acyclic_index(Graph(3, []), 0).min_colors == 0


def test_exact_empty_graph_below_bound():
    # no palette size is below the index 0, so a negative bound has no answer
    assert exact_acyclic_index(Graph(3, []), -1) is None
    assert exact_acyclic_index(Graph(0, []), -1) is None


def test_exact_matches_oracle_on_random_graphs():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(3, 7)
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pool)
        edges = pool[: rng.randint(1, min(8, len(pool)))]
        g = Graph(n, edges)
        expect = acyclic_index_exhaustive(n, list(g.edges))
        assert exact_acyclic_index(g, 12).min_colors == expect


def test_exact_at_least_max_degree():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(3, 7)
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pool)
        g = Graph(n, pool[: rng.randint(1, 8)])
        assert exact_acyclic_index(g, 12).min_colors >= g.max_degree()


def test_has_acyclic_coloring():
    assert has_acyclic_coloring(cycle(5), 2) is None
    col = has_acyclic_coloring(cycle(5), 3)
    assert col is not None and verify(col).ok


def test_has_acyclic_coloring_on_an_edgeless_graph_checks_the_bound_first():
    # the lower bound is 0 there: a negative palette has no coloring, 0 has one
    assert has_acyclic_coloring(Graph(3, []), -1) is None
    col = has_acyclic_coloring(Graph(3, []), 0)
    assert col is not None and col.is_total() and col.kappa == 0


def test_heuristic_colors_an_edgeless_graph_with_the_palette_asked_for():
    # as the exact solvers do: 0 colors, palette 0 included; a negative
    # palette is below the max degree 0
    outcome = heuristic_color(Graph(0, []), 0)
    assert outcome.coloring.is_total() and outcome.colors_used == 0
    assert heuristic_color(Graph(3, []), 4).coloring.kappa == 4
    with pytest.raises(ValueError, match="below max degree"):
        heuristic_color(Graph(3, []), -1)


def test_edge_insertion_order_path_colors_leaves_last():
    p = path(4)  # edges (0,1),(1,2),(2,3),(3,4)
    order = edge_insertion_order(p)
    assert sorted(order) == sorted(p.edges)
    # leaf edges peel first, so they are colored last
    assert order[0] in {(0, 1), (3, 4)}
    # determinism
    assert edge_insertion_order(p) == order


def test_edge_insertion_order_star():
    s = star(4)
    order = edge_insertion_order(s)
    assert sorted(order) == sorted(s.edges)


def _insertion_order_by_scan(g):
    """The peeling order by its definition: scan every vertex for the
    minimum (degree, id), then its neighbor of minimum (degree, id)."""
    deg = [g.degree(v) for v in range(g.n)]
    nbrs = [set(g.adj[v]) for v in range(g.n)]
    order = []
    for _ in range(g.m):
        v = min((x for x in range(g.n) if deg[x] > 0), key=lambda x: (deg[x], x))
        u = min(nbrs[v], key=lambda x: (deg[x], x))
        order.append((min(u, v), max(u, v)))
        nbrs[v].discard(u)
        nbrs[u].discard(v)
        deg[v] -= 1
        deg[u] -= 1
    return order


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 14), st.data())
def test_edge_insertion_order_matches_full_scan(c_kernel, n, data):
    # on each backend's peeling order, whichever kernel.py selected
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=30)) if pool else []
    g = Graph(n, edges)
    expected = _insertion_order_by_scan(g)
    for backend in (_kernel_py, c_kernel):
        with mock.patch.object(kernel, "peeling_order", backend.peeling_order):
            assert edge_insertion_order(g) == expected, backend.BACKEND


def test_heuristic_forest_no_repairs():
    # a small forest: palette = max degree suffices with zero repairs
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (5, 6)])
    out = heuristic_color(g, g.max_degree())
    assert out is not None
    assert verify(out.coloring).ok
    assert out.restarts_used == 0
    assert out.colors_used == g.max_degree()


def test_heuristic_c4_escapes_trap_with_valid_color():
    out = heuristic_color(cycle(4), 3)
    assert out is not None
    assert verify(out.coloring).ok
    assert out.restarts_used == 0  # the greedy descent suffices
    assert out.colors_used == 3
    # deterministic coloring: the last edge takes color 3 to dodge the
    # alternating 1,2,1,2 bichromatic square
    assert out.coloring.colored_edges() == {
        (2, 3): 1, (1, 2): 2, (0, 3): 2, (0, 1): 3,
    }


def test_heuristic_rejects_tiny_palette():
    with pytest.raises(ValueError):
        heuristic_color(star(4), 3)


def test_heuristic_deterministic_per_seed():
    g = petersen()
    a = heuristic_color(g, 6, seed=42)
    b = heuristic_color(g, 6, seed=42)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.coloring == b.coloring
        assert a.restarts_used == b.restarts_used


def test_heuristic_outcome_always_verifies():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(4, 12)
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pool)
        g = Graph(n, pool[: rng.randint(3, min(2 * n, len(pool)))])
        out = heuristic_color(g, g.max_degree() + 2, seed=1)
        if out is not None:
            assert verify(out.coloring).ok
            assert out.colors_used <= g.max_degree() + 2
            used = set(out.coloring.colored_edges().values())
            assert all(1 <= c <= g.max_degree() + 2 for c in used)


def test_repair_recolor_identity():
    s = star(3)
    col = EdgeColoring(s, 5)
    col.assign((0, 1), 1)
    res = repair_recolor_single(col, (0, 1), 1)
    assert res.accepted
    assert res.coloring.colored_edges() == col.colored_edges()


def test_repair_recolor_pendant_edge():
    s = star(3)
    col = EdgeColoring(s, 5)
    col.assign((0, 1), 1)
    col.assign((0, 2), 2)
    res = repair_recolor_single(col, (0, 1), 4)
    assert res.accepted
    assert res.coloring.color_of((0, 1)) == 4


def test_repair_recolor_rejects_cycle():
    c4 = cycle(4)
    col = EdgeColoring(c4, 3)
    for e, c in {(0, 1): 3, (1, 2): 2, (2, 3): 1, (0, 3): 2}.items():
        col.assign(e, c)
    assert verify(col).ok
    # recoloring (0,1) to 1 closes the 1,2,1,2 square
    res = repair_recolor_single(col, (0, 1), 1)
    assert not res.accepted
    assert res.blocking == ((0, 1), (0, 3), (1, 2), (2, 3))
    with pytest.raises(ValueError):
        repair_recolor_single(EdgeColoring(c4, 3), (0, 1), 1)  # uncolored edge


def test_repair_exchange_star_edges():
    s = star(3)
    col = EdgeColoring(s, 5)
    col.assign((0, 1), 1)
    col.assign((0, 2), 2)
    res = repair_exchange_pair(col, (0, 1), (0, 2))
    assert res.accepted
    assert res.coloring.color_of((0, 1)) == 2
    assert res.coloring.color_of((0, 2)) == 1


def test_repair_exchange_rejects_improper():
    # path a-b-c-d colored 1,2,1: swapping ab and bc makes bc,cd both 1
    p = path(3)
    col = EdgeColoring(p, 3)
    for e, c in {(0, 1): 1, (1, 2): 2, (2, 3): 1}.items():
        col.assign(e, c)
    res = repair_exchange_pair(col, (0, 1), (1, 2))
    assert not res.accepted
    assert res.blocking[0] == "improper"


def test_repair_exchange_rejects_cycle():
    # C4 0-1-2-3 plus the pendant edge (0,4); swapping (0,1) and (0,4) is
    # proper but makes the square alternate 1,2,1,2
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    col = EdgeColoring(g, 3)
    for e, c in {(0, 1): 3, (1, 2): 2, (2, 3): 1, (0, 3): 2, (0, 4): 1}.items():
        col.assign(e, c)
    assert verify(col).ok
    res = repair_exchange_pair(col, (0, 1), (0, 4))
    assert not res.accepted
    assert res.blocking == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert col.color_of((0, 1)) == 3 and col.color_of((0, 4)) == 1  # input untouched


def test_repair_exchange_requires_shared_vertex():
    p = path(3)
    col = EdgeColoring(p, 3)
    for e, c in {(0, 1): 1, (1, 2): 2, (2, 3): 1}.items():
        col.assign(e, c)
    with pytest.raises(ValueError):
        repair_exchange_pair(col, (0, 1), (2, 3))


def test_repair_exchange_unblocks_stuck_edge():
    # Stuck pattern at desk scale: edge (w, w0) has a single available
    # color which is blocked by a critical path through w's 1-edge;
    # exchanging the colors on w's two edges breaks the path.
    # w=0, w0=1, w1=2, w2=3, x=4, y=5
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (2, 4), (1, 4), (1, 5)])
    col = EdgeColoring(g, 4)
    col.assign((0, 2), 1)
    col.assign((0, 3), 2)
    col.assign((2, 4), 4)
    col.assign((1, 4), 1)
    col.assign((1, 5), 3)
    assert verify(col).ok
    stuck = (0, 1)
    assert col.available_colors(stuck) == {4}
    assert col.valid_colors(stuck) == set()  # 4 blocked: critical 1,4 path 0-2-4-1
    res = repair_exchange_pair(col, (0, 2), (0, 3))
    assert res.accepted
    fixed = res.coloring
    assert fixed.valid_colors(stuck) == {4}
    fixed.assign(stuck, 4)
    assert verify(fixed).ok


def test_heuristic_recovers_via_repairs_at_tight_palette():
    # the greedy pass gets stuck on both at palette = exact index; the
    # budgeted search backtracks out of it and colors both at once
    for g, kappa in ((prism(), 4), (complete_bipartite(4, 4), 5)):
        out = heuristic_color(g, kappa, seed=0)
        assert out is not None and verify(out.coloring).ok
        assert (out.moves, out.restarts_used, out.colors_used) == ([], 0, kappa)


def _subdivided_grid(seed):
    """The 20x20 grid with 100 distinct edges subdivided: n = 500, m = 860."""
    b = grid_builder(20, 20)
    for u, v in random.Random(seed).sample(sorted(b.edges), 100):
        b.subdivide(u, v)
    return b.to_drawing().base


# Rooted searches heuristic_color(g, 4) runs on _subdivided_grid(seed), by
# seed. The peeling order's search colors the 0 entries and spends its
# budget on the other 24, which BFS orders then color: the acyclic index
# of every grid is its max degree, 4.
ROOTED_SEARCHES = {
    0: 4, 1: 0, 2: 1, 3: 3, 4: 2, 5: 1, 6: 0, 7: 1, 8: 1, 9: 0,
    10: 0, 11: 1, 12: 1, 13: 1, 14: 0, 15: 2, 16: 1, 17: 2, 18: 1, 19: 1,
    20: 6, 21: 4, 22: 1, 23: 2, 24: 0, 25: 1, 26: 2, 27: 1, 28: 2, 29: 1,
}


def _recorded_kernel(monkeypatch, backend):
    """Route kernel.find_coloring to backend; returns the list of
    (max_nodes, answer) pairs it records."""
    calls = []

    def find_coloring(*args):
        calls.append((args[5], backend.find_coloring(*args)))
        return calls[-1][1]

    monkeypatch.setattr(kernel, "find_coloring", find_coloring)
    return calls


@pytest.mark.parametrize("impl", ["python", "c"])
def test_spent_node_budget_falls_back_in_bounded_time(monkeypatch, request, impl):
    # all 30 grids on the C kernel; on the slower Python kernel the 10
    # that need two or more rooted searches
    if impl == "c":
        backend, seeds = request.getfixturevalue("c_kernel"), sorted(ROOTED_SEARCHES)
    else:
        backend = _kernel_py
        seeds = [s for s, used in ROOTED_SEARCHES.items() if used >= 2]
        assert len(seeds) == 10
    calls = _recorded_kernel(monkeypatch, backend)
    for seed in seeds:
        g = _subdivided_grid(seed)
        assert (g.n, g.m, g.max_degree()) == (500, 860, 4)
        calls.clear()
        t0 = time.perf_counter()
        out = heuristic_color(g, 4)
        assert time.perf_counter() - t0 < 10, seed
        assert out is not None and verify(out.coloring).ok, seed
        assert out.colors_used == 4
        used = ROOTED_SEARCHES[seed]
        assert out.restarts_used == used, seed
        # every search runs under the same node budget; all but the last
        # spend it
        assert [budget for budget, _ in calls] == [100 * g.m] * (used + 1)
        assert [answer is False for _, answer in calls] == [True] * used + [False]


def test_rooted_searches_stop_at_the_restart_cap(monkeypatch, c_kernel):
    g = _subdivided_grid(20)  # colored by its 6th rooted search
    calls = _recorded_kernel(monkeypatch, c_kernel)
    assert heuristic_color(g, 4, restarts=4) is None
    assert [answer for _, answer in calls] == [False] * 6  # peeling order, 5 roots
    calls.clear()
    # a larger cap keeps the earlier roots
    assert heuristic_color(g, 4, restarts=5).restarts_used == 6
    assert len(calls) == 7
    with pytest.raises(ValueError):
        heuristic_color(g, 4, restarts=-1)
    with pytest.raises(ValueError):
        heuristic_color(cycle(4), 3, restarts=-1)  # rejected before any search
    assert len(calls) == 7


def test_bfs_edge_order_lists_every_edge_once():
    # two components, the root in the second; the search then restarts at 0
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6), (4, 6)])
    order = solver._bfs_edge_order(g, 5)
    assert order == [(4, 5), (5, 6), (3, 4), (4, 6), (3, 6), (0, 1), (0, 2), (1, 2)]
    for root in range(g.n):
        assert sorted(solver._bfs_edge_order(g, root)) == list(g.edges)


def test_search_refutation_above_max_degree_skips_repairs(monkeypatch):
    # K4 needs 5 colors; 4 is above its max degree and the lower bound
    assert solver.acyclic_lower_bound(complete(4)) == 4
    calls = _recorded_kernel(monkeypatch, _kernel_py)
    assert heuristic_color(complete(4), 4) is None
    assert calls == [(100 * 6, None)]  # one search, on the peeling order


def test_repair_moves_preserve_colored_count():
    c4 = cycle(4)
    col = EdgeColoring(c4, 4)
    for e, c in {(0, 1): 3, (1, 2): 2, (2, 3): 1, (0, 3): 2}.items():
        col.assign(e, c)
    before = col.colored_count
    res = repair_recolor_single(col, (0, 1), 4)
    if res.accepted:
        assert res.coloring.colored_count == before
    res = repair_exchange_pair(col, (0, 1), (1, 2))
    if res.accepted:
        assert res.coloring.colored_count == before


# -- the valid_colors gate against a from-scratch verify ------------------------


@st.composite
def proper_acyclic_colorings(draw):
    """A random, nearly total coloring of a small random bipartite graph
    (many even cycles), proper and acyclic by construction: each edge
    takes the first color from a drawn offset that still verifies."""
    n = draw(st.integers(4, 8))
    pool = [(i, j) for i in range(n // 2) for j in range(n // 2, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, min_size=4, max_size=12))
    g = Graph(n, edges)
    kappa = g.max_degree() + draw(st.integers(0, 1))
    col = EdgeColoring(g, kappa)
    for e in draw(st.permutations(list(g.edges))):
        start = draw(st.integers(0, kappa - 1))
        for c in ((start + i) % kappa + 1 for i in range(kappa)):
            if c in col.available_colors(e):
                col.assign(e, c)
                if verify(col).ok:
                    break
                col.uncolor(e)
    return col


def _moved(col, pairs):
    """Apply the moves with no acyclicity check: the moved coloring, or
    None when some move is improper."""
    trial = col.copy()
    for e, _ in pairs:
        trial.uncolor(e)
    try:
        for e, c in pairs:
            trial.assign(e, c)
    except ValueError:
        return None
    return trial


def _check_gate(col, before, res, moved):
    assert col.colored_edges() == before  # the input is left unchanged
    if moved is None:
        assert not res.accepted
        return
    rep = verify(moved)
    assert rep.proper
    assert res.accepted == rep.ok
    if res.accepted:
        assert res.coloring == moved
    else:
        assert res.blocking == rep.cycle


@settings(max_examples=100, deadline=None)
@given(proper_acyclic_colorings())
def test_recolor_gate_matches_verify(col):
    before = col.colored_edges()
    for e in sorted(before):
        for c in range(1, col.kappa + 1):
            res = repair_recolor_single(col, e, c)
            _check_gate(col, before, res, _moved(col, [(e, c)]))


@settings(max_examples=100, deadline=None)
@given(proper_acyclic_colorings())
def test_exchange_gate_matches_verify(col):
    before = col.colored_edges()
    for a, b in combinations(sorted(before), 2):
        if set(a) & set(b):
            res = repair_exchange_pair(col, a, b)
            _check_gate(col, before, res, _moved(col, [(a, before[b]), (b, before[a])]))
