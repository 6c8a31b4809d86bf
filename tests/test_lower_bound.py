"""The forest-count lower bound and the solvers that use it.

The bound is checked against oracles that do not use it: the search
kernel called directly (not through ``has_acyclic_coloring``) and the
unpruned enumerator of ``tests/oracle.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acecolor import kernel
from acecolor.generate import CorpusSpec, generate_corpus
from acecolor.graph import Graph
from acecolor.solver import (
    acyclic_lower_bound,
    exact_acyclic_index,
    has_acyclic_coloring,
    heuristic_color,
)

from graphlib import complete, complete_bipartite, cycle, petersen
from oracle import acyclic_index_exhaustive, is_acyclic, is_proper


def _kernel_coloring(g, k):
    return kernel.find_coloring(
        g.n, k, [u for u, _ in g.edges], [v for _, v in g.edges], list(range(g.m))
    )


def _check_sound(g):
    bound = acyclic_lower_bound(g)
    delta = g.max_degree() if g.n else 0
    assert bound in (delta, delta + 1)
    if bound == delta + 1:
        assert _kernel_coloring(g, delta) is None
    if g.m <= 9:
        assert bound <= acyclic_index_exhaustive(g.n, list(g.edges))
    return bound


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 9), st.data())
def test_bound_is_sound_on_random_graphs(n, data):
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=16)) if pool else []
    _check_sound(Graph(n, edges))


def _tadpole():
    """C4 with a two-edge tail: the tail strips away, the C4 core stays."""
    return Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6)])


@pytest.mark.parametrize(
    "g, expect",
    [
        (Graph(0, []), 0),
        (Graph(3, []), 0),
        (Graph(2, [(0, 1)]), 1),  # 2m/(n-1) = 2, yet one color suffices
        (Graph(6, [(0, 1), (2, 3), (4, 5)]), 1),
        (cycle(3), 3),
        (cycle(4), 3),
        (cycle(7), 3),
        (Graph(7, cycle(4).edges), 3),  # three isolated vertices must not count
        (Graph(12, cycle(9).edges), 3),
        (_tadpole(), 3),
        # K4,4 or Petersen and a disjoint path, whose middle strips only after its ends
        (Graph(12, complete_bipartite(4, 4).edges + ((8, 9), (9, 10), (10, 11))), 5),
        (Graph(13, petersen().edges + ((10, 11), (11, 12))), 4),
        (petersen(), 4),
        (complete_bipartite(4, 4), 5),
        (complete_bipartite(5, 5), 6),
        (complete(8), 8),
    ],
)
def test_bound_examples(g, expect):
    assert _check_sound(g) == expect


def test_exact_search_starts_at_bound(monkeypatch):
    palettes = []

    def find_coloring(n, k, *args):
        palettes.append(k)
        return kernel_find(n, k, *args)

    kernel_find = kernel.find_coloring
    monkeypatch.setattr(kernel, "find_coloring", find_coloring)
    assert exact_acyclic_index(complete_bipartite(4, 4), 4) is None
    assert exact_acyclic_index(complete_bipartite(4, 4), 10).min_colors == 5
    assert exact_acyclic_index(cycle(6), 3).min_colors == 3
    assert palettes == [5, 3]  # no search below the bound


def test_has_acyclic_coloring_below_bound_skips_the_kernel(monkeypatch):
    def no_search(*args):
        raise AssertionError("kernel called below the lower bound")

    monkeypatch.setattr(kernel, "find_coloring", no_search)
    assert has_acyclic_coloring(complete_bipartite(5, 5), 5) is None
    assert has_acyclic_coloring(complete(8), 7) is None
    assert has_acyclic_coloring(cycle(4), 2) is None


def test_heuristic_returns_none_at_once_when_bound_exceeds_delta(monkeypatch):
    def no_search(*args):
        raise AssertionError("search run below the lower bound")

    monkeypatch.setattr(kernel, "find_coloring", no_search)
    assert heuristic_color(cycle(4), 2) is None
    assert heuristic_color(petersen(), 3) is None
    with pytest.raises(ValueError):
        heuristic_color(cycle(4), 1)  # below the max degree: still an error


# The kappa = delta misses of the heuristic on the tight-palette set of the
# pipeline benchmark, split by what proves them: the lower bound, or the
# budgeted search inside heuristic_color. The former repair misses are
# colored at delta by that search.
TIGHT = CorpusSpec(count=90, n_max=20, seed=1000)
PROVED_BY_BOUND = {
    f"named-{i}"
    for i in (1014, 1017, 1020, 1023, 1026, 1029, 1032, 1035, 1044,
              1050, 1053, 1056, 1059, 1062, 1071, 1080, 1083)
}
REFUTED_BY_SEARCH_ONLY = {"named-1008"}
FORMER_REPAIR_MISSES = {
    "subdivided-quadrangulation-1000",
    "subdivided-quadrangulation-1030",
    "subdivided-quadrangulation-1081",
    "named-1041",
    "named-1086",
}


def test_split_of_delta_misses_on_tight_set(monkeypatch):
    find_coloring = kernel.find_coloring
    calls = []

    def counted(*args):
        calls.append(args)
        return find_coloring(*args)

    monkeypatch.setattr(kernel, "find_coloring", counted)
    misses = {}
    graphs = {name: d.base for name, d in generate_corpus(TIGHT)}
    for name, g in graphs.items():
        calls.clear()
        out = heuristic_color(g, g.max_degree())
        # the lower bound answers without a search; otherwise the search
        # on the peeling order decides, and no rooted search runs
        assert len(calls) == (0 if name in PROVED_BY_BOUND else 1), name
        if out is None:
            misses[name] = g
        else:
            assert out.moves == [] and out.restarts_used == 0
    monkeypatch.undo()
    assert set(misses) == PROVED_BY_BOUND | REFUTED_BY_SEARCH_ONLY
    for name, g in misses.items():
        delta = g.max_degree()
        bound = acyclic_lower_bound(g)
        colors = _kernel_coloring(g, delta)
        assert colors is None
        if name in PROVED_BY_BOUND:
            assert bound == delta + 1
        else:
            assert bound == delta
            assert (g.n, g.m, delta) == (11, 15, 3)  # 2m = delta * (n - 1): no proof
    for name in FORMER_REPAIR_MISSES:
        g = graphs[name]
        out = heuristic_color(g, g.max_degree())
        edges = list(g.edges)
        colors = [out.coloring.color_of(e) for e in edges]
        assert is_proper(g.n, edges, colors) and is_acyclic(g.n, edges, colors)
