"""Unit tests for k-core decomposition and degeneracy ordering."""

import random

import pytest
from _helpers import planted_ba

from repro.graph import Graph, generators
from repro.graph.core_decomposition import (
    core_decomposition,
    set_backed_core_decomposition,
    degeneracy,
    degeneracy_ordering,
    k_core_subgraph,
    k_core_vertices,
    shrink_to_core,
    validate_degeneracy_ordering,
)


def test_degeneracy_of_basic_graphs():
    assert degeneracy(Graph.complete(5)) == 4
    assert degeneracy(generators.cycle_graph(6)) == 2
    assert degeneracy(generators.star_graph(7)) == 1
    assert degeneracy(generators.path_graph(4)) == 1
    assert degeneracy(Graph.empty(3)) == 0


def test_degeneracy_empty_graph():
    decomposition = core_decomposition(Graph.empty(0))
    assert decomposition.order == []
    assert decomposition.degeneracy == 0


def test_ordering_is_permutation_and_valid():
    graph = generators.erdos_renyi(40, 0.15, seed=3)
    order = degeneracy_ordering(graph)
    assert sorted(order) == list(range(graph.num_vertices))
    assert validate_degeneracy_ordering(graph, order)


def test_validate_rejects_bad_ordering():
    graph = generators.star_graph(5)
    # Putting the hub first maximises its later-neighbour count (5 > D = 1).
    bad_order = [0, 1, 2, 3, 4, 5]
    assert not validate_degeneracy_ordering(graph, bad_order)
    assert not validate_degeneracy_ordering(graph, [0, 1])


def test_core_numbers_monotone_along_shells():
    graph = generators.ring_of_cliques(3, 5)
    decomposition = core_decomposition(graph)
    assert decomposition.degeneracy == 4
    shells = decomposition.shells()
    assert sum(len(members) for members in shells.values()) == graph.num_vertices


def test_position_inverse_of_order():
    graph = generators.erdos_renyi(25, 0.2, seed=9)
    decomposition = core_decomposition(graph)
    position = decomposition.position()
    for index, vertex in enumerate(decomposition.order):
        assert position[vertex] == index


def test_k_core_vertices_minimum_degree():
    graph = generators.barabasi_albert(60, 3, seed=1)
    for k in (1, 2, 3):
        core = k_core_vertices(graph, k)
        sub, _ = graph.induced_subgraph(core)
        if sub.num_vertices:
            assert min(sub.degrees()) >= k


def test_k_core_of_clique_plus_pendant():
    clique = Graph.complete(4)
    edges = list(clique.edges()) + [(0, 4)]
    graph = Graph.from_edges(edges)
    assert k_core_vertices(graph, 3) == {0, 1, 2, 3}
    assert k_core_vertices(graph, 4) == set()
    assert k_core_vertices(graph, 0) == set(range(5))


def test_k_core_subgraph_and_shrink_to_core_agree():
    graph = generators.erdos_renyi(30, 0.2, seed=4)
    first, map_first = k_core_subgraph(graph, 2)
    second, map_second = shrink_to_core(graph, 2)
    assert first == second
    assert map_first == map_second


def test_degeneracy_ordering_later_neighbours_bounded():
    graph = generators.barabasi_albert(80, 4, seed=2)
    decomposition = core_decomposition(graph)
    position = decomposition.position()
    cap = decomposition.degeneracy
    for vertex in graph.vertices():
        later = sum(1 for w in graph.neighbors(vertex) if position[w] > position[vertex])
        assert later <= cap


def _brute_force_peel(graph):
    """O(n^2) oracle: take the vertex of minimum clamped degree, then minimum id.

    A vertex's clamped degree is its degree among the remaining vertices,
    raised to the highest level peeled so far; that level is the core number
    of the vertex peeled at it.
    """
    remaining = set(graph.vertices())
    degree = [graph.degree(v) for v in graph.vertices()]
    order = []
    core_numbers = [0] * graph.num_vertices
    level = 0
    while remaining:
        vertex = min(remaining, key=lambda v: (max(degree[v], level), v))
        level = max(level, degree[vertex])
        remaining.remove(vertex)
        order.append(vertex)
        core_numbers[vertex] = level
        for neighbour in graph.neighbors(vertex):
            degree[neighbour] -= 1
    return order, core_numbers, level


def _oracle_graphs():
    rng = random.Random(7)
    yield "empty", Graph.empty(0)
    yield "isolated", Graph.empty(6)
    yield "isolated-plus-edge", Graph.from_edges([(3, 5)], vertices=range(7))
    yield "disconnected", generators.disjoint_union(
        [Graph.complete(4), generators.star_graph(5), Graph.empty(2), generators.cycle_graph(5)]
    )
    yield "disconnected-random", generators.disjoint_union(
        [generators.erdos_renyi(15, 0.3, seed=s) for s in range(3)]
    )
    for seed in range(3):
        yield f"planted-ba-{seed}", planted_ba(300, 3, 3, 9, seed=seed)
    for trial in range(25):
        n = rng.randint(1, 70)
        yield f"random-{trial}", generators.erdos_renyi(n, rng.random() * 0.4, seed=trial)


@pytest.mark.parametrize(
    "graph", [pytest.param(graph, id=name) for name, graph in _oracle_graphs()]
)
def test_peel_matches_brute_force_oracle(graph):
    order, core_numbers, degeneracy_value = _brute_force_peel(graph)
    for decomposition in (set_backed_core_decomposition(graph), core_decomposition(graph)):
        assert decomposition.order == order
        assert decomposition.core_numbers == core_numbers
        assert decomposition.degeneracy == degeneracy_value
