"""Unit tests for the search-space partitioning (Algorithm 2)."""

import pytest
from _helpers import planted_ba, random_graph_cases, vertex_sets

from repro.api import EnumerationRequest, KPlexEngine
from repro.baselines.brute_force import brute_force_vertex_sets
from repro.core import seeds as seeds_module
from repro.core.branch import BranchSearcher
from repro.core.config import EnumerationConfig
from repro.core.pruning import corollary_52_keep
from repro.core.seeds import (
    build_seed_context,
    iter_seed_contexts,
    iter_subtasks,
    seed_passes_gate,
)
from repro.core.stats import SearchStatistics
from repro.graph import Graph, generators
from repro.graph.prepared import invalidate, prepare
from repro.parallel import ParallelConfig
from repro.graph.bitset import bits_to_list, contains
from repro.graph.core_decomposition import core_decomposition


def _contexts_for(graph, k, q, config=None):
    config = config or EnumerationConfig.ours()
    stats = SearchStatistics()
    contexts = [
        (seed, context)
        for seed, context in iter_seed_contexts(graph, k, q, config, stats)
    ]
    return contexts, stats


def test_seed_contexts_cover_all_seeds_in_order():
    graph = generators.relaxed_caveman(3, 6, 0.2, seed=1)
    contexts, _ = _contexts_for(graph, 2, 4)
    order = core_decomposition(graph).order
    assert [seed for seed, _ in contexts] == order


def test_candidates_are_later_neighbors_of_seed():
    graph = generators.erdos_renyi(20, 0.3, seed=2)
    config = EnumerationConfig.ours().with_changes(use_seed_pruning=False)
    decomposition = core_decomposition(graph)
    position = decomposition.position()
    for seed, context in iter_seed_contexts(graph, 2, 3, config, SearchStatistics()):
        if context is None:
            continue
        assert context.subgraph.parent_of(context.seed_local) == seed
        candidates = context.subgraph.parents_of_mask(context.candidate_mask)
        for vertex in candidates:
            assert graph.has_edge(seed, vertex)
            assert position[vertex] > position[seed]
        two_hop = context.subgraph.parents_of_mask(context.two_hop_mask)
        for vertex in two_hop:
            assert not graph.has_edge(seed, vertex)
            assert position[vertex] > position[seed]


def test_external_vertices_are_earlier_within_two_hops():
    graph = generators.erdos_renyi(20, 0.3, seed=3)
    decomposition = core_decomposition(graph)
    position = decomposition.position()
    for seed, context in iter_seed_contexts(graph, 2, 3, EnumerationConfig.ours(), SearchStatistics()):
        if context is None:
            continue
        reachable = graph.neighborhood_within_two_hops(seed)
        for vertex in context.external_vertices:
            assert position[vertex] < position[seed]
            assert vertex in reachable


def test_small_seed_neighbourhoods_are_skipped():
    graph = generators.star_graph(5)
    contexts, stats = _contexts_for(graph, 2, 4)
    assert all(context is None for _, context in contexts)
    assert stats.seeds_pruned_empty == graph.num_vertices


def test_subtask_counts_respect_k_limit():
    graph = generators.erdos_renyi(16, 0.4, seed=4)
    config = EnumerationConfig.ours().with_changes(
        use_pair_pruning=False, use_seed_upper_bound=False
    )
    for k in (1, 2, 3):
        for seed, context in iter_seed_contexts(graph, k, max(2 * k - 1, 3), config, SearchStatistics()):
            if context is None:
                continue
            tasks = list(iter_subtasks(context, k, max(2 * k - 1, 3), config, SearchStatistics()))
            seed_bit = 1 << context.seed_local
            for task in tasks:
                assert task.p_mask & seed_bit
                s_mask = task.p_mask & ~seed_bit
                assert s_mask.bit_count() <= k - 1
                # S is drawn from the seed's non-neighbours only.
                assert s_mask & ~context.two_hop_mask == 0
                # Candidates are always seed neighbours.
                assert task.c_mask & ~context.candidate_mask == 0
            # Without pair pruning / R1, the number of sub-tasks equals the
            # number of subsets of the two-hop set with size < k.
            two_hop_size = context.two_hop_mask.bit_count()
            expected = sum(
                _choose(two_hop_size, size) for size in range(0, k)
            )
            assert len(tasks) == expected


def _choose(n, r):
    from math import comb

    return comb(n, r)


def test_r1_prunes_subtasks_and_counts_them():
    graph = generators.relaxed_caveman(4, 7, 0.3, seed=6)
    k, q = 3, 7
    config_with = EnumerationConfig.ours().with_changes(use_pair_pruning=False)
    config_without = config_with.with_changes(use_seed_upper_bound=False)
    stats_with = SearchStatistics()
    stats_without = SearchStatistics()
    with_tasks = 0
    without_tasks = 0
    for _seed, context in iter_seed_contexts(graph, k, q, config_with, stats_with):
        if context is not None:
            with_tasks += sum(1 for _ in iter_subtasks(context, k, q, config_with, stats_with))
    for _seed, context in iter_seed_contexts(graph, k, q, config_without, stats_without):
        if context is not None:
            without_tasks += sum(
                1 for _ in iter_subtasks(context, k, q, config_without, stats_without)
            )
    assert with_tasks <= without_tasks
    if with_tasks < without_tasks:
        assert stats_with.subtasks_pruned_by_seed_bound > 0


def test_pair_pruning_shrinks_subtask_candidates():
    graph = generators.relaxed_caveman(4, 7, 0.3, seed=8)
    k, q = 2, 6
    base = EnumerationConfig.ours().with_changes(use_seed_upper_bound=False)
    no_pairs = base.with_changes(use_pair_pruning=False)
    total_with = 0
    total_without = 0
    for _seed, context in iter_seed_contexts(graph, k, q, base, SearchStatistics()):
        if context is not None:
            total_with += sum(
                task.c_mask.bit_count()
                for task in iter_subtasks(context, k, q, base, SearchStatistics())
            )
    for _seed, context in iter_seed_contexts(graph, k, q, no_pairs, SearchStatistics()):
        if context is not None:
            total_without += sum(
                task.c_mask.bit_count()
                for task in iter_subtasks(context, k, q, no_pairs, SearchStatistics())
            )
    assert total_with <= total_without


def test_build_seed_context_returns_none_when_pruned_below_q():
    graph = generators.path_graph(8)
    decomposition = core_decomposition(graph)
    position = decomposition.position()
    context = build_seed_context(
        graph, position, decomposition.order[0], 2, 6, EnumerationConfig.ours(), SearchStatistics()
    )
    assert context is None


def test_degrees_match_subgraph():
    graph = generators.erdos_renyi(18, 0.35, seed=9)
    for _seed, context in iter_seed_contexts(graph, 2, 4, EnumerationConfig.ours(), SearchStatistics()):
        if context is None:
            continue
        for local in range(context.subgraph.size):
            assert context.degrees[local] == context.subgraph.degree(local)
        if context.pair_ok is not None:
            assert len(context.pair_ok) == context.subgraph.size


# --------------------------------------------------------------------------- #
# The seed gate (neighbour half of Corollary 5.2, before two-hop expansion)
# --------------------------------------------------------------------------- #
def _context_fields(context):
    return (
        context.seed_vertex,
        context.subgraph.vertices,
        context.subgraph.adjacency,
        context.seed_local,
        context.candidate_mask,
        context.two_hop_mask,
        context.external_vertices,
        context.external_adjacency,
        context.degrees,
        context.pair_ok,
    )


def _result_count(context, k, q, config):
    found = []
    searcher = BranchSearcher(
        context, k, q, config, SearchStatistics(), on_result=found.append
    )
    for task in iter_subtasks(context, k, q, config, SearchStatistics()):
        searcher.run_subtask(task)
    return len(found)


def _gate_cases():
    yield generators.relaxed_caveman(4, 7, 0.3, seed=6), 2, 6
    yield generators.relaxed_caveman(4, 7, 0.3, seed=6), 3, 7
    yield generators.erdos_renyi(40, 0.25, seed=11), 2, 5
    yield planted_ba(400, 3, 3, 9, seed=4), 2, 7
    yield planted_ba(400, 4, 2, 10, seed=5), 3, 8


def _compare_gated_with_ungated(graph, k, q, monkeypatch):
    """Build every seed of the (q-k)-core with and without the gate.

    Asserts that seeds past the gate are built exactly as before and that
    every context the gate drops holds no result; returns how many it drops.
    """
    config = EnumerationConfig.ours()
    core = prepare(graph).prepared_core(q - k)[0]
    core_graph, position = core.graph, core.position
    order = core.decomposition.order
    gated = {
        seed: build_seed_context(core_graph, position, seed, k, q, config)
        for seed in order
    }
    with monkeypatch.context() as patch:
        patch.setattr(seeds_module, "seed_passes_gate", lambda *args: True)
        ungated = {
            seed: build_seed_context(core_graph, position, seed, k, q, config)
            for seed in order
        }
    dropped = 0
    for seed in order:
        if seed_passes_gate(core_graph, position, seed, k, q, config):
            assert (gated[seed] is None) == (ungated[seed] is None)
            if gated[seed] is not None:
                assert _context_fields(gated[seed]) == _context_fields(ungated[seed])
                reach = core_graph.neighborhood_within_two_hops(seed)
                later = {v for v in reach if position[v] > position[seed]} | {seed}
                kept = corollary_52_keep(core_graph, seed, later, k, q)
                assert set(gated[seed].subgraph.vertices) == kept
        else:
            assert gated[seed] is None
            if ungated[seed] is not None:
                dropped += 1
                assert _result_count(ungated[seed], k, q, config) == 0
    return dropped


@pytest.mark.parametrize("graph,k,q", list(_gate_cases()))
def test_gate_keeps_contexts_identical_and_drops_only_empty_ones(
    graph, k, q, monkeypatch
):
    _compare_gated_with_ungated(graph, k, q, monkeypatch)


def test_gate_drops_contexts_that_hold_no_result(monkeypatch):
    # Two-hop vertices can fill a seed subgraph up to q even though fewer
    # than q - k of the seed's neighbours survive; no k-plex fits there.
    graph = generators.erdos_renyi(30, 0.3, seed=7)
    assert _compare_gated_with_ungated(graph, 4, 9, monkeypatch) >= 1
    assert _compare_gated_with_ungated(graph, 3, 8, monkeypatch) >= 1


def test_gate_is_off_without_seed_pruning():
    graph = planted_ba(200, 3, 1, 8, seed=2)
    config = EnumerationConfig.ours().with_changes(use_seed_pruning=False)
    position = prepare(graph).position
    assert all(
        seed_passes_gate(graph, position, seed, 2, 7, config) for seed in graph.vertices()
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gated_solvers_match_brute_force_on_random_graphs(k):
    engine = KPlexEngine()
    parallel = ParallelConfig(num_workers=2, use_processes=False)
    for graph in random_graph_cases(8, max_vertices=12, seed=40 + k):
        for q in range(2 * k - 1, 2 * k + 4):
            expected = brute_force_vertex_sets(graph, k, q)
            ours = engine.solve(EnumerationRequest(graph=graph, k=k, q=q, solver="ours"))
            assert vertex_sets(ours.kplexes) == expected, (k, q)
            threaded = engine.solve(
                EnumerationRequest(
                    graph=graph, k=k, q=q, solver="parallel",
                    options={"parallel": parallel},
                )
            )
            assert vertex_sets(threaded.kplexes) == expected, (k, q)


def test_parallel_driver_skips_gated_seeds_with_matching_statistics():
    graph = planted_ba(600, 3, 3, 9, seed=8)
    k, q = 2, 7
    engine = KPlexEngine()
    sequential = engine.solve(EnumerationRequest(graph=graph, k=k, q=q))
    invalidate(graph)
    processes = engine.solve(
        EnumerationRequest(
            graph=graph, k=k, q=q, solver="parallel",
            options={"parallel": ParallelConfig(num_workers=2, use_processes=True)},
        )
    )
    assert vertex_sets(processes.kplexes) == vertex_sets(sequential.kplexes)
    assert processes.statistics.seeds == sequential.statistics.seeds
    assert (
        processes.statistics.seeds_pruned_empty
        == sequential.statistics.seeds_pruned_empty
    )


def test_two_hop_expansion_runs_only_for_seeds_past_the_gate(monkeypatch):
    # A cost guard by counter, not by timing: before the gate every one of
    # the 2000 seeds paid a two-hop expansion.
    graph = planted_ba(2000, 5, 4, 10, seed=3)
    k, q = 2, 7
    config = EnumerationConfig.ours()
    core = prepare(graph).prepared_core(q - k)[0]
    passing = [
        seed for seed in core.graph.vertices()
        if seed_passes_gate(core.graph, core.position, seed, k, q, config)
    ]
    calls = []
    original = Graph.two_hop_neighbors

    def counting(self, vertex):
        calls.append(vertex)
        return original(self, vertex)

    monkeypatch.setattr(Graph, "two_hop_neighbors", counting)
    response = KPlexEngine().solve(EnumerationRequest(graph=graph, k=k, q=q))
    stats = response.statistics
    assert stats.seeds + stats.seeds_pruned_empty == graph.num_vertices
    assert sorted(calls) == sorted(passing)
    # Seeds past the gate whose two-hop vertices all fail Corollary 5.2 are
    # the only expansions that build no context.
    assert 0 < stats.seeds <= len(calls) <= 2 * stats.seeds
    assert len(calls) < graph.num_vertices // 50
