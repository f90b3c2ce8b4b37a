"""Traced run: per-layer metrics from the benchmark's own spans.

The same layer sweep runs on every workload's inputs:

1. the enumeration pipeline re-driven through public functions
   (``prepare``, ``.csr``, ``prepared_core``, ``.position``,
   ``iter_seed_contexts``, ``iter_subtasks``, ``BranchSearcher.run_subtask``,
   ``KPlex.from_vertices``), once with a span around every call into a layer
   and once without, next to a cold ``KPlexEngine.solve`` that must return
   the same family and whose wall time the layers must account for;
2. the real parallel executor (2 worker processes) against the sequential
   solve, plus the shared-memory publish and attach it relies on;
3. an in-process ``start_server`` under the serve mix, with every
   ``KPlexService.submit`` wrapped in a span;
4. a single-replica ``serve-cluster`` subprocess: cache-hit latency through
   the router against the same replica addressed directly.

The layers' spans do not nest, so a layer's self time is its spans' summed
duration.
"""

from __future__ import annotations

import json
import multiprocessing
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from hostref import RefClock
from inputs import Input
from oracle import Oracle, digest, label_sets
from serving import Children, Conn, ServeMix, boot_url, register_body, register_once, solve_once

#: per-layer metric -> (end-to-end metric it should move, workloads).
LAYER_TARGETS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "graph.ingest_s": ("setup_s", ("dense-bnb", "sparse-scale", "serve-mix")),
    "graph.csr_s": ("solve_ref", ("sparse-scale",)),
    "graph.core_s": ("solve_ref", ("sparse-scale",)),
    "graph.order_s": ("solve_ref", ("sparse-scale",)),
    "graph.core_vertices": ("solve_ref", ("sparse-scale",)),
    "core.seeds.build_s": ("solve_ref", ("sparse-scale", "dense-bnb")),
    "core.seeds.attempted": ("solve_ref", ("sparse-scale",)),
    "core.seeds.built": ("solve_ref", ("sparse-scale",)),
    "core.seeds.useful_ratio": ("solve_ref", ("sparse-scale",)),
    "core.seeds.subgraph_vertices": ("solve_ref", ("sparse-scale",)),
    "core.pruning.corollary_removed": ("first_result_ref", ("dense-bnb",)),
    "core.subtasks.gen_s": ("solve_ref", ("dense-bnb",)),
    "core.subtasks.count": ("solve_ref", ("dense-bnb",)),
    "core.subtasks.pruned_r1": ("solve_ref", ("dense-bnb",)),
    "core.branch.search_s": ("solve_ref", ("dense-bnb",)),
    "core.branch.calls": ("solve_ref", ("dense-bnb",)),
    "core.branch.ub_pruned": ("solve_ref", ("dense-bnb",)),
    "core.branch.pair_pruned": ("solve_ref", ("dense-bnb",)),
    "core.branch.maximality_rejections": ("solve_ref", ("dense-bnb",)),
    "core.branch.yield_ratio": ("solve_ref", ("dense-bnb",)),
    "core.kplex.materialise_s": ("solve_ref", ("dense-bnb",)),
    "core.kplex.results": ("solve_ref", ("dense-bnb",)),
    "api.engine.overhead_s": ("solve_ref", ("dense-bnb", "sparse-scale")),
    "api.engine.first_result_s": ("first_result_ref", ("dense-bnb",)),
    "parallel.wall_s": ("solve_ref", ()),
    "parallel.speedup": ("solve_ref", ()),
    "parallel.share_s": ("solve_ref", ()),
    "parallel.attach_s": ("solve_ref", ()),
    "service.cache.hits": ("hit_p50_ref", ("serve-mix",)),
    "service.cache.misses": ("miss_p50_ref", ("serve-mix",)),
    "service.cache.hit_ratio": ("hit_p50_ref", ("serve-mix",)),
    "service.hit_s": ("hit_p50_ref", ("serve-mix",)),
    "service.miss_s": ("miss_p50_ref", ("serve-mix",)),
    "server.http_s": ("hit_p50_ref", ("serve-mix",)),
    "server.register_s": ("miss_p50_ref", ("serve-mix",)),
    "cluster.router.hop_s": ("hit_p50_ref", ()),
    "bench.host_ref_s": ("solve_ref", ("dense-bnb", "sparse-scale", "serve-mix")),
    "bench.trace_overhead_ratio": ("solve_ref", ()),
}

#: Layer self times plus the engine overhead must match the engine wall
#: time within this share.
ACCOUNTING_TOLERANCE = 0.25
PROBE_WINDOWS = 2
PROBE_WINDOW_SECONDS = 1.5
HOP_PAIRS = 60


LAYERS = ("csr", "core", "order", "seeds", "subtasks", "branch", "materialise")


def redrive(item: Input, graph):
    """Run the enumeration through the layers' public functions, timing each call."""
    from repro import EnumerationConfig, KPlex, SearchStatistics
    from repro.core.branch import BranchSearcher
    from repro.core.seeds import iter_seed_contexts, iter_subtasks
    from repro.graph.prepared import prepare

    clock = time.perf_counter
    k, q = item.k, item.q
    config = EnumerationConfig.ours()
    stats = SearchStatistics()
    spent = dict.fromkeys(LAYERS, 0.0)
    counts = {"attempted": 0, "built": 0, "core_vertices": 0}
    plexes = []
    started = time.perf_counter()
    prepared = prepare(graph)
    t = clock(); prepared.csr; spent["csr"] += clock() - t
    t = clock(); core, vertex_map = prepared.prepared_core(q - k); spent["core"] += clock() - t
    core_graph = core.graph
    counts["core_vertices"] = core_graph.num_vertices
    if core_graph.num_vertices >= q:
        t = clock(); core.position; spent["order"] += clock() - t
        seeds = iter_seed_contexts(core_graph, k, q, config, stats, prepared=core)
        while True:
            t = clock(); step = next(seeds, None); spent["seeds"] += clock() - t
            if step is None:
                break
            counts["attempted"] += 1
            context = step[1]
            if context is None:
                continue
            counts["built"] += 1
            masks: List[int] = []
            searcher = BranchSearcher(context, k, q, config, stats, on_result=masks.append)
            tasks = iter_subtasks(context, k, q, config, stats)
            while True:
                t = clock(); task = next(tasks, None); spent["subtasks"] += clock() - t
                if task is None:
                    break
                t = clock(); searcher.run_subtask(task); spent["branch"] += clock() - t
            t = clock()
            for mask in masks:
                members = [vertex_map[v] for v in context.subgraph.parents_of_mask(mask)]
                plexes.append(KPlex.from_vertices(graph, members, k))
            spent["materialise"] += clock() - t
    wall = time.perf_counter() - started
    return plexes, spent, counts, stats, wall


def redrive_plain(item: Input, graph):
    """:func:`redrive` without the clock calls: the untraced pipeline."""
    from repro import EnumerationConfig, KPlex, SearchStatistics
    from repro.core.branch import BranchSearcher
    from repro.core.seeds import iter_seed_contexts, iter_subtasks
    from repro.graph.prepared import prepare

    k, q = item.k, item.q
    config = EnumerationConfig.ours()
    stats = SearchStatistics()
    plexes = []
    started = time.perf_counter()
    prepared = prepare(graph)
    prepared.csr
    core, vertex_map = prepared.prepared_core(q - k)
    if core.graph.num_vertices >= q:
        core.position
        for _seed, context in iter_seed_contexts(core.graph, k, q, config, stats, prepared=core):
            if context is None:
                continue
            masks: List[int] = []
            searcher = BranchSearcher(context, k, q, config, stats, on_result=masks.append)
            for task in iter_subtasks(context, k, q, config, stats):
                searcher.run_subtask(task)
            for mask in masks:
                members = [vertex_map[v] for v in context.subgraph.parents_of_mask(mask)]
                plexes.append(KPlex.from_vertices(graph, members, k))
    return plexes, time.perf_counter() - started


def _median_sum(per_input: Dict[str, List[float]]) -> float:
    return sum(statistics.median(v) for v in per_input.values())


class TraceRun:
    def __init__(
        self, inputs: Sequence[Input], seconds: float, oracle: Oracle, children: Children,
        seed: int, min_reps: int = 3,
    ) -> None:
        self.inputs = list(inputs)
        self.min_reps = min_reps
        self.seconds = seconds
        self.oracle = oracle
        self.children = children
        self.seed = seed
        self.metrics: Dict[str, float] = {}
        self.report: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def _check(self, item: Input, k: int, q: int, plexes) -> None:
        self.attempted += 1
        got = digest(label_sets(p.labels for p in plexes))
        if not self.oracle.check(item, k, q, got):
            self._fail(f"{item.key}: family at k={k} q={q} differs from the oracle")

    # 1. pipeline -------------------------------------------------------- #
    def pipeline(self, budget: float) -> None:
        from repro import EnumerationRequest, Graph, KPlexEngine
        from repro.graph.prepared import invalidate

        engine = KPlexEngine()
        ingest = defaultdict(list)
        layers: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
        traced_wall, untraced_wall, engine_wall, first = (defaultdict(list) for _ in range(4))
        # Per rep and input, in reference units: (layer self sum + engine
        # overhead) and the engine's wall time, for the accounting check.
        accounted_ref, engine_ref = defaultdict(list), defaultdict(list)
        counters: Dict[str, Dict[str, float]] = {}
        clock = RefClock()

        def timed(fn):
            clock.mark()
            result = fn()
            return result, sum(clock.bracket()) / 2

        started = time.perf_counter()
        reps = 0
        while reps < self.min_reps or time.perf_counter() - started < budget:
            for item in self.inputs:
                t0 = time.perf_counter()
                graph = Graph.from_edges(item.edges, vertices=item.vertices)
                ingest[item.key].append(time.perf_counter() - t0)
                (plexes, spent, counts, stats, wall), ref_t = timed(lambda: redrive(item, graph))
                traced_wall[item.key].append(wall)
                for name, value in spent.items():
                    layers[name][item.key].append(value)
                self._check(item, item.k, item.q, plexes)
                invalidate(graph)
                (plain, wall_u), ref_u = timed(lambda: redrive_plain(item, graph))
                untraced_wall[item.key].append(wall_u)
                self._check(item, item.k, item.q, plain)
                invalidate(graph)
                first_at: List[float] = []
                request = EnumerationRequest(graph=graph, k=item.k, q=item.q)

                def solve(first_at=first_at, request=request):
                    t0 = time.perf_counter()
                    response = engine.solve(
                        request,
                        on_progress=lambda _e: first_at or first_at.append(time.perf_counter()),
                    )
                    wall = time.perf_counter() - t0
                    return response, wall, ((first_at[0] - t0) if first_at else wall)

                (response, wall_e, first_s), ref_e = timed(solve)
                engine_wall[item.key].append(wall_e)
                first[item.key].append(first_s)
                accounted_ref[item.key].append(
                    sum(spent.values()) / ref_t + wall_e / ref_e - wall_u / ref_u
                )
                engine_ref[item.key].append(wall_e / ref_e)
                self._check(item, item.k, item.q, response.kplexes)
                if label_sets(p.labels for p in response.kplexes) != label_sets(p.labels for p in plexes):
                    self._fail(f"{item.key}: re-driven family differs from KPlexEngine.solve")
                counters[item.key] = {
                    "core_vertices": counts["core_vertices"],
                    "attempted": counts["attempted"],
                    "built": counts["built"],
                    "subgraph_vertices": stats.seed_subgraph_vertices,
                    "corollary_removed": stats.vertices_pruned_by_corollary,
                    "subtasks": stats.subtasks,
                    "pruned_r1": stats.subtasks_pruned_by_seed_bound,
                    "calls": stats.branch_calls,
                    "ub_pruned": stats.branches_pruned_by_upper_bound,
                    "pair_pruned": stats.candidates_pruned_by_pairs,
                    "maximality_rejections": stats.maximality_rejections,
                    "results": len(plexes),
                }
            reps += 1

        self_times = {name: _median_sum(per_input) for name, per_input in layers.items()}
        engine_s = _median_sum(engine_wall)
        untraced_s = _median_sum(untraced_wall)
        traced_s = _median_sum(traced_wall)
        overhead = engine_s - untraced_s
        share = _median_sum(accounted_ref) / _median_sum(engine_ref)
        if abs(share - 1) > ACCOUNTING_TOLERANCE:
            self._fail(
                f"layer self times plus engine overhead account for {share:.3f} "
                "of the engine's wall time"
            )
        total = lambda name: float(sum(c[name] for c in counters.values()))  # noqa: E731
        calls = total("calls")
        m = self.metrics
        m["graph.ingest_s"] = _median_sum(ingest)
        m["graph.csr_s"] = self_times.get("csr", 0.0)
        m["graph.core_s"] = self_times.get("core", 0.0)
        m["graph.order_s"] = self_times.get("order", 0.0)
        m["graph.core_vertices"] = total("core_vertices")
        m["core.seeds.build_s"] = self_times.get("seeds", 0.0)
        m["core.seeds.attempted"] = total("attempted")
        m["core.seeds.built"] = total("built")
        m["core.seeds.useful_ratio"] = total("built") / max(total("attempted"), 1.0)
        m["core.seeds.subgraph_vertices"] = total("subgraph_vertices")
        m["core.pruning.corollary_removed"] = total("corollary_removed")
        m["core.subtasks.gen_s"] = self_times.get("subtasks", 0.0)
        m["core.subtasks.count"] = total("subtasks")
        m["core.subtasks.pruned_r1"] = total("pruned_r1")
        m["core.branch.search_s"] = self_times.get("branch", 0.0)
        m["core.branch.calls"] = calls
        m["core.branch.ub_pruned"] = total("ub_pruned")
        m["core.branch.pair_pruned"] = total("pair_pruned")
        m["core.branch.maximality_rejections"] = total("maximality_rejections")
        m["core.branch.yield_ratio"] = total("results") / max(calls, 1.0)
        m["core.kplex.materialise_s"] = self_times.get("materialise", 0.0)
        m["core.kplex.results"] = total("results")
        m["api.engine.overhead_s"] = overhead
        m["api.engine.first_result_s"] = _median_sum(first)
        m["bench.trace_overhead_ratio"] = traced_s / untraced_s
        m["bench.host_ref_s"] = clock.median_ref()
        self.report["pipeline"] = {
            "reps": reps,
            "engine_s": engine_s,
            "traced_s": traced_s,
            "untraced_s": untraced_s,
            "self_s": self_times,
            "accounted_share": share,
        }

    # 2. parallel -------------------------------------------------------- #
    def parallel(self) -> None:
        from repro import EnumerationRequest, Graph, KPlexEngine, ParallelConfig
        from repro import parallel_enumerate_maximal_kplexes
        from repro.graph.prepared import invalidate, prepare
        from repro.graph.shared import attach_prepared, shared_memory_available

        engine = KPlexEngine()
        sequential = parallel_s = share_s = attach_s = 0.0
        for item in self.inputs:
            graph = Graph.from_edges(item.edges, vertices=item.vertices)
            t0 = time.perf_counter()
            engine.solve(EnumerationRequest(graph=graph, k=item.k, q=item.q))
            sequential += time.perf_counter() - t0
            invalidate(graph)
            t0 = time.perf_counter()
            result = parallel_enumerate_maximal_kplexes(
                graph, item.k, item.q, ParallelConfig(num_workers=2, use_processes=True)
            )
            parallel_s += time.perf_counter() - t0
            self._check(item, item.k, item.q, result.kplexes)
            if shared_memory_available():
                core, _ = prepare(graph).prepared_core(item.q - item.k)
                core.position
                t0 = time.perf_counter()
                handle = core.share()
                share_s += time.perf_counter() - t0
                try:
                    t0 = time.perf_counter()
                    attach_prepared(handle.descriptor())
                    attach_s += time.perf_counter() - t0
                finally:
                    handle.unlink()
        self.metrics["parallel.wall_s"] = parallel_s
        self.metrics["parallel.speedup"] = sequential / parallel_s
        self.metrics["parallel.share_s"] = share_s
        self.metrics["parallel.attach_s"] = attach_s
        self.report["parallel"] = {"sequential_s": sequential, "workers": 2}
        for proc in multiprocessing.active_children():
            proc.join(timeout=10)

    # 3. service and server --------------------------------------------- #
    def serve_probe(self) -> None:
        from repro.server import start_server
        from repro.service import KPlexService, ServiceConfig

        service = KPlexService(config=ServiceConfig(max_workers=2))
        spans: Dict[str, List[float]] = defaultdict(list)
        submit = service.submit
        cache = service.result_cache

        def traced_submit(request, *args, **kwargs):
            state = "hit" if cache is not None and cache.peek(request) else "miss"
            started = time.perf_counter()
            future = submit(request, *args, **kwargs)
            future.add_done_callback(lambda _f: spans[state].append(time.perf_counter() - started))
            return future

        service.submit = traced_submit
        server = start_server(service, port=0)
        try:
            conn = Conn(server.url)
            registers = []
            for index, item in enumerate(self.inputs):
                record = register_once(conn, register_body(item, replace=False), index)
                registers.append(record.seconds)
                self._registered(record)
                self._record(solve_once(conn, item, item.k, item.q, index))
            conn.close()
            mix = ServeMix(server.url, self.inputs, self.seed)
            for window in range(PROBE_WINDOWS):
                mix.window(window, PROBE_WINDOW_SECONDS)
            for record in mix.records:
                if record.op == "register":
                    registers.append(record.seconds)
                    self._registered(record)
                else:
                    self._record(record)
            for error in mix.errors:
                self._fail(f"serve probe {error}")
            cache_stats = service.metrics()["result_cache"] or {}
        finally:
            server.drain()
        client_hits = [r.seconds for r in mix.records if r.op == "solve" and r.cache == "hit" and r.ok]
        hits, misses = float(cache_stats.get("hits", 0)), float(cache_stats.get("misses", 0))
        m = self.metrics
        m["service.cache.hits"] = hits
        m["service.cache.misses"] = misses
        m["service.cache.hit_ratio"] = hits / max(hits + misses, 1.0)
        m["service.hit_s"] = statistics.median(spans["hit"]) if spans["hit"] else 0.0
        m["service.miss_s"] = statistics.median(spans["miss"]) if spans["miss"] else 0.0
        m["server.http_s"] = (
            statistics.median(client_hits) - m["service.hit_s"] if client_hits else 0.0
        )
        m["server.register_s"] = statistics.median(registers)
        self.report["serve_probe"] = {
            "operations": len(mix.records),
            "service_spans": {state: len(v) for state, v in spans.items()},
        }

    def _registered(self, record) -> None:
        self.attempted += 1
        if not record.ok:
            self._fail(f"registering {self.inputs[record.graph].name} failed")

    def _record(self, record) -> None:
        record.decode()
        self.attempted += 1
        item = self.inputs[record.graph]
        if not record.ok:
            self._fail(f"solve {item.name} k={record.k} q={record.q} failed or did not complete")
        elif not self.oracle.check(item, record.k, record.q, record.digest):
            self._fail(f"solve {item.name} k={record.k} q={record.q} differs from the oracle")

    # 4. router hop ------------------------------------------------------ #
    def router_hop(self) -> None:
        item = self.inputs[0]
        proc = self.children.spawn(["serve-cluster", "--replicas", "1", "--port", "0", "--no-peer-warm"])
        try:
            url = boot_url(proc, timeout=90.0)
            router = Conn(url)
            _, _, data = router.call("GET", "/v1/cluster")
            replica_url = json.loads(data)["replicas"][0]["url"]
            self._registered(register_once(router, register_body(item, replace=False), 0))
            direct = Conn(replica_url)
            self._record(solve_once(router, item, item.k, item.q, 0))
            via_router, via_replica = [], []
            for _ in range(HOP_PAIRS):
                for conn, sink in ((router, via_router), (direct, via_replica)):
                    record = solve_once(conn, item, item.k, item.q, 0)
                    self._record(record)
                    sink.append(record.seconds)
            router.close()
            direct.close()
        finally:
            self.children.stop(proc)
        self.metrics["cluster.router.hop_s"] = statistics.median(via_router) - statistics.median(via_replica)

    def run(self) -> None:
        self.pipeline(budget=self.seconds * 0.5)
        self.parallel()
        self.serve_probe()
        self.router_hop()
        self.report["problems"] = self.problems
