"""Untraced runs: the end-to-end metrics of each workload.

Library workloads (dense-bnb, sparse-scale) run pinned to one CPU, in
rounds; per round and input:

* ``solve_ref``: one cold ``KPlexEngine.solve`` on the ``invalidate``d graph;
* ``first_result_ref``: the time until that solve streams its first result
  (its first progress event), plus extra cold ``stream_run`` first results
  while they are cheap;
* ``miss_p50_ref`` / ``hit_p50_ref``: an in-process ``KPlexService`` asked
  for the input's ``fresh`` specs, which the graph's epoch has not seen, then
  for the first of them again (cache hits).

Each is the sum over inputs of the per-input median; for misses, the sum
over inputs and fresh specs, since specs differ in cost.  serve-mix drives a
``kplex-enum serve-http`` subprocess on the other CPU, under the closed-loop
mix of :class:`serving.ServeMix` run in half-second windows: ``hit_p50_ref``
is the pooled median of its cache hits and ``miss_p50_ref`` the sum over
graphs of the median miss on a fresh (k, q).  A miss on a graph's hot spec
follows a re-registration and is a cold solve, as costly as ``solve_ref``;
pooled with the cheap fresh misses it would make a two-mode median, so it is
reported apart.  Between windows a quiet phase re-registers each graph,
times the cold solve that forces (the server's own ``elapsed_seconds`` is
``solve_ref``) and streams jobs: ``first_result_ref`` sums the graphs'
trimmed means, since a job's first result over HTTP waits zero, one or two
thread hand-offs and its median jumps between those modes.  Every time
sample is divided by the mean of the reference-loop runs just before and
after it.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from hostref import RefClock, bracket_runs
from inputs import Input
from oracle import Oracle, digest, label_sets
from serving import (
    Children,
    Conn,
    Record,
    ServeMix,
    boot_url,
    job_first_result,
    register_body,
    register_once,
    solve_once,
    wait_ready,
)
from stats import Samples

SETUP_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_BUDGET = 0.5
SERVE_SETUP_REPEATS = 5
HITS_PER_ROUND = 100
#: Extra cold first-result samples per input and round, taken while they
#: fit in EXTRA_BUDGET seconds.
EXTRA_SAMPLES = 4
EXTRA_BUDGET = 0.3
MIN_ROUNDS = 3
WINDOW_SECONDS = 0.5
#: Jobs streamed per graph in each quiet phase of serve-mix.
JOBS_PER_GRAPH = 2


@dataclass
class Outcome:
    """What one run measured, ready for the result line and the report."""

    metrics: Dict[str, float]
    report: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


def peak_rss_mb(who: int) -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(who).ru_maxrss / 1024.0


def pin_to_one_cpu() -> Optional[int]:
    """Keep the measured work, its service thread and the reference loop on
    one CPU, so the loop sees the same contention as the work it normalises.

    Returns another CPU this process may use (for a server), if any.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[1] if len(cpus) > 1 else None


def ingest(inputs: Sequence[Input]):
    from repro import Graph

    return [Graph.from_edges(item.edges, vertices=item.vertices) for item in inputs]


def timed_setup(inputs: Sequence[Input]) -> Tuple[List[float], list]:
    """Ingest every input repeatedly (a fresh GC state each time)."""
    samples: List[float] = []
    graphs: list = []
    spent = 0.0
    while len(samples) < SETUP_REPEATS or (spent < SETUP_BUDGET and len(samples) < SETUP_MAX_REPEATS):
        graphs = []  # free the previous copies before collecting
        gc.collect()
        started = time.perf_counter()
        graphs = ingest(inputs)
        samples.append(time.perf_counter() - started)
        spent += samples[-1]
    return samples, graphs


def run_library(inputs: Sequence[Input], seconds: float, oracle: Oracle, min_rounds: int = MIN_ROUNDS) -> Outcome:
    from repro import EnumerationRequest, KPlexEngine
    from repro.graph.prepared import invalidate
    from repro.service import KPlexService, ServiceConfig

    pin_to_one_cpu()
    setup, graphs = timed_setup(inputs)
    engine = KPlexEngine()
    solve, first, miss, hit = Samples(), Samples(), Samples(), Samples()
    seen: Dict[Tuple[int, int, int], Counter] = defaultdict(Counter)
    attempted = failed = 0

    def timed(fn, runs=1):
        """Run ``fn`` from a collected heap; returns (result, seconds, ref)."""
        gc.collect()
        clock.mark(runs)
        started = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - started
        return result, seconds, sum(clock.bracket(runs)) / 2

    # Warm-up (untimed): imports and first-call paths of both layers.
    service = KPlexService(config=ServiceConfig(max_workers=1))
    try:
        for item, graph in zip(inputs, graphs):
            engine.solve(EnumerationRequest(graph=graph, k=item.k, q=item.q + 4))
            service.solve(graph, item.k, item.q + 4)
    finally:
        service.close()
    clock = RefClock()
    last_solve: Dict[str, float] = {}
    started = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - started < seconds:
        # A fresh service per round: its caches would otherwise keep every
        # earlier round's epochs, and memory would grow with the round count.
        service = KPlexService(config=ServiceConfig(max_workers=1))
        try:
            for index, (item, graph) in enumerate(zip(inputs, graphs)):
                request = EnumerationRequest(graph=graph, k=item.k, q=item.q)
                first_at: List[float] = []

                def on_progress(_event, first_at=first_at) -> None:
                    if not first_at:
                        first_at.append(time.perf_counter())

                def cold_solve(request=request, on_progress=on_progress):
                    began = time.perf_counter()
                    response = engine.solve(request, on_progress=on_progress)
                    return response, (first_at[0] - began) if first_at else None

                invalidate(graph)
                runs = bracket_runs(last_solve.get(item.key, 0.0))
                (response, until_first), spent, ref = timed(cold_solve, runs)
                last_solve[item.key] = spent
                solve.add(item.key, spent, ref)
                first.add(item.key, spent if until_first is None else until_first, ref)
                attempted += 1
                failed += 0 if response.completed else 1
                seen[(index, item.k, item.q)][digest(label_sets(p.labels for p in response.kplexes))] += 1

                # Extra cold first-result samples while they are cheap.
                estimate = spent if until_first is None else until_first
                budget = time.perf_counter() + EXTRA_BUDGET
                for _ in range(EXTRA_SAMPLES):
                    if time.perf_counter() + estimate > budget:
                        break
                    invalidate(graph)
                    _, spent, ref = timed(lambda: first_result(engine, request))
                    first.add(item.key, spent, ref)

                # Service: specs the graph's epoch has not seen, then hits.
                for k, q in item.fresh:
                    missed, spent, ref = timed(lambda: service.solve(graph, k, q))
                    miss.add(f"{item.key}/fresh-k{k}q{q}", spent, ref)
                    attempted += 1
                    failed += 0 if missed.completed else 1
                    seen[(index, k, q)][digest(label_sets(p.labels for p in missed.kplexes))] += 1
                k, q = item.fresh[0]
                expected = service.solve(graph, k, q).vertex_sets()
                gc.collect()
                clock.mark()
                hit_seconds, answers = [], []
                for _ in range(HITS_PER_ROUND):
                    t0 = time.perf_counter()
                    answers.append(service.solve(graph, k, q))
                    hit_seconds.append(time.perf_counter() - t0)
                ref = sum(clock.bracket()) / 2
                for value in hit_seconds:
                    hit.add(item.key, value, ref)
                attempted += len(answers)
                failed += sum(1 for a in answers if a.vertex_sets() != expected)
        finally:
            service.close()
        rounds += 1
    peak = peak_rss_mb(resource.RUSAGE_SELF)

    for (index, k, q), digests in seen.items():
        for got, count in digests.items():
            if not oracle.check(inputs[index], k, q, got):
                failed += count

    metrics = {
        "setup_s": statistics.median(setup),
        "solve_ref": solve.summed_median_ref(),
        "first_result_ref": first.summed_median_ref(),
        "hit_p50_ref": hit.summed_median_ref(),
        "miss_p50_ref": miss.summed_median_ref(),
        "peak_rss_mb": peak,
    }
    report = {
        "rounds": rounds,
        "setup_s": {"value": metrics["setup_s"], "samples": setup},
        "solve_ref": solve.report(metrics["solve_ref"], summed=True),
        "first_result_ref": first.report(metrics["first_result_ref"], summed=True),
        "hit_p50_ref": hit.report(metrics["hit_p50_ref"], summed=True),
        "miss_p50_ref": miss.report(metrics["miss_p50_ref"], summed=True),
        "host_ref_s": clock.median_ref(),
    }
    return Outcome(metrics, report, attempted, failed)


def first_result(engine, request) -> None:
    """Pull the first result of a cold ``stream_run``, then stop the stream."""
    stream, _outcome = engine.stream_run(request)
    next(stream, None)
    stream.close()


def boot_server(children: Children, inputs: Sequence[Input], cpu: Optional[int]):
    """Spawn serve-http, wait for /readyz, register every input graph."""
    proc = children.spawn(
        ["serve-http", "--port", "0", "--workers", "2", "--cache-entries", "64"], cpu=cpu
    )
    url = boot_url(proc)
    wait_ready(url)
    conn = Conn(url)
    records = [
        register_once(conn, register_body(item, replace=False), index)
        for index, item in enumerate(inputs)
    ]
    return proc, url, conn, records


def run_serve(
    inputs: Sequence[Input], seconds: float, seed: int, oracle: Oracle, children: Children,
    min_windows: int = MIN_ROUNDS,
) -> Outcome:
    # The clients and the reference loop on one CPU, the server on another:
    # the same placement in every run.
    server_cpu = pin_to_one_cpu()
    setup: List[float] = []
    attempted = failed = 0
    for attempt in range(SERVE_SETUP_REPEATS):
        started = time.perf_counter()
        proc, url, conn, registered = boot_server(children, inputs, server_cpu)
        setup.append(time.perf_counter() - started)
        attempted += len(registered)
        failed += sum(1 for record in registered if not record.ok)
        if attempt < SERVE_SETUP_REPEATS - 1:
            conn.close()
            children.stop(proc)

    mix = ServeMix(url, inputs, seed)
    bodies = [register_body(item, replace=True) for item in inputs]
    quiet: List[Tuple[Record, float]] = []
    jobs, cold = Samples(), Samples()
    job_digests: List[Tuple[int, str, bool]] = []
    try:
        for index, item in enumerate(inputs):  # warm-up: solve each hot spec once
            record = solve_once(conn, item, item.k, item.q, index).decode()
            attempted += 1
            failed += 0 if record.ok else 1
        # The load spans both CPUs, so each reference run covers both.
        home = sorted(os.sched_getaffinity(0))
        clock = RefClock(home + [server_cpu] if server_cpu is not None else ())
        window_ref: Dict[int, float] = {}
        started = time.perf_counter()
        window = 0
        while window < min_windows or time.perf_counter() - started < seconds:
            clock.mark()
            mix.window(window, WINDOW_SECONDS)
            window_ref[window] = sum(clock.bracket()) / 2
            # Quiet phase, no other load: per graph, a re-registration, the
            # cold solve it forces, and a job streamed from the fresh graph.
            phase: List[Record] = []
            timings = []
            for index, item in enumerate(inputs):
                phase.append(register_once(conn, bodies[index], index))
                mix.forget(index)
                phase.append(solve_once(conn, item, item.k, item.q, index).decode())
                for _ in range(JOBS_PER_GRAPH):
                    first, ok, got = job_first_result(conn, item)
                    timings.append((item.key, first))
                    job_digests.append((index, got, ok))
            ref = sum(clock.bracket()) / 2
            quiet.extend((record, ref) for record in phase)
            for key, value in timings:
                jobs.add(key, value, ref)
            window += 1
    finally:
        conn.close()
        children.stop(proc)
    # Every serve-http this run started has been reaped: their peak RSS is
    # the children's maximum.
    peak = peak_rss_mb(resource.RUSAGE_CHILDREN)

    hits, misses, register_misses = Samples(), Samples(), Samples()
    registers = []
    problems: List[str] = list(mix.errors)
    timed = [(record, window_ref[record.window], False) for record in mix.records]
    timed += [(record, ref, True) for record, ref in quiet]
    for record, ref, in_quiet in timed:
        attempted += 1
        if not record.ok:
            failed += 1
            problems.append(f"{record.op} {inputs[record.graph].served_name} k={record.k} q={record.q} failed")
            continue
        if record.op == "register":
            registers.append(record.seconds)
            continue
        item = inputs[record.graph]
        if not oracle.check(item, record.k, record.q, record.digest):
            failed += 1
        if in_quiet:
            cold.add(item.key, record.server_seconds, ref)
        elif record.cache == "hit":
            hits.add("all", record.seconds, ref)
        elif (record.k, record.q) == (item.k, item.q):
            register_misses.add(item.key, record.seconds, ref)
        else:
            misses.add(item.key, record.seconds, ref)
    for index, got, ok in job_digests:
        attempted += 1
        item = inputs[index]
        if not ok or not oracle.check(item, item.k, item.q, got):
            failed += 1
            problems.append(f"job on {item.served_name} failed or differs from the oracle")
    failed += len(mix.errors)

    metrics = {
        "setup_s": statistics.median(setup),
        "solve_ref": cold.summed_median_ref(),
        "first_result_ref": jobs.summed_trimmed_mean_ref(),
        "hit_p50_ref": hits.pooled_median_ref(),
        "miss_p50_ref": misses.summed_median_ref(),
        "peak_rss_mb": peak,
    }
    report = {
        "windows": window,
        "operations": len(mix.records),
        "registrations": len(registers),
        "problems": problems[:20],
        "setup_s": {"value": metrics["setup_s"], "samples": setup},
        "solve_ref": cold.report(metrics["solve_ref"], summed=True),
        "first_result_ref": jobs.report(metrics["first_result_ref"], summed=True),
        "hit_p50_ref": hits.report(metrics["hit_p50_ref"], summed=False),
        "miss_p50_ref": misses.report(metrics["miss_p50_ref"], summed=True),
        "host_ref_s": clock.median_ref(),
    }
    report["first_result_ref"]["statistic"] = "sum of per-graph 10%-trimmed means"
    if register_misses.by_input:
        value = register_misses.summed_median_ref()
        report["register_miss_ref"] = register_misses.report(value, summed=True)
    return Outcome(metrics, report, attempted, failed)
