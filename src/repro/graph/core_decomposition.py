"""k-core decomposition, degeneracy ordering and k-shells.

The enumeration algorithm relies on three facts established in Section 3 of
the paper:

* every k-plex with at least ``q`` vertices is contained in the ``(q-k)``-core
  of the graph (Theorem 3.5), so the input can be shrunk before mining;
* the degeneracy ordering produced by the linear-time peeling algorithm of
  Batagelj & Zaversnik bounds the number of *later* neighbours of every vertex
  by the degeneracy ``D``, which keeps seed subgraphs small;
* vertices removed with the same minimum degree form a k-shell; ties inside a
  shell are broken by vertex id so the ordering is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Sequence, Set

from .graph import Graph


@dataclass(frozen=True)
class CoreDecomposition:
    """Result of the peeling algorithm.

    Attributes
    ----------
    order:
        The degeneracy ordering ``η = [v_1, ..., v_n]`` (internal vertex ids).
    core_numbers:
        ``core_numbers[v]`` is the core number (shell index) of vertex ``v``.
    degeneracy:
        The degeneracy ``D`` of the graph, i.e. the maximum core number.
    """

    order: List[int]
    core_numbers: List[int]
    degeneracy: int

    def position(self) -> List[int]:
        """Return ``position[v]`` = index of vertex ``v`` within :attr:`order`."""
        positions = [0] * len(self.order)
        for index, vertex in enumerate(self.order):
            positions[vertex] = index
        return positions

    def shells(self) -> Dict[int, List[int]]:
        """Group vertices by core number (the k-shells), keyed by ``k``."""
        grouped: Dict[int, List[int]] = {}
        for vertex in self.order:
            grouped.setdefault(self.core_numbers[vertex], []).append(vertex)
        return grouped


def core_decomposition(graph: Graph) -> CoreDecomposition:
    """Return the core decomposition of ``graph`` (cached per graph object).

    Vertices are repeatedly removed in order of minimum remaining degree; ties
    are broken by the smallest vertex id, matching the convention used in the
    paper to make the ordering unique.  The result is computed once per graph
    through the prepared-graph index (:mod:`repro.graph.prepared`) and reused
    by every subsequent request on the same graph object.
    """
    from .prepared import prepare  # local import: prepared depends on this module

    cached = prepare(graph).decomposition
    # Fresh lists per call: callers historically received their own copy and
    # may mutate it (e.g. to experiment with orderings); the cached object
    # itself must stay pristine for every later request on this graph.
    return CoreDecomposition(
        order=list(cached.order),
        core_numbers=list(cached.core_numbers),
        degeneracy=cached.degeneracy,
    )


def set_backed_core_decomposition(graph: Graph) -> CoreDecomposition:
    """Peel ``graph`` with a bucket queue of int min-heaps (uncached).

    ``buckets[d]`` is a min-heap of the vertices whose current degree is
    ``d``.  Degrees are clamped at the current level, so the pop order is:
    minimum clamped degree first, then minimum vertex id.  Lowering a
    neighbour's degree pushes it onto the next bucket down and leaves a stale
    entry behind; a pop discards entries whose vertex is not (or no longer)
    at the level being drained.  Every vertex enters each bucket at most once,
    so peeling costs ``O((n + m) log n)`` however large one bucket grows.

    The level never falls, and a peeled vertex keeps the degree it was
    peeled at, which is at most the level; so "current degree equals the
    level" is enough to tell a live entry, and "current degree above the
    level" selects exactly the live neighbours whose degree still drops.
    """
    n = graph.num_vertices
    if n == 0:
        return CoreDecomposition(order=[], core_numbers=[], degeneracy=0)

    current = list(graph.degrees())
    # Vertices are appended in increasing id, so every bucket starts as a
    # sorted list, which is already a valid heap.
    buckets: List[List[int]] = [[] for _ in range(max(current) + 1)]
    for vertex, degree in enumerate(current):
        buckets[degree].append(vertex)

    order: List[int] = []
    core_numbers = [0] * n
    level = 0
    bucket = buckets[0]
    neighbors = graph.neighbors

    for _ in range(n):
        while True:
            while bucket and current[bucket[0]] != level:
                heappop(bucket)
            if bucket:
                break
            level += 1
            bucket = buckets[level]
        vertex = heappop(bucket)
        core_numbers[vertex] = level
        order.append(vertex)
        for neighbour in neighbors(vertex):
            degree = current[neighbour]
            if degree > level:
                degree -= 1
                current[neighbour] = degree
                heappush(buckets[degree], neighbour)

    return CoreDecomposition(order=order, core_numbers=core_numbers, degeneracy=level)


def degeneracy_ordering(graph: Graph) -> List[int]:
    """Return only the degeneracy ordering of ``graph``."""
    return core_decomposition(graph).order


def degeneracy(graph: Graph) -> int:
    """Return the degeneracy ``D`` of ``graph``."""
    return core_decomposition(graph).degeneracy


def k_core_vertices(graph: Graph, k: int) -> Set[int]:
    """Return the vertex set of the ``k``-core of ``graph``.

    The ``k``-core is the (unique, possibly empty) maximal induced subgraph in
    which every vertex has degree at least ``k``.  It is computed by the same
    peeling process: repeatedly delete any vertex whose remaining degree is
    below ``k``.
    """
    if k <= 0:
        return set(graph.vertices())
    degrees = graph.degrees()
    alive = [True] * graph.num_vertices
    stack = [v for v in graph.vertices() if degrees[v] < k]
    for vertex in stack:
        alive[vertex] = False
    while stack:
        vertex = stack.pop()
        for neighbour in graph.neighbors(vertex):
            if alive[neighbour]:
                degrees[neighbour] -= 1
                if degrees[neighbour] < k:
                    alive[neighbour] = False
                    stack.append(neighbour)
    return {v for v in graph.vertices() if alive[v]}


def k_core_subgraph(graph: Graph, k: int):
    """Return the ``k``-core as a new :class:`Graph` plus the vertex map."""
    return graph.induced_subgraph(k_core_vertices(graph, k))


def shrink_to_core(graph: Graph, minimum_degree: int):
    """Shrink ``graph`` to its ``minimum_degree``-core (Theorem 3.5 helper).

    Returns ``(core_graph, vertex_map)`` where ``vertex_map[new_id]`` is the
    vertex id in the original graph.  Cached per graph object and core level
    via the prepared-graph index; when nothing is peeled the input graph
    itself is returned with an identity map, so the core's own cached
    preprocessing is shared too.
    """
    from .prepared import prepare  # local import: prepared depends on this module

    core_graph, vertex_map = prepare(graph).core(minimum_degree)
    # The cached vertex map is shared across requests; hand out a copy.
    return core_graph, list(vertex_map)


def validate_degeneracy_ordering(graph: Graph, order: Sequence[int]) -> bool:
    """Check that ``order`` is a valid degeneracy ordering of ``graph``.

    An ordering is valid if every vertex has at most ``D`` neighbours among
    the vertices that come after it, where ``D`` is the graph degeneracy.
    Used by tests and by the verification utilities.
    """
    if sorted(order) != list(range(graph.num_vertices)):
        return False
    cap = degeneracy(graph)
    position = {vertex: index for index, vertex in enumerate(order)}
    for vertex in order:
        later = sum(1 for w in graph.neighbors(vertex) if position[w] > position[vertex])
        if later > cap:
            return False
    return True
