"""Shared non-fixture helpers for the test-suite.

Imported explicitly (``from _helpers import ...``) rather than living in
``conftest.py``: ``conftest`` is a special module name pytest also assigns to
``benchmarks/conftest.py``, so importing helpers *from* it resolves to
whichever conftest was loaded first.  Fixtures stay in ``tests/conftest.py``
where pytest injects them by name.
"""

from __future__ import annotations

import http.client
import json
import random
from typing import List, Tuple
from urllib.parse import urlparse

from repro.graph import Graph, generators


def random_graph_cases(count: int, max_vertices: int = 13, seed: int = 0) -> List[Graph]:
    """Deterministic list of small random graphs for oracle comparisons."""
    rng = random.Random(seed)
    graphs = []
    for index in range(count):
        n = rng.randint(5, max_vertices)
        p = rng.choice([0.2, 0.35, 0.5, 0.7])
        graphs.append(generators.erdos_renyi(n, p, seed=seed * 1000 + index))
    return graphs


def planted_ba(
    num_vertices: int, attachments: int, planted: int, planted_size: int, seed: int
) -> Graph:
    """Preferential attachment plus ``planted`` near-cliques, randomly relabelled.

    Most vertices keep the attachment degree, so the peel meets large ties;
    each planted set loses about a tenth of its clique edges.  The random
    relabelling decorrelates vertex ids from insertion order.
    """
    rng = random.Random(seed)
    base = generators.barabasi_albert(num_vertices, attachments, seed=seed)
    edges = set(base.edges())
    for _ in range(planted):
        members = rng.sample(range(num_vertices), planted_size)
        for index, u in enumerate(members):
            for v in members[index + 1 :]:
                if rng.random() >= 0.1:
                    edges.add((min(u, v), max(u, v)))
    relabel = list(range(num_vertices))
    rng.shuffle(relabel)
    return Graph.from_edges(
        [(relabel[u], relabel[v]) for u, v in sorted(edges)],
        vertices=range(num_vertices),
    )


def vertex_sets(plexes) -> set:
    """Convert KPlex results to a comparable set of frozensets."""
    return {frozenset(plex.vertices) for plex in plexes}


def post_with_content_length(url: str, route: str, value: str) -> Tuple[int, dict]:
    """POST to ``route`` with a verbatim ``Content-Length`` header and no body.

    Returns ``(status, decoded JSON body)``.  The short timeout turns a
    handler that waits for a body that never comes into a test failure.
    """
    parsed = urlparse(url)
    connection = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=5)
    try:
        connection.putrequest("POST", route)
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", value)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()
