"""Seeded inputs of the three workloads.

The benchmark owns its inputs: the bundled surrogates are frozen edge lists
under ``data/`` (so a change to the program's dataset generators cannot
silently change the workload), and the sparse graph is generated here.
The program only ever receives the generated edge lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

DATA = Path(__file__).resolve().parent / "data"

DEFAULT_SEED = 1

Edge = Tuple[int, int]


@dataclass(frozen=True)
class Input:
    """One graph plus the (k, q) it is solved at."""

    name: str
    edges: Tuple[Edge, ...]
    vertices: Tuple[int, ...]
    k: int
    q: int
    #: (k, q) specs a library run asks its in-process service for, fresh in
    #: every round because each round starts from an invalidated graph.
    fresh: Tuple[Tuple[int, int], ...] = ()

    @property
    def key(self) -> str:
        return f"{self.name}/k{self.k}q{self.q}"

    @property
    def served_name(self) -> str:
        """Catalog name when served (one graph may be an input twice)."""
        return f"{self.name}-k{self.k}q{self.q}"


def load_edges(name: str) -> List[Edge]:
    edges = []
    with open(DATA / f"{name}.edges", encoding="ascii") as handle:
        for line in handle:
            if not line.startswith("#"):
                u, v = line.split()
                edges.append((int(u), int(v)))
    return edges


def shuffled(edges: Sequence[Edge], rng: random.Random) -> Tuple[Edge, ...]:
    """Shuffle edge order and flip orientations; the edge set is unchanged."""
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(out)
    return tuple(out)


def surrogate(name: str, k: int, q: int, rng: random.Random) -> Input:
    """A frozen surrogate with seeded edge order and a fixed vertex order.

    Passing the sorted labels as the vertex list keeps internal vertex ids
    identical at every seed, so every seed does the same search work.
    """
    edges = load_edges(name)
    vertices = tuple(sorted({x for edge in edges for x in edge}))
    return Input(name, shuffled(edges, rng), vertices, k, q, ((k, q + 2),))


DENSE_SPECS = (("jazz", 3, 6), ("jazz", 2, 4), ("com-dblp", 2, 8), ("soc-pokec", 2, 8))
TINY_DENSE_SPECS = (("jazz", 2, 8),)


def dense_inputs(seed: int, tiny: bool = False) -> List[Input]:
    rng = random.Random(f"dense-bnb:{seed}")
    specs = TINY_DENSE_SPECS if tiny else DENSE_SPECS
    return [surrogate(name, k, q, rng) for name, k, q in specs]


def planted_ba_edges(
    n: int, attachments: int, planted: int, planted_size: int, rng: random.Random
) -> List[Edge]:
    """Preferential attachment plus ``planted`` near-cliques (10% edges dropped)."""
    edges: List[Edge] = []
    tokens = list(range(attachments))
    for vertex in range(attachments, n):
        targets = set()
        while len(targets) < attachments:
            targets.add(rng.choice(tokens))
        for target in sorted(targets):
            edges.append((vertex, target))
            tokens.append(target)
            tokens.append(vertex)
    for _ in range(planted):
        members = rng.sample(range(n), planted_size)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if rng.random() < 0.9:
                    edges.append((u, v))
    return edges


#: The sparse graph's structure is fixed; the run seed relabels it.
SPARSE_STRUCTURE_SEED = 20250101


def sparse_inputs(seed: int, tiny: bool = False) -> List[Input]:
    """A fixed planted-BA structure under a seeded relabelling and edge order.

    Vertex ids (the order of ``vertices``) follow the structure, so every
    seed does the same search work; labels and edge order change with it.
    """
    n = 1_000 if tiny else 10_000
    structure = planted_ba_edges(n, 5, 4, 10, random.Random(SPARSE_STRUCTURE_SEED))
    rng = random.Random(f"sparse-scale:{seed}")
    labels = list(range(n))
    rng.shuffle(labels)
    edges = [(labels[u], labels[v]) for u, v in structure]
    fresh = tuple((2, q) for q in range(9, 13))
    return [Input(f"ba{n}", shuffled(edges, rng), tuple(labels), 2, 7, fresh)]


#: serve-mix graphs and the (k, q) most requests repeat (each a cheap solve).
SERVE_HOT = (("jazz", 2, 8), ("com-dblp", 2, 12), ("wiki-vote", 2, 8))


def serve_inputs(seed: int, tiny: bool = False) -> List[Input]:
    rng = random.Random(f"serve-mix:{seed}")
    hot = SERVE_HOT[:1] if tiny else SERVE_HOT
    return [surrogate(name, k, q, rng) for name, k, q in hot]


def miss_pool(item: Input) -> List[Tuple[int, int]]:
    """Fresh (k, q) specs for ``item``: sizes well above the hot q, all cheap."""
    return [(k, q) for k in (1, 2) for q in range(item.q + 4, item.q + 16)]
