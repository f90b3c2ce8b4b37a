"""Output oracle: the independent ``fp`` solver plus a maximality certificate.

Every result family the benchmark sees is reduced to a digest over vertex
*labels*, so families from different ingests of one edge set, or from the
HTTP wire, compare equal.  The oracle runs outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from inputs import DEFAULT_SEED, Input

PINNED = Path(__file__).resolve().parent / "pinned.json"

LabelSets = FrozenSet[Tuple[int, ...]]


def label_sets(families: Iterable[Iterable[int]]) -> LabelSets:
    return frozenset(tuple(sorted(members)) for members in families)


def digest(sets: LabelSets) -> str:
    blob = json.dumps(sorted(sets), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_pinned() -> Dict[str, str]:
    with open(PINNED, encoding="utf-8") as handle:
        return json.load(handle)


class Oracle:
    """Computes (once per input and spec) the reference family and checks answers."""

    def __init__(self, workload: str, seed: int, tiny: bool) -> None:
        self.workload = workload
        # Pinned digests hold at the default seed of the full-size workloads.
        self.pinned: Optional[Dict[str, str]] = (
            load_pinned() if seed == DEFAULT_SEED and not tiny else None
        )
        self._reference: Dict[Tuple[str, int, int], str] = {}
        self.problems: List[str] = []
        self.digests: Dict[str, str] = {}

    def reference(self, item: Input, k: int, q: int) -> str:
        """Digest of the ``fp`` family of ``item`` at (k, q), certified maximal."""
        key = (item.name, k, q)
        if key not in self._reference:
            from repro import Graph
            from repro.analysis.verification import verify_results
            from repro.baselines.fp import fp_maximal_kplexes

            graph = Graph.from_edges(item.edges, vertices=item.vertices)
            plexes = fp_maximal_kplexes(graph, k, q)
            report = verify_results(graph, plexes, k, q)
            if not report.ok:
                self.problems.append(f"fp family of {item.name} k={k} q={q}: {report.summary()}")
            sets = label_sets(plex.labels for plex in plexes)
            self._reference[key] = digest(sets)
        return self._reference[key]

    def check(self, item: Input, k: int, q: int, got: str) -> bool:
        """True when digest ``got`` is the reference family's (and the pin's)."""
        spec = f"{self.workload}|{item.name}|k{k}q{q}"
        self.digests[spec] = got
        ok = True
        if got != self.reference(item, k, q):
            self.problems.append(f"{spec}: digest {got} differs from the fp oracle")
            ok = False
        if self.pinned is not None:
            pinned = self.pinned.get(spec)
            if pinned is None:
                self.problems.append(f"{spec}: no pinned digest at the default seed")
                ok = False
            elif pinned != got:
                self.problems.append(f"{spec}: digest {got} differs from pinned {pinned}")
                ok = False
        return ok
