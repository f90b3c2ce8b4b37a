"""Medians, tails and per-metric report entries."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    best = None
    for pct in PERCENTILES:
        rank = math.ceil(len(ordered) * pct / 100)
        if rank >= 1 and len(ordered) - rank >= 10:
            best = {"p": pct, "value": ordered[rank - 1]}
    return best


class Samples:
    """Per-input ``(seconds, ref_seconds)`` samples of one time metric."""

    def __init__(self) -> None:
        self.by_input: Dict[str, List[Tuple[float, float]]] = defaultdict(list)

    def add(self, key: str, seconds: float, ref: float) -> None:
        self.by_input[key].append((seconds, ref))

    def summed_median_ref(self) -> float:
        """Sum over inputs of the median of ``seconds / ref``."""
        return sum(
            statistics.median(s / r for s, r in values) for values in self.by_input.values()
        )

    def summed_trimmed_mean_ref(self, trim: float = 0.1) -> float:
        """Sum over inputs of the mean of ``seconds / ref`` without the
        lowest and highest ``trim`` shares.

        For samples in a few modes (thread hand-offs that cost a scheduling
        quantum or not), where the median jumps between modes as their
        shares shift a little.
        """
        total = 0.0
        for values in self.by_input.values():
            ordered = sorted(s / r for s, r in values)
            cut = int(len(ordered) * trim)
            total += statistics.mean(ordered[cut:len(ordered) - cut])
        return total

    def pooled_median_ref(self) -> float:
        return statistics.median(s / r for values in self.by_input.values() for s, r in values)

    def raw(self, summed: bool) -> float:
        """The same statistic over raw seconds."""
        if summed:
            return sum(statistics.median(s for s, _ in v) for v in self.by_input.values())
        return statistics.median(s for v in self.by_input.values() for s, _ in v)

    def report(self, value: float, summed: bool) -> Dict[str, object]:
        """Raw seconds, reference seconds, counts and tails next to a ratio."""
        pooled = [s / r for values in self.by_input.values() for s, r in values]
        raw = self.raw(summed)
        ref = statistics.median(r for v in self.by_input.values() for _, r in v)
        return {
            "value": value,
            "raw_s": raw,
            "ref_s": ref,
            "samples": len(pooled),
            "per_input": {k: len(v) for k, v in self.by_input.items()},
            "tail_ref": tail(pooled),
        }
