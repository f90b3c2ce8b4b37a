"""Host-reference timing: express a sample in units of a fixed reference loop.

Wall seconds on a shared host drift by tens of percent between windows of a
few seconds.  A sample divided by the time a fixed pure-Python loop takes
just before and just after it keeps any change in program speed 1:1 while
most of that drift cancels.  The loop works on small ints only and creates
no GC-tracked object, so the size of the program's heap cannot change its
speed; :func:`check_reference_loop` asserts that.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import time
from typing import Callable, List, Sequence, Tuple

#: Iterations of one reference-loop run (about 40 ms on a 2-core VM).
REF_ITERATIONS = 300_000
#: A sample of several seconds is bracketed by the median of one loop run
#: per REF_SPAN seconds of it (at most REF_MAX_RUNS): a single 40 ms run
#: samples the host too briefly to stand for seconds of work.
REF_SPAN = 0.5
REF_MAX_RUNS = 7


def bracket_runs(seconds: float) -> int:
    """Loop runs per side of the bracket around a sample of ``seconds``."""
    return max(1, min(REF_MAX_RUNS, round(seconds / REF_SPAN)))


def reference_loop(iterations: int = REF_ITERATIONS) -> int:
    """The fixed, allocation-free workload every ``*_ref`` metric is divided by."""
    x = 0
    i = 0
    while i < iterations:
        x = (x * 31 + i) & 0xFFFF
        i += 1
    return x


def time_reference(cpus: Sequence[int] = (), runs: int = 1) -> float:
    """Seconds one reference-loop run takes right now.

    With ``cpus`` the calling thread runs the loop once on each of them and
    the mean is returned: the reference of work spread over those CPUs.
    With ``runs`` above 1 the median of that many such timings is returned.
    """
    if runs > 1:
        return statistics.median(time_reference(cpus) for _ in range(runs))
    if not cpus:
        started = time.perf_counter()
        reference_loop()
        return time.perf_counter() - started
    home = os.sched_getaffinity(0)
    runs = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            started = time.perf_counter()
            reference_loop()
            runs.append(time.perf_counter() - started)
    finally:
        os.sched_setaffinity(0, home)
    return sum(runs) / len(runs)


def check_reference_loop() -> None:
    """Raise ``RuntimeError`` if the reference loop allocates GC-tracked objects.

    The loop's effect on the GC generation-0 counter and on the
    interpreter's allocated-block count must equal that of an empty call.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        def measure(body: Callable[[], object]) -> Tuple[int, int]:
            blocks = sys.getallocatedblocks()
            count = gc.get_count()[0]
            body()
            return gc.get_count()[0] - count, sys.getallocatedblocks() - blocks

        measure(lambda: reference_loop(1000))  # warm any lazy interpreter state
        baseline = measure(lambda: reference_loop(0))
        loop = measure(lambda: reference_loop(50_000))
    finally:
        if was_enabled:
            gc.enable()
    if loop != baseline:
        raise RuntimeError(
            f"reference loop allocates: (gc gen0, blocks) delta {loop} "
            f"against {baseline} for an empty run"
        )


class RefClock:
    """Reference-loop runs that bracket timed samples.

    Call :meth:`mark` just before a sample and :meth:`bracket` just after
    it; the sample's reference is the mean of the two runs.  Consecutive
    samples may share the run between them.
    """

    def __init__(self, cpus: Sequence[int] = ()) -> None:
        self.cpus = tuple(cpus)
        self._last = time_reference(self.cpus)
        self.ref_runs: List[float] = [self._last]

    def mark(self, runs: int = 1) -> None:
        """Re-time the reference so that the next sample's "before" is fresh."""
        self._last = time_reference(self.cpus, runs)
        self.ref_runs.append(self._last)

    def bracket(self, runs: int = 1) -> Tuple[float, float]:
        """Close a window opened at the previous bracket: ``(before, after)``."""
        before = self._last
        self._last = time_reference(self.cpus, runs)
        self.ref_runs.append(self._last)
        return before, self._last

    def median_ref(self) -> float:
        return statistics.median(self.ref_runs)
