"""The repository's benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 kpbench/run.py --workload dense-bnb --seed 1 --seconds 20 --trace 0
    python3 kpbench/run.py --self-check

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the layer sweep of ``layers.py`` and reports the per-layer
metrics.  Time metrics named ``*_ref`` are in host-reference units: sample
seconds divided by the reference loop of ``hostref.py``.  The next-to-last
stdout line is a JSON report (host record, raw seconds, reference seconds,
tails, sample counts, oracle problems); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.

The run exits non-zero without a result line when the program cannot be
imported, when an emitted metric is not declared in ``BENCHMARK.json``, when
it overruns the watchdog, or when a process it spawned is still alive at
the end.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostref import check_reference_loop  # noqa: E402
from inputs import DEFAULT_SEED, dense_inputs, serve_inputs, sparse_inputs  # noqa: E402
from serving import Children  # noqa: E402

WORKLOADS = {
    "dense-bnb": dense_inputs,
    "sparse-scale": sparse_inputs,
    "serve-mix": serve_inputs,
}
#: A run that is still going after this many seconds is stopped and fails.
WATCHDOG_SECONDS = 170.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def declared(spec: dict, trace: bool) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def undeclared_problems(metrics: Dict[str, float], spec: dict, trace: bool) -> List[str]:
    """Every emitted metric must be declared, and every declared one emitted."""
    names = declared(spec, trace)
    problems = [f"metric {name!r} is not declared" for name in metrics if name not in names]
    problems += [f"declared metric {name!r} was not emitted" for name in names if name not in metrics]
    problems += [
        f"metric {name!r} is not a finite number: {value!r}"
        for name, value in metrics.items()
        if not isinstance(value, (int, float)) or not math.isfinite(value)
    ]
    return problems


def git_revision() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_record() -> Dict[str, object]:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
    }


def stop_resource_tracker(kill: bool = False) -> None:
    """End multiprocessing's resource tracker and wait for it.

    Shared memory starts the tracker as a child of this process; left alone
    it outlives the run by a moment, until it notices the closed pipe.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    pid = getattr(tracker, "_pid", None)
    if pid is None:
        return
    if kill:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        return
    stop = getattr(tracker, "_stop", None)
    if stop is not None:  # Python 3.12+
        stop()
        return
    with tracker._lock:
        if tracker._fd is not None:
            os.close(tracker._fd)
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
        tracker._fd = tracker._pid = None


def live_children() -> List[int]:
    """Direct children of this process that have not exited."""
    me = str(os.getpid())
    alive: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = (Path("/proc") / entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            alive.append(int(entry))
    return alive


def start_watchdog(children: Children, seconds: float) -> threading.Timer:
    def fire() -> None:
        print(f"error: run exceeded the {seconds:.0f}s watchdog; stopping", file=sys.stderr)
        children.kill_all()
        for proc in multiprocessing.active_children():
            proc.kill()
            proc.join(timeout=5)
        stop_resource_tracker(kill=True)
        sys.stderr.flush()
        os._exit(124)

    timer = threading.Timer(seconds, fire)
    timer.daemon = True
    timer.start()
    return timer


def measure(args: argparse.Namespace, children: Children):
    from oracle import Oracle

    inputs = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    oracle = Oracle(args.workload, args.seed, args.tiny)
    minimum = 1 if args.tiny else 3
    if args.trace:
        from layers import TraceRun

        run = TraceRun(inputs, args.seconds, oracle, children, args.seed, min_reps=minimum)
        run.run()
        return run.metrics, run.report, run.attempted, run.failed, oracle
    from workloads import run_library, run_serve

    if args.workload == "serve-mix":
        outcome = run_serve(inputs, args.seconds, args.seed, oracle, children, min_windows=minimum)
    else:
        outcome = run_library(inputs, args.seconds, oracle, min_rounds=minimum)
    return outcome.metrics, outcome.report, outcome.attempted, outcome.failed, oracle


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: the program's sources (src/repro) are not here", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    children = Children()
    started = time.perf_counter()
    watchdog = start_watchdog(children, WATCHDOG_SECONDS)
    try:
        check_reference_loop()
        metrics, report, attempted, failed, oracle = measure(args, children)
    except Exception:  # noqa: BLE001 - the run's boundary: report and fail
        traceback.print_exc()
        return 1
    finally:
        children.stop_all()
        for proc in multiprocessing.active_children():
            proc.join(timeout=10)
        stop_resource_tracker()
        watchdog.cancel()
    leftovers = sorted(
        set(children.leftovers())
        | {p.pid for p in multiprocessing.active_children()}
        | set(live_children())
    )
    if leftovers:
        print(f"error: spawned processes still alive: {leftovers}", file=sys.stderr)
        return 1
    problems = undeclared_problems(metrics, spec, bool(args.trace))
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 1
    units = declared(spec, bool(args.trace))
    report.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        tiny=args.tiny,
        seconds=args.seconds,
        wall_s=time.perf_counter() - started,
        host=host_record(),
        oracle_problems=oracle.problems,
        digests=oracle.digests,
    )
    print(json.dumps({"report": report}, default=str))
    result = {
        "correct": failed == 0 and not oracle.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def self_check() -> int:
    """Static checks of BENCHMARK.json, then every workload tiny, both modes."""
    from layers import LAYER_TARGETS

    spec = load_spec()
    problems: List[str] = []
    end_to_end = declared(spec, False)
    workloads = {w["name"]: w.get("why", "") for w in spec["workloads"]}
    if set(workloads) != set(WORKLOADS):
        problems.append(f"workloads {sorted(workloads)} differ from {sorted(WORKLOADS)}")
    problems += [
        f"workload {n!r} needs a one-line rationale"
        for n, why in workloads.items()
        if not why.strip() or "\n" in why
    ]
    for name in declared(spec, True):
        target = LAYER_TARGETS.get(name)
        if target is None:
            problems.append(f"per-layer metric {name!r} names no end-to-end metric")
            continue
        metric, names = target
        if metric not in end_to_end:
            problems.append(f"{name!r} targets undeclared metric {metric!r}")
        problems += [f"{name!r} targets unknown workload {w!r}" for w in names if w not in workloads]
    problems += [f"{name!r} is mapped but not declared" for name in LAYER_TARGETS if name not in declared(spec, True)]
    try:
        check_reference_loop()
    except RuntimeError as exc:
        problems.append(str(exc))
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace), "--tiny",
            ]
            proc = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True, timeout=300)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") or result.get("attempted", 0) < 1:
                report = json.loads(lines[-2])["report"]
                reasons = (report.get("problems") or []) + (report.get("oracle_problems") or [])
                problems.append(
                    f"{label}: correct={result.get('correct')} failed={result.get('failed')} {reasons[:5]}"
                )
            units = declared(spec, bool(trace))
            for name, entry in result["metrics"].items():
                if units.get(name) != entry.get("unit"):
                    problems.append(f"{label}: {name!r} unit {entry.get('unit')!r} is not declared")
            print(f"{label}: ok ({result['attempted']} operations)", file=sys.stderr)
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # One fixed string-hash seed for this process and the servers it
        # spawns, so dict layouts do not differ from run to run.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (self-check scale)")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
