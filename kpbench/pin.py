"""Regenerate ``pinned.json``: oracle digests of every spec at the default seed.

Run from the repository root after an intentional change to the inputs::

    python3 kpbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from inputs import DEFAULT_SEED, dense_inputs, miss_pool, serve_inputs, sparse_inputs  # noqa: E402
from oracle import PINNED, Oracle  # noqa: E402


def main() -> int:
    pins = {}
    for workload, inputs in (
        ("dense-bnb", dense_inputs(DEFAULT_SEED)),
        ("sparse-scale", sparse_inputs(DEFAULT_SEED)),
        ("serve-mix", serve_inputs(DEFAULT_SEED)),
    ):
        oracle = Oracle(workload, DEFAULT_SEED, tiny=True)
        for item in inputs:
            # The hot spec, the library runs' fresh specs and the serve mix's
            # pool (every workload's traced run drives the mix on its inputs).
            for k, q in {(item.k, item.q), *item.fresh, *miss_pool(item)}:
                pins[f"{workload}|{item.name}|k{k}q{q}"] = oracle.reference(item, k, q)
        if oracle.problems:
            print("\n".join(oracle.problems), file=sys.stderr)
            return 1
    PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} digests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
