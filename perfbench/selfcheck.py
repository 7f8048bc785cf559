"""Determinism self-check: two traced runs with the same seed must report
identical per-layer counts (every `*_calls` count, states, transitions,
pairs, lassos, emitted bytes and the ratios built from them).

    python3 perfbench/selfcheck.py [--seed N] [--workload W ...]

Each run is a separate process running one untraced and one traced pass.
Exits 1 when any count differs between the two runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
COUNT_UNITS = ("count", "ratio", "bytes")


def traced_counts(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in COUNT_UNITS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=("determinize", "verify"))
    args = parser.parse_args()
    same = True
    for workload in args.workload or ("determinize", "verify"):
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        same = same and not diff
        print(f"{workload}: {len(first)} counts, "
              + ("identical" if not diff else "differ: " + ", ".join(
                  f"{k} {first.get(k)} != {second.get(k)}" for k in diff)), flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
