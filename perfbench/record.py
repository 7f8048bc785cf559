"""Record the benchmark's fixed data from the sources in this checkout.

    python3 perfbench/record.py

Writes two files next to this script:

* pools.json: for each random family, the pool members a seed may pick.
  - dense: the members among the first DENSE_POOL candidates whose
    canonical DRTW has DENSE_STATES states and whose canonical DRW has
    DENSE_DRW_RATIO times as many.  Build time follows the state count, so
    the dense inputs of every seed cost about the same for each target and
    the determinize workload's figures stay comparable between seeds.
  - sparse<n>: members whose baseline DRTW has SPARSE_STATES states, the
    "many states, few reachable trees" shape of sparse LTL-like inputs.
* golden.json: the sha256 of `histree determinize` stdout for every input
  a seed can pick (the Michel family and every pool member) and every
  target.  These digests are the byte-identity reference: record them once,
  at the commit that defines the benchmark, and never to make a changed
  output pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
from gate import digest  # noqa: E402
from histree import CapacityError, Determinizer, NBW  # noqa: E402
from histree.cli import main as cli_main  # noqa: E402

DENSE_POOL = 1500
DENSE_STATES = (115, 135)
DENSE_DRW_RATIO = (1.05, 1.20)
SPARSE_POOL = 150
SPARSE_STATES = (30, 100)


def _nbw(a: inputs.Automaton) -> NBW:
    return NBW.make(a.states, a.alphabet, a.transitions, a.initial, a.finals)


def dense_band() -> list:
    lo, hi = DENSE_STATES
    keep = []
    for i in range(DENSE_POOL):
        a = _nbw(inputs.member("dense", i))
        d = Determinizer(a, "canonical", max_states=hi + 1)
        try:
            states = d.build_drtw().stats.states
        except CapacityError:  # more than `hi` states
            continue
        if lo <= states <= hi:
            ratio = Determinizer(a, "canonical").build_drw().stats.states / states
            if DENSE_DRW_RATIO[0] <= ratio <= DENSE_DRW_RATIO[1]:
                keep.append(i)
    return keep


def sparse_band(n: int) -> list:
    lo, hi = SPARSE_STATES
    keep = []
    for i in range(SPARSE_POOL):
        d = Determinizer(_nbw(inputs.member(f"sparse{n}", i)), "baseline", max_states=hi + 1)
        try:
            states = d.build_drtw().stats.states
        except CapacityError:  # more than `hi` states
            continue
        if lo <= states <= hi:
            keep.append(i)
    return keep


def golden(pools: dict) -> dict:
    automata = [inputs.michel(m) for m in run.MICHEL]
    for family, members in pools.items():
        automata.extend(inputs.member(family, i) for i in members)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.hoa"
        for a in automata:
            text = inputs.to_hoa(a)
            path.write_text(text, encoding="utf-8")
            key = digest(text)[:16]
            for target, extra in run.TARGET_ARGS.items():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli_main(["determinize", "--in", str(path), *extra])
                if code != 0:
                    raise SystemExit(f"determinize failed on {key} {target}")
                out[f"{key}:{target}"] = digest(buf.getvalue())
    return out


def main() -> int:
    pools = {"dense": dense_band()}
    for n in run.SPARSE_SIZES:
        pools[f"sparse{n}"] = sparse_band(n)
    for family, members in pools.items():
        print(f"{family}: {len(members)} members", flush=True)
    (HERE / "pools.json").write_text(json.dumps(pools) + "\n", encoding="utf-8")
    digests = golden(pools)
    (HERE / "golden.json").write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
