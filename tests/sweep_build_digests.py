"""Byte sweep: one build digest, one verify digest and one NBW digest per
input, over a wider input set than `fixtures/build_digests.txt` and
`fixtures/nbw_digests.txt`.

The inputs are the golden inputs of `record_build_digests.py` (the
hand-written fixtures, the default corpus and Michel m=4), its pinned
inputs (`fixtures/index_n3.hoa` and `fixtures/pair_index_n{4,5,6}.hoa`,
where canonical relabeling merges pairs and the DRW splits the most
states), Michel m=5, Michel m=6 (18,731 DRTW states, where the engine's
memos and interning carry real load) and every member of the benchmark's
candidate pools (`perfbench/pools.json`), each generated by
`perfbench/inputs.py` and read through its HOA text.
Each line is `name build-sha256 verify-sha256 nbw-sha256`, the
`build_digest`, `verify_digest` and `nbw_digest` of
`record_build_digests.py`: eight builds
(canonical/baseline x drtw/drw x default/strict marks), each
contributing `emit_rabin`, `stats.to_text()` and `emit_dot`, and the
`bounded_equiv(a, d, 4, 4)` results of the three targets of
`histree verify` under both mark semantics, or the `CapacityError`
message where the lasso cap refuses the bounds (as on Michel m=5 and
m=6), and the input written back by `emit_nbw_hoa`, `emit_nbw_native`
and `emit_dot`.  Here the verify digest also covers a second call per
target, `bounded_equiv(a, d, 2, 3)` on the same NBW object, which the
NBW serves from the period table it kept for the longer bound.  The
benchmark files are only read.

A change that must keep emitted bytes and verdicts compares the library
before and after it, running this script from the change against each
source tree:

    PYTHONPATH=/path/to/parent/src python tests/sweep_build_digests.py > parent.txt
    PYTHONPATH=src python tests/sweep_build_digests.py > change.txt
    cmp parent.txt change.txt

The name keeps pytest from collecting this script.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from typing import Iterator, Tuple

from histree.automata import NBW
from histree.formats import parse_nbw
from record_build_digests import build_digest, golden_inputs, nbw_digest, pinned_inputs, verify_digest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bench_inputs():
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_inputs() -> Iterator[Tuple[str, NBW]]:
    yield from golden_inputs()
    yield from pinned_inputs()
    inputs = _bench_inputs()
    for m in (5, 6):
        yield f"michel{m}", parse_nbw(inputs.to_hoa(inputs.michel(m)))
    pools = json.loads((PERFBENCH / "pools.json").read_text(encoding="utf-8"))
    for family, members in pools.items():
        for i in members:
            yield f"{family}:{i}", parse_nbw(inputs.to_hoa(inputs.member(family, i)))


if __name__ == "__main__":
    for name, a in sweep_inputs():
        print(name, build_digest(a), verify_digest(a, ((4, 4), (2, 3))), nbw_digest(a), flush=True)
