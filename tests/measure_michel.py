"""Time and size one canonical DRTW build of Michel's automaton.

    PYTHONPATH=src python tests/measure_michel.py --m 6

The input is the benchmark's Michel family (`perfbench/inputs.py`, m + 1
states over m + 1 letters), read through its HOA text.  The build allows
2,000,000 states.  The script prints the DRTW's states and pairs, then the
seconds spent parsing the HOA text, exploring the tree graph, assembling
the automaton and emitting it as HOA, and the peak resident set size of
the process
(`resource.getrusage`, so it includes the interpreter).  Run one m per
process, so that each peak is its own.

The name keeps pytest from collecting this script.
"""

from __future__ import annotations

import argparse
import resource
from time import perf_counter

from histree.determinize import Determinizer
from histree.formats import emit_rabin, parse_nbw
from sweep_build_digests import _bench_inputs

MAX_STATES = 2_000_000


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Measure a canonical DRTW build of Michel m.")
    parser.add_argument("--m", type=int, required=True, help="Michel parameter (m + 1 states)")
    args = parser.parse_args(argv)
    inputs = _bench_inputs()
    text = inputs.to_hoa(inputs.michel(args.m))
    read = perf_counter()
    nbw = parse_nbw(text)
    parsed = perf_counter()
    engine = Determinizer(nbw, "canonical", max_states=MAX_STATES)
    started = perf_counter()
    engine._graph
    explored = perf_counter()
    drtw = engine.build_drtw()
    built = perf_counter()
    emit_rabin(drtw)
    emitted = perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KB on Linux
    print(f"michel m={args.m} n={len(nbw.states)} states={len(drtw.payloads)} pairs={len(drtw.acceptance.indices)}")
    print(f"parse_s={parsed - read:.4f} explore_s={explored - started:.3f} build_s={built - explored:.3f} "
          f"emit_s={emitted - built:.3f} peak_rss_mb={peak_mb:.0f}")


if __name__ == "__main__":
    main()
