"""Time and size one canonical DRTW build of Michel's automaton.

    PYTHONPATH=src python tests/measure_michel.py --m 6 [--max-states N]

The input is the benchmark's Michel family (`perfbench/inputs.py`, m + 1
states over m + 1 letters), read through its HOA text.  The build allows
`--max-states` states (default 2,000,000).  The script prints the DRTW's
states, the distinct tree shapes among them (the engine's shape records)
and its pairs, then the seconds spent parsing the HOA text, exploring the
tree graph (the baseline DRTW, with its pairs assembled), relabeling it
into the canonical DRTW and writing that as HOA, block by block through
`write_rabin`, to the null device.  Last come the peak resident set size
of the process after the build and after emission (`resource.getrusage`,
so it includes the interpreter); the second is the whole run's peak.
`bytes_per_state` is the build's peak less the peak before it, over the
states.  Run one m per process, so that each peak is its own.

A run that runs out of memory (under `ulimit -v`, say) prints how many
trees the engine had met, the seconds spent and the peak so far, and
exits 1.

The name keeps pytest from collecting this script.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
from time import perf_counter

from histree.determinize import Determinizer
from histree.formats import parse_nbw, write_rabin
from sweep_build_digests import _bench_inputs


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Measure a canonical DRTW build of Michel m.")
    parser.add_argument("--m", type=int, required=True, help="Michel parameter (m + 1 states)")
    parser.add_argument("--max-states", type=int, default=2_000_000, help="the build's state limit")
    args = parser.parse_args(argv)
    inputs = _bench_inputs()
    text = inputs.to_hoa(inputs.michel(args.m))
    read = perf_counter()
    nbw = parse_nbw(text)
    parsed = perf_counter()
    engine = Determinizer(nbw, "canonical", max_states=args.max_states)
    before_mb = _peak_rss_mb()
    started = perf_counter()
    try:
        engine.build_drtw("baseline")
    except MemoryError:
        stopped = perf_counter()
        met = sum(len(record.trees) for record in engine._shapes.values())
        print(f"michel m={args.m} n={len(nbw.states)} MemoryError after trees_met={met} "
              f"explore_s={stopped - started:.1f} peak_rss_mb={_peak_rss_mb():.0f}")
        sys.exit(1)
    explored = perf_counter()
    drtw = engine.build_drtw()
    built = perf_counter()
    build_peak_mb = _peak_rss_mb()
    with open(os.devnull, "w", encoding="utf-8") as sink:
        write_rabin(drtw, sink)
    emitted = perf_counter()
    states = len(drtw.payloads)
    print(f"michel m={args.m} n={len(nbw.states)} states={states} "
          f"shapes={len(engine._shapes)} pairs={len(drtw.acceptance.indices)}")
    print(f"parse_s={parsed - read:.4f} explore_s={explored - started:.3f} build_s={built - explored:.3f} "
          f"emit_s={emitted - built:.3f} build_peak_rss_mb={build_peak_mb:.0f} peak_rss_mb={_peak_rss_mb():.0f} "
          f"bytes_per_state={(build_peak_mb - before_mb) * 2**20 / states:.0f}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KB on Linux


if __name__ == "__main__":
    main()
