"""Command-line surface: determinize, verify, gen-table, stats, render.

Exit codes: 0 success (and, for verify, equivalence), 1 a differential
counterexample was found, 2 bad input, exceeded capacity or a failed read
or write (such as output into a pipe its reader closed); an exceeded
state limit (`--max-states`, default DEFAULT_MAX_STATES) also prints the
partial build statistics to stderr.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

from .determinize import DEFAULT_MAX_STATES, MODES, Determinizer
from .dot import emit_dot
from .errors import HistreeError, InputError
from .formats import parse_nbw, write_rabin
from .oracle import bounded_equiv
from .trees import IdentifierTable

# Imported but not called here, kept because the benchmark's traced run
# wraps it by this module's name.
from .formats import emit_rabin


def _read_automaton(path: str):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_nbw(text)


def _cmd_determinize(args) -> int:
    nbw = _read_automaton(args.infile)
    engine = Determinizer(nbw, args.mode, args.strict_paper_marks, args.max_states)
    automaton = engine.build_drw() if args.out == "drw" else engine.build_drtw()
    write_rabin(automaton, sys.stdout)
    return 0


def _targets(nbw, strict: bool, max_states: int = DEFAULT_MAX_STATES):
    """The builds that verify and stats report on, all from one engine and
    one exploration; the canonical builds relabel the baseline build's
    pair indices."""
    engine = Determinizer(nbw, "canonical", strict, max_states)
    return [
        ("canonical-drtw", engine.build_drtw()),
        ("baseline-drtw", engine.build_drtw("baseline")),
        ("canonical-drw", engine.build_drw()),
    ]


def _cmd_verify(args) -> int:
    nbw = _read_automaton(args.infile)
    failed = False
    for label, automaton in _targets(nbw, args.strict_paper_marks, args.max_states):
        report = bounded_equiv(nbw, automaton, args.max_u, args.max_v)
        sys.stdout.write(f"target={label}\n")
        sys.stdout.write(report.to_text())
        failed = failed or not report.equivalent
    return 1 if failed else 0


def _cmd_gen_table(args) -> int:
    sys.stdout.write(IdentifierTable(args.n).dump_text())
    return 0


def _cmd_stats(args) -> int:
    nbw = _read_automaton(args.infile)
    for label, automaton in _targets(nbw, strict=False):
        sys.stdout.write(f"target={label}\n")
        sys.stdout.write(automaton.stats.to_text())
    return 0


def _cmd_render(args) -> int:
    nbw = _read_automaton(args.infile)
    Path(args.dot).write_text(emit_dot(nbw), encoding="utf-8")
    return 0


def _max_states_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES, metavar="N",
                        help=f"state limit of each build (default {DEFAULT_MAX_STATES}); "
                             "exceeding it exits 2 with partial statistics")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, so every call starts from the same defaults."""
    parser = argparse.ArgumentParser(
        prog="histree",
        description=(
            "Determinize Buchi automata into deterministic Rabin (transition) "
            "automata and check the results against a brute-force oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    det = sub.add_parser("determinize", help="write the Rabin automaton as HOA")
    det.add_argument("--in", dest="infile", required=True, help="input file (HOA or native), - for stdin")
    det.add_argument("--mode", choices=MODES, default="canonical")
    det.add_argument("--out", choices=("drtw", "drw"), default="drtw",
                     help="acceptance on transitions (drtw) or states (drw)")
    det.add_argument("--strict-paper-marks", action="store_true",
                     help="mark only displaced nodes rejecting; skip the vanished-witness rule")
    _max_states_option(det)
    det.set_defaults(func=_cmd_determinize)

    ver = sub.add_parser("verify", help="differential check against the bounded lasso oracle")
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--max-u", type=int, default=4, help="largest prefix length")
    ver.add_argument("--max-v", type=int, default=4, help="largest period length")
    ver.add_argument("--strict-paper-marks", action="store_true")
    _max_states_option(ver)
    ver.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen-table", help="dump the identifier table in spine order")
    gen.add_argument("--n", type=int, required=True, help="tree capacity")
    gen.set_defaults(func=_cmd_gen_table)

    st = sub.add_parser("stats", help="construction statistics for each build")
    st.add_argument("--in", dest="infile", required=True)
    st.set_defaults(func=_cmd_stats)

    ren = sub.add_parser("render", help="write the input automaton as Graphviz DOT")
    ren.add_argument("--in", dest="infile", required=True)
    ren.add_argument("--dot", required=True, help="output path")
    ren.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HistreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        partial = getattr(exc, "partial", None)
        if partial is not None:
            sys.stderr.write(partial.to_text())
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
