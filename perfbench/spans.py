"""Outside-in spans around histree's layers, for the traced run only.

`Tracer.install` replaces the public names that the command line and the
build methods call with timing wrappers, and `uninstall` puts the originals
back.  Nothing under src/ knows about tracing.  Each span records its
name, start, end, parent span and job id; spans stay in memory and are
written out once, when the run ends.  A span's self time is its duration
minus the time covered by its child spans, so the self times of all spans
of a job add up to the job's time.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# Span names; the first word is the layer (module) the span belongs to.
JOB = "cli.job"

# (module, owner attribute or None, attribute, span name).  The owner is a
# class for methods; None means the attribute lives on the module itself.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("histree.cli", None, "parse_nbw", "formats.parse"),
    ("histree.cli", None, "emit_rabin", "formats.emit"),
    ("histree.cli", None, "bounded_equiv", "oracle.equiv"),
    ("histree.determinize", "Determinizer", "__init__", "determinize.init"),
    ("histree.determinize", "Determinizer", "build_drtw", "determinize.explore"),
    ("histree.determinize", "Determinizer", "build_drw", "determinize.explore"),
    ("histree.determinize", "Determinizer", "successor_trace", "determinize.successor"),
    ("histree.determinize", None, "assemble_pairs", "determinize.assemble"),
    ("histree.determinize", None, "assemble_state_pairs", "determinize.assemble"),
    ("histree.determinize", None, "classify", "trees.classify"),
    ("histree.determinize", None, "compress", "trees.compress"),
    ("histree.trees", "IdentifierTable", "__init__", "trees.table"),
    ("histree.trees", "IdentifierTable", "lookup", "trees.lookup"),
    ("histree.oracle", None, "nbw_lasso_member", "oracle.nbw_member"),
    ("histree.oracle", None, "det_lasso_member", "oracle.det_member"),
    ("histree.oracle", None, "word_profile", "oracle.word_profile"),
)


def _table_names(table) -> int:
    """Names an identifier table holds.  Reads the table's private map when
    it has one (it also counts names added lazily by lookups) and falls back
    to the eager spine order."""
    assigned = getattr(table, "_assigned", None)
    if assigned is not None:
        return len(assigned)
    return len(getattr(table, "spine_order", ()))


class Tracer:
    def __init__(self):
        self.names: List[str] = [JOB]
        self._name_ids: Dict[str, int] = {JOB: 0}
        self.span_name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self._job = -1
        self._saved: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []
        # Per-job counters read from values the wrapped calls return.
        self.counts: Dict[int, Dict[str, int]] = {}
        self._tables: List[object] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1])
        self.job.append(self._job)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _count(self, key: str, value: int) -> None:
        job = self.counts[self._job]
        job[key] = job.get(key, 0) + value

    def run_job(self, job_id: int, fn: Callable, *args):
        """Call fn(*args) as the root span of job `job_id`."""
        self._job = job_id
        self.counts[job_id] = {}
        self._tables = []
        idx = self._open(0)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
            self._count("trees.table_names", sum(_table_names(t) for t in self._tables))
            self._tables = []
            self._job = -1

    def _wrap(self, fn: Callable, span: str, after: Optional[Callable]) -> Callable:
        name_id = self._name_id(span)

        def traced(*args, **kwargs):
            if self._job < 0:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters taken from call results ----------------------------------

    def _after_build(self, args, automaton) -> None:
        stats = automaton.stats
        self._count("determinize.builds", 1)
        self._count("determinize.states", stats.states)
        self._count("determinize.transitions", stats.transitions)
        self._count("determinize.pairs", stats.pairs)
        job = self.counts[self._job]
        job["determinize.max_tree_nodes"] = max(
            job.get("determinize.max_tree_nodes", 0), stats.max_tree_nodes
        )

    def _after_emit(self, args, text) -> None:
        self._count("formats.emit_bytes", len(text.encode("utf-8")))

    def _after_equiv(self, args, report) -> None:
        self._count("oracle.lassos", report.tested)

    def _after_table(self, args, _result) -> None:
        self._tables.append(args[0])

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        after = {
            "determinize.explore": self._after_build,
            "formats.emit": self._after_emit,
            "oracle.equiv": self._after_equiv,
            "trees.table": self._after_table,
        }
        for module_name, owner_name, attr, span in TARGETS:
            owner = sys.modules[module_name]
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{owner_name + '.' if owner_name else ''}{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, after.get(span)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- analysis --------------------------------------------------------------

    def self_times(self):
        """Per span: (name, job, duration, self time)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for i in range(n):
            dur = self.end[i] - self.start[i]
            yield self.names[self.span_name[i]], self.job[i], dur, dur - child[i]

    def write(self, path) -> None:
        """One line per span: job, name, parent span index, start and end in
        microseconds from the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tjob\tname\tparent\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.job[i]}\t{self.names[self.span_name[i]]}\t{self.parent[i]}\t"
                    f"{(self.start[i] - origin) * 1e6:.1f}\t{(self.end[i] - origin) * 1e6:.1f}\n"
                )
