"""histree benchmark: `determinize` and `verify` jobs through the command line.

    python3 perfbench/run.py --workload determinize --seed 1 --seconds 50 --trace 0

One process, one client, closed loop: each job is one call of
`histree.cli.main([...])` in this process, with stdout captured, and the
next job starts when the previous one returns.  A pass runs every job of
the workload once; whole passes repeat until the pass boundary nearest to
`--seconds` and at least the workload's minimum number of passes.  Outputs
are checked after the timed region (see gate.py).

Workloads (inputs come from inputs.py; the seed picks the random ones):

* determinize: `determinize` for canonical-drtw, baseline-drtw and
  canonical-drw on two kinds of input.  The Michel family at m = 4, 5 and
  20 dense random NBWs have large reachable tree graphs: the successor
  kernel does the work.  Sparse random NBWs at n = 10, 11, 12 have few
  reachable trees but a large identifier table, so their canonical jobs
  are mostly table construction; their baseline jobs run the same
  explorations without a table.
* verify: `histree verify` (U = V = 4, all three targets) on 40 automata
  of the library's corpus distribution.  The lasso oracle does the work.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs each job
untraced and then traced, and prints per-layer metrics from spans recorded
around the calls into each layer (see spans.py).  `--workload all` runs every
workload in turn, each in its own process.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import gate as gate_mod  # noqa: E402
import inputs  # noqa: E402
from spans import JOB, Tracer  # noqa: E402

DEFAULT_SEED = 413007  # the library's corpus seed: verify then runs default_corpus()[:40]
# Set-up is timed once before the first job and then again about every
# SETUP_EVERY seconds between jobs of an untraced run, so its median spans
# the same stretch of machine time as the jobs' figures.
SETUP_EVERY = 1.0
TAIL_BEYOND = 10

TARGET_ARGS = {
    "canonical-drtw": ["--mode", "canonical", "--out", "drtw"],
    "baseline-drtw": ["--mode", "baseline", "--out", "drtw"],
    "canonical-drw": ["--mode", "canonical", "--out", "drw"],
}
DETERMINIZE_TARGETS = tuple(TARGET_ARGS)

MICHEL = (4, 5)
DENSE_COUNT = 20
SPARSE_PER_SIZE = {10: 4, 11: 3, 12: 2}
SPARSE_SIZES = tuple(SPARSE_PER_SIZE)
VERIFY_COUNT = 40


@dataclass
class Job:
    label: str
    command: str  # "determinize" or "verify"
    target: str
    automaton: inputs.Automaton
    input_key: str
    argv: List[str]

    @property
    def key(self) -> str:
        return f"{self.input_key}:{self.target}"


@dataclass
class Sample:
    job: int
    seconds: float
    traced: bool


@dataclass
class Workload:
    name: str
    pick: object  # (seed, pools) -> [(label, Automaton)]
    command: str
    min_passes: int


def _determinize_inputs(seed: int, pools) -> list:
    rng = random.Random(f"determinize:{seed}")
    items = [(f"michel{m}", inputs.michel(m)) for m in MICHEL]
    for i in rng.sample(pools["dense"], DENSE_COUNT):
        items.append((f"dense{i}", inputs.member("dense", i)))
    for n, k in SPARSE_PER_SIZE.items():
        for i in rng.sample(pools[f"sparse{n}"], k):
            items.append((f"sparse{n}-{i}", inputs.member(f"sparse{n}", i)))
    return items


def _verify_key(a: inputs.Automaton) -> tuple:
    return len(a.states), len(a.transitions) // 8


def _verify_inputs(seed: int, pools) -> list:
    """VERIFY_COUNT corpus draws from random.Random(seed), skipping draws
    whose (state count, transitions // 8) class is already full.  Each class
    is held as often as in the first VERIFY_COUNT draws of the default seed.
    The class drives the oracle's cost, so seeds stay comparable.  At the
    default seed nothing is skipped: the draw equals default_corpus()[:40]."""
    base = random.Random(DEFAULT_SEED)
    quota = Counter(_verify_key(inputs.corpus_random(base)) for _ in range(VERIFY_COUNT))
    rng = random.Random(seed)
    items = []
    draws = 0
    while len(items) < VERIFY_COUNT:
        a = inputs.corpus_random(rng)
        draws += 1
        if quota[_verify_key(a)] > 0:
            quota[_verify_key(a)] -= 1
            items.append((f"corpus{draws - 1}", a))
    return items


# Minimum passes.  The tail percentile has TAIL_BEYOND samples beyond it
# in a run of this many passes; longer runs keep the percentile, so the tail
# sample stays at the same place inside one job class whatever the seed and
# the machine's speed.  On determinize that is the middle of the four n = 12
# canonical jobs of a pass, behind its three m = 5 jobs.  Its median
# execution falls in the middle of the 30..70 ms band of dense and n = 10
# canonical jobs, above the nine fast sparse baseline jobs.
WORKLOADS = {
    "determinize": Workload("determinize", _determinize_inputs, "determinize", 2),
    "verify": Workload("verify", _verify_inputs, "verify", 4),
}


# -- set-up ---------------------------------------------------------------------


@dataclass
class Setup:
    histree: object
    cli: object
    jobs: List[Job]
    golden: Dict[str, str]


def _import_histree():
    for name in [m for m in sys.modules if m == "histree" or m.startswith("histree.")]:
        del sys.modules[name]
    histree = importlib.import_module("histree")
    if not Path(histree.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"histree imported from {histree.__file__}, not from {SRC}")
    return histree, importlib.import_module("histree.cli")


def setup(workload: Workload, seed: int, in_dir: Path) -> Setup:
    """Imports, input generation, input files in the new directory `in_dir`
    and the recorded digests."""
    histree, cli = _import_histree()
    pools = json.loads((HERE / "pools.json").read_text(encoding="utf-8"))
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    in_dir.mkdir(parents=True)
    jobs = []
    for label, automaton in workload.pick(seed, pools):
        text = inputs.to_hoa(automaton)
        path = in_dir / f"{label}.hoa"
        path.write_text(text, encoding="utf-8")
        key = gate_mod.digest(text)[:16]
        if workload.command == "verify":
            jobs.append(Job(label, "verify", "verify", automaton, key, ["verify", "--in", str(path)]))
            continue
        for target, extra in TARGET_ARGS.items():
            argv = ["determinize", "--in", str(path), *extra]
            jobs.append(Job(label, "determinize", target, automaton, key, argv))
    return Setup(histree, cli, jobs, golden)


# -- measurement --------------------------------------------------------------------


@dataclass
class Results:
    samples: List[Sample] = field(default_factory=list)
    # Per execution: (job, exit code, stdout digest or None, error).
    outcomes: List[tuple] = field(default_factory=list)
    # First stdout seen per (job, digest), for the gate.
    texts: Dict[tuple, str] = field(default_factory=dict)


def _run_job(s: Setup, p: int, j: int, res: Results, tracer: Optional[Tracer]) -> None:
    job = s.jobs[j]
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    gc.collect()  # start each job on a collected heap, as a fresh process would
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = s.cli.main(job.argv)
            else:
                code = tracer.run_job(p * len(s.jobs) + j, s.cli.main, job.argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed job, not a crashed benchmark
        error = f"{type(exc).__name__}: {exc}"
    t1 = perf_counter()
    res.samples.append(Sample(j, t1 - t0, tracer is not None))
    text = out.getvalue()
    sha = gate_mod.digest(text) if error is None else None
    res.outcomes.append((j, code, sha, error))
    if error is None:
        res.texts.setdefault((j, sha), text)


def measure(s: Setup, workload: Workload, seconds: float, tracer: Optional[Tracer],
            between=None) -> Results:
    """Untraced: whole passes, calling `between()` after each job, until
    the workload's minimum number of passes has run and the pass boundary
    nearest to `seconds` is reached.  Whole passes keep the mix of jobs,
    and so the place of the median and tail in it, the same in every run.
    Traced: each job runs untraced and
    then traced, so the two see the same machine; pass p's traced runs
    count as pass p + 1.  Passes repeat while another one fits in
    `seconds`."""
    res = Results()
    start = perf_counter()
    p = 0
    if tracer is None:
        while True:
            t0 = perf_counter()
            for j in range(len(s.jobs)):
                _run_job(s, p, j, res, None)
                if between is not None:
                    between()
            p += 1
            now = perf_counter()
            if p >= workload.min_passes and now - start + (now - t0) / 2 >= seconds:
                return res
    last = 0.0
    while p == 0 or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        for j in range(len(s.jobs)):
            _run_job(s, p, j, res, None)
            tracer.install()
            try:
                _run_job(s, p + 1, j, res, tracer)
            finally:
                tracer.uninstall()
        last = perf_counter() - t0
        p += 2
    return res


def check(s: Setup, res: Results) -> List[str]:
    """Gate every execution; returns one reason per failed execution."""
    g = gate_mod.Gate(s.histree, s.golden)
    problems = []
    verdict: Dict[tuple, Optional[str]] = {}
    for j, code, sha, error in res.outcomes:
        key = (j, code, sha, error)
        if key not in verdict:
            text = res.texts.get((j, sha), "")
            verdict[key] = g.check(s.jobs[j], code, text, error)
        if verdict[key] is not None:
            problems.append(f"{s.jobs[j].label} {s.jobs[j].target}: {verdict[key]}")
    return problems


# -- metrics ------------------------------------------------------------------------


def _states(text: str) -> int:
    for line in text.splitlines()[:3]:
        if line.startswith("States:"):
            return int(line.split()[1])
    return 0


def _tested(text: str) -> int:
    return sum(int(line[len("tested="):]) for line in text.splitlines() if line.startswith("tested="))


def end_to_end(s: Setup, workload: Workload, res: Results, setup_times: List[float],
               peak_rss_mb: float, failed: int):
    """Every execution of a job is one latency sample.  The tail is the
    percentile with TAIL_BEYOND samples beyond it in a run of the minimum
    number of passes, so it has at least that many in any run.  The
    per-target sums and rates use each job's median execution."""
    lat = [x.seconds for x in res.samples]
    order = sorted(range(len(lat)), key=lat.__getitem__)
    n = len(lat)
    beyond = round(TAIL_BEYOND * n / (workload.min_passes * len(s.jobs)))
    tail = order[max(n - beyond - 1, 0)]
    setup_s = statistics.median(setup_times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_ms_p50": (statistics.median(lat) * 1000, "ms"),
        "latency_ms_tail": (lat[tail] * 1000, "ms"),
        "jobs_per_s": (n / sum(lat), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    job = s.jobs[res.samples[tail].job]
    notes = [
        f"latency_ms_tail is p{100 * (1 - beyond / n):.1f} of {n} samples, with "
        f"{beyond} slower ones ({job.label} {job.target})",
        f"setup_s is the median of {len(setup_times)} set-ups",
        f"fail_ratio = {failed / n:.4f} ({failed} of {n} executions)",
    ]
    runs: Dict[int, List[float]] = {}
    for x in res.samples:
        runs.setdefault(x.job, []).append(x.seconds)
    latency = {j: statistics.median(v) for j, v in runs.items()}
    for target in DETERMINIZE_TARGETS:
        total = sum(t for j, t in latency.items() if s.jobs[j].target == target)
        if total:
            notes.append(f"{target.replace('-', '_')}_s = {total:.4f} s (one pass)")
    text = {j: t for (j, _), t in res.texts.items()}
    det = [j for j in latency if s.jobs[j].command == "determinize"]
    if det:
        states = sum(_states(text.get(j, "")) for j in det)
        notes.append(f"states_per_s = {states / sum(latency[j] for j in det):.1f} 1/s")
    ver = [j for j in latency if s.jobs[j].command == "verify"]
    if ver:
        lassos = sum(_tested(text.get(j, "")) for j in ver)
        notes.append(f"lassos_per_s = {lassos / sum(latency[j] for j in ver):.1f} 1/s")
    return metrics, notes


# Counts of calls, from spans.
CALL_METRICS = {
    "trees.table_calls": "trees.table",
    "trees.lookup_calls": "trees.lookup",
    "trees.classify_calls": "trees.classify",
    "trees.compress_calls": "trees.compress",
    "determinize.successor_calls": "determinize.successor",
    "oracle.nbw_member_calls": "oracle.nbw_member",
    "oracle.word_profile_calls": "oracle.word_profile",
    "oracle.det_member_calls": "oracle.det_member",
}

# Counts read from the values the traced calls return (see spans.Tracer).
RESULT_METRICS = (
    "trees.table_names", "determinize.states", "determinize.transitions",
    "determinize.pairs", "determinize.max_tree_nodes", "formats.emit_bytes", "oracle.lassos",
)

SELF_TIME_METRICS = {
    "trees.table_s": "trees.table",
    "trees.lookup_s": "trees.lookup",
    "trees.classify_s": "trees.classify",
    "trees.compress_s": "trees.compress",
    "determinize.init_s": "determinize.init",
    "determinize.successor_s": "determinize.successor",
    "determinize.explore_s": "determinize.explore",
    "determinize.assemble_s": "determinize.assemble",
    "formats.parse_s": "formats.parse",
    "formats.emit_s": "formats.emit",
    "oracle.equiv_s": "oracle.equiv",
    "oracle.nbw_member_s": "oracle.nbw_member",
    "oracle.word_profile_s": "oracle.word_profile",
    "oracle.det_member_s": "oracle.det_member",
    "cli.self_s": JOB,
}


def _family(job: Job) -> str:
    """The input family of a job's label: michel, dense, sparse or corpus."""
    return job.label.rstrip("0123456789-")


def per_layer(s: Setup, res: Results, tracer: Tracer):
    """Self times: per-pass sums, median over traced passes.  Counts: the
    first traced pass."""
    n_jobs = len(s.jobs)
    traced = sorted({job // n_jobs for job in tracer.counts})
    self_s: Dict[int, Counter] = {p: Counter() for p in traced}
    dur_s: Dict[int, Counter] = {p: Counter() for p in traced}
    calls: Dict[int, Counter] = {p: Counter() for p in traced}
    # Per input family: job time, successor time with its children, and
    # the canonical jobs' time and table self time.
    family: Dict[str, Counter] = {}
    table_by_n: Dict[int, List[float]] = {}
    for name, job, dur, own in tracer.self_times():
        p = job // n_jobs
        self_s[p][name] += own
        dur_s[p][name] += dur
        calls[p][name] += 1
        f = family.setdefault(_family(s.jobs[job % n_jobs]), Counter())
        if name == JOB:
            f["job"] += dur
        elif name == "determinize.successor":
            f["successor"] += dur
        if s.jobs[job % n_jobs].target.startswith("canonical"):
            if name == JOB:
                f["canonical_job"] += dur
            elif name == "trees.table":
                f["canonical_table"] += own
        if name == "trees.table":
            table_by_n.setdefault(len(s.jobs[job % n_jobs].automaton.states), []).append(own)
    counts: Dict[int, Counter] = {p: Counter() for p in traced}
    for job, values in tracer.counts.items():
        c = counts[job // n_jobs]
        for key, v in values.items():
            if key == "determinize.max_tree_nodes":
                c[key] = max(c[key], v)
            else:
                c[key] += v

    def med(f):
        return statistics.median(f(p) for p in traced)

    first = traced[0]
    c0 = counts[first]
    n0 = calls[first]
    m: Dict[str, tuple] = {}
    for metric, span in SELF_TIME_METRICS.items():
        m[metric] = (med(lambda p: self_s[p][span]), "s")
    for metric, span in CALL_METRICS.items():
        m[metric] = (n0[span], "count")
    for metric in RESULT_METRICS:
        m[metric] = (c0[metric], "bytes" if metric.endswith("_bytes") else "count")
    succ_calls = n0["determinize.successor"]
    m["determinize.successor_us"] = (
        med(lambda p: self_s[p]["determinize.successor"] / max(calls[p]["determinize.successor"], 1) * 1e6),
        "us",
    )
    m["determinize.builds"] = (c0["determinize.builds"] / n_jobs, "count")
    m["determinize.new_state_ratio"] = (c0["determinize.states"] / succ_calls if succ_calls else 0.0, "ratio")
    lassos = c0["oracle.lassos"]
    m["oracle.nbw_calls_per_lasso"] = (n0["oracle.nbw_member"] / lassos if lassos else 0.0, "ratio")
    untraced_s = sum(x.seconds for x in res.samples if not x.traced)
    traced_s = sum(x.seconds for x in res.samples if x.traced)
    m["trace.overhead_pct"] = ((traced_s / untraced_s - 1) * 100, "%")

    job_total = sum(dur_s[p][JOB] for p in traced)
    layer_self = Counter()
    for p in traced:
        for name, v in self_s[p].items():
            layer_self[name.split(".")[0]] += v
    notes = ["share of job time by layer (self time): " + ", ".join(
        f"{layer} {100 * v / job_total:.1f}%" for layer, v in sorted(layer_self.items()))]
    successor = sum(dur_s[p]["determinize.successor"] for p in traced)
    successor_calls = sum(calls[p]["determinize.successor"] for p in traced)
    notes.append(f"determinize.successor with its trees children: {100 * successor / job_total:.1f}% "
                 f"of job time, {1e6 * successor / max(successor_calls, 1):.1f} us per call")
    notes.append("trees.table per build, median by input states: " + ", ".join(
        f"n={n} {statistics.median(v):.4f} s" for n, v in sorted(table_by_n.items())))
    for name, f in sorted(family.items()):
        note = (f"{name} inputs: determinize.successor with its trees children "
                f"{100 * f['successor'] / f['job']:.1f}% of job time")
        if f["canonical_job"]:
            note += f", trees.table_s {100 * f['canonical_table'] / f['canonical_job']:.1f}% of canonical job time"
        notes.append(note)
    if tracer.missing:
        notes.append("not traced (name not found): " + ", ".join(tracer.missing))
    return m, notes


# -- entry points ------------------------------------------------------------------


def _result_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> int:
    in_root = OUT / "inputs" / workload.name
    shutil.rmtree(in_root, ignore_errors=True)
    t0 = perf_counter()
    s = setup(workload, seed, in_root / "0")
    setup_times = [perf_counter() - t0]
    last = perf_counter()

    def setup_again():
        """Time another set-up into a new directory; the jobs keep `s`."""
        nonlocal last
        if perf_counter() - last < SETUP_EVERY:
            return
        in_dir = in_root / str(len(setup_times))
        t0 = perf_counter()
        setup(workload, seed, in_dir)
        setup_times.append(perf_counter() - t0)
        shutil.rmtree(in_dir)
        last = perf_counter()

    tracer = Tracer() if traced else None
    res = measure(s, workload, seconds, tracer, None if traced else setup_again)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = check(s, res)
    attempted = len(res.samples)
    failed = len(problems)

    print(f"workload={workload.name} seed={seed} jobs_per_pass={len(s.jobs)} "
          f"executions={attempted} traced={int(traced)}")
    for reason in sorted(set(problems))[:20]:
        print(f"FAILED {reason}")
    if tracer is None:
        metrics, notes = end_to_end(s, workload, res, setup_times, peak_rss_mb, failed)
    else:
        metrics, notes = per_layer(s, res, tracer)
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"spans-{workload.name}.tsv"
        tracer.write(spans)
        notes.append(f"fail_ratio = {failed / attempted:.4f}; {len(tracer.start)} spans written "
                     f"to {spans.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(_result_line(failed == 0, attempted, failed, metrics))
    return 0


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 2
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for k, v in result["metrics"].items():
            metrics[f"{name}.{k}"] = (v["value"], v["unit"])
    print(_result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "histree" / "cli.py").is_file():
        print(f"error: no histree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
