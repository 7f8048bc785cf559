"""Correctness gate, run after the timed region.

A job fails when it raised, exited non-zero, or its output is wrong:

* `determinize`: the sha256 of stdout must equal the digest recorded at the
  seed commit (byte identity), and the document, read back with
  `parse_rabin`, must agree with the brute-force `nbw_lasso_member` on every
  lasso with prefix and period lengths up to 2.
* `verify`: every target must report `counterexample=none`.
"""

from __future__ import annotations

import hashlib
from itertools import product
from typing import Dict, List, Optional, Tuple

GATE_MAX_U = 2
GATE_MAX_V = 2

VERIFY_TARGETS = ("canonical-drtw", "baseline-drtw", "canonical-drw")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def lassos(alphabet, max_u: int, max_v: int):
    for u_len in range(max_u + 1):
        for prefix in product(alphabet, repeat=u_len):
            for v_len in range(1, max_v + 1):
                for period in product(alphabet, repeat=v_len):
                    yield prefix, period


class Gate:
    """Checks job outputs; `histree` is the imported package under test."""

    def __init__(self, histree, golden: Dict[str, str]):
        self.h = histree
        self.golden = golden
        self._verdicts: Dict[str, List[Tuple[object, bool]]] = {}
        self._documents: Dict[Tuple[str, str], Optional[str]] = {}

    def _nbw_verdicts(self, job) -> List[Tuple[object, bool]]:
        """Reference verdicts of the input automaton, shared by its targets."""
        got = self._verdicts.get(job.input_key)
        if got is None:
            a = job.automaton
            nbw = self.h.NBW.make(a.states, a.alphabet, a.transitions, a.initial, a.finals)
            got = []
            for prefix, period in lassos(a.alphabet, GATE_MAX_U, GATE_MAX_V):
                w = self.h.LassoWord(prefix, period)
                got.append((w, self.h.nbw_lasso_member(nbw, w)))
            self._verdicts[job.input_key] = got
        return got

    def _document_problem(self, job, text: str, sha: str) -> Optional[str]:
        key = (job.key, sha)
        if key not in self._documents:
            problem = None
            try:
                det = self.h.parse_rabin(text)
                for w, expected in self._nbw_verdicts(job):
                    if self.h.det_lasso_member(det, w) != expected:
                        problem = f"disagrees with the NBW on lasso {w}"
                        break
            except Exception as exc:  # any failure to read back is a wrong output
                problem = f"read-back failed: {exc!r}"
            self._documents[key] = problem
        return self._documents[key]

    def check(self, job, code, stdout: str, error: Optional[str]) -> Optional[str]:
        """None when the job's result is correct, else the reason."""
        if error is not None:
            return error
        if code != 0:
            return f"exit code {code}"
        if job.command == "verify":
            return _verify_problem(stdout)
        sha = digest(stdout)
        expected = self.golden.get(job.key)
        if expected is None:
            return f"no recorded digest for {job.key}"
        if sha != expected:
            return f"stdout sha256 {sha[:12]} != recorded {expected[:12]}"
        return self._document_problem(job, stdout, sha)


def _verify_problem(stdout: str) -> Optional[str]:
    seen = {}
    target = None
    for line in stdout.splitlines():
        if line.startswith("target="):
            target = line[len("target="):]
        elif line.startswith("counterexample=") and target is not None:
            seen[target] = line[len("counterexample="):]
    for target in VERIFY_TARGETS:
        if seen.get(target) != "none":
            return f"target {target}: counterexample={seen.get(target)}"
    return None
