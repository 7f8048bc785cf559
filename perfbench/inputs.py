"""Input families of the histree benchmark.

Every automaton the benchmark feeds to histree is generated here from its
definition and written out as a HOA file, so the program under test only
ever sees files passed with ``--in``.  Nothing here imports histree.

Families:

* ``michel(m)``: a Michel-style lower-bound family (Michel 1988) whose
  deterministic size grows factorially in ``m``.  It does not depend on the
  seed.
* ``dense_random``: n = 7..8 states over {a,b,c}, each transition present
  with a probability drawn from [0.2, 0.25].
* ``sparse_random``: n states over {a,b}, one successor per state and
  symbol plus a second one with probability 0.1.
* ``corpus_random``: a copy of the ``histree.corpus.random_nbw``
  distribution (at most 5 states over {a,b}), so that the same
  ``random.Random`` yields the same automata as the library's corpus.

Random members are drawn from a per-index stream (``member(family, i)``),
so a pool of candidates can be listed once and a seed picks among them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Automaton:
    """A Buchi automaton as plain data: named states and symbols."""

    states: Tuple[str, ...]
    alphabet: Tuple[str, ...]
    transitions: Tuple[Tuple[str, str, str], ...]
    initial: Tuple[str, ...]
    finals: Tuple[str, ...]


def michel(m: int) -> Automaton:
    """States 0..m over {1..m,#}; 0 is initial and final.  0 loops on every
    letter and enters i on letter i; i loops on every letter and returns
    to 0 on letter i."""
    letters = tuple(str(i) for i in range(1, m + 1)) + ("#",)
    states = tuple(str(i) for i in range(m + 1))
    transitions = [("0", s, "0") for s in letters]
    for i in range(1, m + 1):
        q = str(i)
        transitions.append(("0", q, q))
        transitions.extend((q, s, q) for s in letters)
        transitions.append((q, q, "0"))
    return Automaton(states, letters, tuple(transitions), ("0",), ("0",))


def dense_random(rng: random.Random) -> Automaton:
    n = rng.choice((7, 8))
    states = tuple(f"q{i}" for i in range(n))
    density = rng.uniform(0.2, 0.25)
    transitions = tuple(
        (src, sym, dst)
        for src in states
        for sym in "abc"
        for dst in states
        if rng.random() < density
    )
    finals = tuple(q for q in states if rng.random() < 0.3) or (rng.choice(states),)
    return Automaton(states, ("a", "b", "c"), transitions, ("q0",), finals)


def sparse_random(rng: random.Random, n: int) -> Automaton:
    states = tuple(f"q{i}" for i in range(n))
    transitions = []
    for src in states:
        for sym in "ab":
            transitions.append((src, sym, rng.choice(states)))
            if rng.random() < 0.1:
                transitions.append((src, sym, rng.choice(states)))
    finals = tuple(q for q in states if rng.random() < 0.3) or (rng.choice(states),)
    return Automaton(states, ("a", "b"), tuple(transitions), ("q0",), finals)


def corpus_random(rng: random.Random) -> Automaton:
    """Same draws, in the same order, as histree.corpus.random_nbw with its
    defaults (max_states=5, alphabet ("a", "b"))."""
    alphabet = ("a", "b")
    n = rng.randint(1, 5)
    states = tuple(f"q{i}" for i in range(n))
    density = rng.uniform(0.15, 0.85)
    transitions = tuple(
        (src, sym, dst)
        for src in states
        for sym in alphabet
        for dst in states
        if rng.random() < density
    )
    if rng.random() < 0.05:
        initial: Tuple[str, ...] = ()
    else:
        initial = tuple(q for q in states if rng.random() < 0.5) or (rng.choice(states),)
    finals = tuple(q for q in states if rng.random() < 0.4)
    return Automaton(states, alphabet, transitions, initial, finals)


def member(family: str, index: int) -> Automaton:
    """Pool member `index` of a random family: "dense" or "sparse<n>"."""
    rng = random.Random(f"{family}:{index}")
    if family == "dense":
        return dense_random(rng)
    if family.startswith("sparse"):
        return sparse_random(rng, int(family[len("sparse"):]))
    raise ValueError(f"unknown family {family!r}")


def to_hoa(a: Automaton) -> str:
    """HOA v1 text in the subset histree reads: one proposition and one
    one-hot alias per symbol, state-based Buchi acceptance."""
    index = {q: i for i, q in enumerate(a.states)}
    k = len(a.alphabet)
    lines = ["HOA: v1", f"States: {len(a.states)}"]
    lines += [f"Start: {index[q]}" for q in a.initial]
    lines.append(f"AP: {k} " + " ".join(json.dumps(s) for s in a.alphabet))
    for i in range(k):
        lits = "&".join(str(j) if j == i else f"!{j}" for j in range(k))
        lines.append(f"Alias: @s{i} {lits}")
    lines += ["acc-name: Buchi", "Acceptance: 1 Inf(0)", "--BODY--"]
    sym_index = {s: i for i, s in enumerate(a.alphabet)}
    finals = set(a.finals)
    for q in a.states:
        lines.append(f"State: {index[q]} {json.dumps(q)}" + (" {0}" if q in finals else ""))
        for src, sym, dst in sorted(a.transitions, key=lambda t: (sym_index[t[1]], index[t[2]])):
            if src == q:
                lines.append(f"[@s{sym_index[sym]}] {index[dst]}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"
