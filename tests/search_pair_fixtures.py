"""Seeded search for small automata that exercise the Rabin pair index.

For each state count n in SIZES, random restarts followed by hill
climbing (toggle one transition, final or initial state) looks for a
two-letter automaton whose baseline build needs many Rabin pairs and whose
canonical build needs as many as the identifier table allows, with a
strict saving from canonical indexing.  Candidates are scored by
(canonical pairs, baseline pairs, fewer DRTW states); builds of more than
STATE_CAP DRTW states are skipped so the fixtures stay quick to verify.
The best automaton per n is written as HOA to
`fixtures/pair_index_n<n>.hoa`, which `test_acceptance.py` pins.

The search is deterministic: a fixed seed and a fixed number of
evaluations, no wall-clock limit.  Re-run it with

    PYTHONPATH=src python tests/search_pair_fixtures.py

The name keeps pytest from collecting this script.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Optional, Tuple

from histree.automata import NBW
from histree.determinize import Determinizer
from histree.errors import CapacityError
from histree.formats import emit_nbw_hoa

FIXTURE_DIR = Path(__file__).parent / "fixtures"
SEED = 7
ALPHABET = ("a", "b")
STATE_CAP = 250
SIZES = (4, 5, 6)
RESTARTS = 20
STEPS = 400  # hill-climbing steps per restart

Score = Tuple[int, int, int]


def fixture_path(n: int) -> Path:
    return FIXTURE_DIR / f"pair_index_n{n}.hoa"


def pair_counts(a: NBW) -> Tuple[int, int, int]:
    """(baseline pairs, canonical pairs, DRTW states) from one exploration."""
    engine = Determinizer(a, "baseline", max_states=STATE_CAP)
    baseline = engine.build_drtw("baseline")
    canonical = engine.build_drtw("canonical")
    return len(baseline.acceptance.indices), len(canonical.acceptance.indices), len(baseline.payloads)


def score(a: NBW) -> Optional[Score]:
    try:
        baseline, canonical, states = pair_counts(a)
    except CapacityError:
        return None
    return canonical, baseline, -states


def random_automaton(rng: random.Random, n: int) -> NBW:
    states = tuple(f"q{i}" for i in range(n))
    density = rng.uniform(0.2, 0.6)
    transitions = [(p, c, q) for p in states for c in ALPHABET for q in states if rng.random() < density]
    finals = tuple(q for q in states if rng.random() < 0.4) or (rng.choice(states),)
    return NBW.make(states, ALPHABET, transitions, (states[0],), finals)


def mutate(rng: random.Random, a: NBW) -> NBW:
    """Toggle one transition (most of the time), final state or non-first
    initial state."""
    transitions, finals, initial = set(a.transitions), set(a.finals), set(a.initial)
    roll = rng.random()
    if roll < 0.8:
        edge = (rng.choice(a.states), rng.choice(ALPHABET), rng.choice(a.states))
        transitions ^= {edge}
    elif roll < 0.95:
        finals ^= {rng.choice(a.states)}
    else:
        initial ^= {rng.choice(a.states[1:])}
    return NBW.make(a.states, ALPHABET, sorted(transitions), sorted(initial), sorted(finals))


def search(rng: random.Random, n: int) -> Tuple[NBW, Score]:
    """The best-scoring automaton with a canonical saving among every
    candidate the climbs evaluate."""
    best: Optional[Tuple[NBW, Score]] = None

    def consider(a: NBW, a_score: Optional[Score]) -> None:
        nonlocal best
        if a_score is not None and a_score[0] < a_score[1] and (best is None or a_score > best[1]):
            best = a, a_score

    for _ in range(RESTARTS):
        current = random_automaton(rng, n)
        current_score = score(current)
        consider(current, current_score)
        for _ in range(STEPS):
            candidate = mutate(rng, current)
            candidate_score = score(candidate)
            consider(candidate, candidate_score)
            if candidate_score is not None and (current_score is None or candidate_score >= current_score):
                current, current_score = candidate, candidate_score
    assert best is not None, f"no automaton with a canonical saving found at n={n}"
    return best


if __name__ == "__main__":
    rng = random.Random(SEED)
    for n in SIZES:
        a, (canonical, baseline, states) = search(rng, n)
        fixture_path(n).write_text(emit_nbw_hoa(a), encoding="utf-8")
        print(f"n={n}: baseline {baseline}, canonical {canonical}, {-states} DRTW states -> {fixture_path(n)}")
