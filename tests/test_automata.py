import random

import pytest

from histree.automata import (
    DRTW,
    EMPTY_ANNOTATION,
    LassoWord,
    NBW,
    RabinPair,
    RabinPairSet,
    image,
    rabin_loop_accepts,
    validate_nbw,
)
from histree.errors import InputError


def test_validate_rejects_undeclared_transition_state(e1_nbw):
    broken = NBW.make(
        states=("p", "q"),
        alphabet=("a",),
        transitions=[("p", "a", "q9")],
        initial=("p",),
        finals=("q",),
    )
    problems = validate_nbw(broken)
    assert len(problems) == 1
    assert "q9" in problems[0]


def test_validate_allows_empty_initial():
    a = NBW.make(("p",), ("a",), [("p", "a", "p")], (), ("p",))
    assert validate_nbw(a) == []


def test_validate_e1_clean(e1_nbw):
    assert validate_nbw(e1_nbw) == []


def test_validate_reports_every_violation():
    a = NBW.make(("p",), ("a",), [("p", "b", "p"), ("x", "a", "p")], ("y",), ("z",))
    problems = validate_nbw(a)
    assert len(problems) == 4


def test_image_on_e1(e1_nbw):
    rows = e1_nbw.rows["a"]
    assert image(e1_nbw.mask({"p"}), rows) == e1_nbw.mask({"p", "q"})
    assert image(0, rows) == 0
    assert image(e1_nbw.mask({"q"}), rows) == e1_nbw.mask({"q"})


def _random_nbw(rng):
    states = tuple(f"s{i}" for i in range(rng.randint(1, 5)))
    alphabet = ("a", "b")
    transitions = [
        (p, c, q) for p in states for c in alphabet for q in states if rng.random() < 0.5
    ]
    return NBW.make(states, alphabet, transitions, states[:1], states[-1:])


def test_image_monotone_and_distributes_over_union():
    rng = random.Random(7)
    for _ in range(50):
        a = _random_nbw(rng)
        pool = list(a.states)
        small = frozenset(q for q in pool if rng.random() < 0.4)
        big = small | frozenset(q for q in pool if rng.random() < 0.4)
        for sym in a.alphabet:
            rows = a.rows[sym]
            post = {dst for src, s, dst in a.transitions if s == sym and src in small}
            assert image(a.mask(small), rows) == a.mask(post)
            assert image(a.mask(small), rows) & ~image(a.mask(big), rows) == 0
            assert image(a.mask(small | big), rows) == image(a.mask(small), rows) | image(a.mask(big), rows)


def test_rabin_loop_accepts_examples():
    acc = RabinPairSet(
        "state", (RabinPair(index=0, accepting=frozenset({1}), rejecting=frozenset({2})),)
    )
    assert rabin_loop_accepts(acc, {1})
    assert not rabin_loop_accepts(acc, {1, 2})
    assert not rabin_loop_accepts(RabinPairSet("state", ()), {1, 2, 3})


def test_rabin_loop_accepts_kind_mismatch():
    acc = RabinPairSet(
        "transition",
        (RabinPair(index=0, accepting=frozenset({(0, "a")}), rejecting=frozenset()),),
    )
    with pytest.raises(InputError):
        rabin_loop_accepts(acc, {3})


def test_rabin_monotone_in_accepting_antitone_in_rejecting():
    rng = random.Random(11)
    universe = list(range(8))
    for _ in range(200):
        pairs = tuple(
            RabinPair(
                index=i,
                accepting=frozenset(x for x in universe if rng.random() < 0.3),
                rejecting=frozenset(x for x in universe if rng.random() < 0.3),
            )
            for i in range(rng.randint(0, 3))
        )
        acc = RabinPairSet("state", pairs)
        inf = frozenset(x for x in universe if rng.random() < 0.4)
        before = rabin_loop_accepts(acc, inf)
        if pairs:
            k = rng.randrange(len(pairs))
            extra = rng.choice(universe)
            grown = list(pairs)
            grown[k] = RabinPair(pairs[k].index, pairs[k].accepting | {extra}, pairs[k].rejecting)
            after = rabin_loop_accepts(RabinPairSet("state", tuple(grown)), inf)
            assert after or not before  # growing A never flips accept -> reject
            shrunk = list(pairs)
            shrunk[k] = RabinPair(pairs[k].index, pairs[k].accepting, frozenset())
            eased = rabin_loop_accepts(RabinPairSet("state", tuple(shrunk)), inf)
            assert eased or not before  # clearing R never flips accept -> reject


def test_lasso_word_requires_period():
    with pytest.raises(InputError):
        LassoWord((), ())
    w = LassoWord(("a",), ("b",))
    assert "b" in str(w)


def test_duplicate_pair_indices_rejected():
    with pytest.raises(InputError):
        RabinPairSet(
            "state",
            (
                RabinPair(index=0, accepting=frozenset(), rejecting=frozenset()),
                RabinPair(index=0, accepting=frozenset(), rejecting=frozenset()),
            ),
        )


def test_drtw_totality_enforced():
    acc = RabinPairSet("transition", ())
    with pytest.raises(InputError):
        DRTW(
            payloads=("only",),
            alphabet=("a",),
            initial=0,
            transitions={},
            acceptance=acc,
        )
    ok = DRTW(
        payloads=("only",),
        alphabet=("a",),
        initial=0,
        transitions={(0, "a"): (0, EMPTY_ANNOTATION)},
        acceptance=acc,
    )
    assert ok.transitions[(0, "a")][0] == 0
