import random

import pytest

from histree.automata import (
    DRTW,
    DRW,
    EMPTY_ANNOTATION,
    LassoWord,
    NBW,
    RabinPairSet,
    bits,
    image,
    rabin_accepts,
    validate_nbw,
)
from histree.errors import InputError
from histree.formats import emit_rabin, parse_rabin
from rabin_edges import signature_map


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


def test_image_is_the_union_of_the_rows_of_the_set_bits():
    """Random masks of up to 70 bits, rows of up to 70 bits (so past a
    machine word), the empty mask and the all-ones mask."""
    rng = random.Random(19)
    for _ in range(500):
        width = rng.randint(1, 70)
        rows = [rng.getrandbits(rng.randint(0, 70)) for _ in range(width)]
        for mask in (rng.getrandbits(width), 0, (1 << width) - 1, 1 << (width - 1)):
            expected = 0
            for i in bits(mask):
                expected |= rows[i]
            assert image(mask, rows) == expected


def _set_rule(pairs, inf):
    """The Rabin rule on explicit sets, the reference for rabin_accepts:
    some pair's accepting set meets `inf` and its rejecting set misses it."""
    return any(accepting & inf and not rejecting & inf for accepting, rejecting in pairs)


def _signatures(pairs):
    """Each target's signature: bit 2i for pair i's rejecting set, bit
    2i+1 for its accepting set."""
    signatures = {}
    for i, (accepting, rejecting) in enumerate(pairs):
        for bit, targets in ((1 << 2 * i, rejecting), (2 << 2 * i, accepting)):
            for target in targets:
                signatures[target] = signatures.get(target, 0) | bit
    return signatures


def _loop_signature(signatures, inf):
    out = 0
    for target in inf:
        out |= signatures.get(target, 0)
    return out


def test_rabin_accepts_examples():
    acc = RabinPairSet((0,), (0, 0b10, 0b01))
    signatures = dict(enumerate(acc.signatures))
    assert rabin_accepts(_loop_signature(signatures, {1}))
    assert not rabin_accepts(_loop_signature(signatures, {1, 2}))
    assert not rabin_accepts(0)
    # The second pair accepts where the first rejects.
    assert rabin_accepts(0b1001)
    assert not rabin_accepts(0b0111)


def test_rabin_accepts_equals_the_set_rule_exhaustively():
    """Every signature of 0 to 4 pairs, read as the loop that visits one
    target per set the signature names: target s is in acceptance set s,
    so pair i accepts {2i+1} and rejects {2i}."""
    for count in range(5):
        pairs = [(frozenset({2 * i + 1}), frozenset({2 * i})) for i in range(count)]
        for signature in range(1 << 2 * count):
            inf = frozenset(s for s in range(2 * count) if signature >> s & 1)
            assert rabin_accepts(signature) == _set_rule(pairs, inf), (count, signature)


def _one_state(cls, **fields):
    """A one-state, one-letter automaton whose one edge loops unmarked;
    `fields` override any of its fields."""
    given = dict(payloads=(None,), alphabet=("a",), initial=0, targets=((0,),), marks=((0,),),
                 annotations=(EMPTY_ANNOTATION,), acceptance=RabinPairSet((), (0,)))
    given.update(fields)
    return cls(**given)


def test_one_pair_set_serves_both_kinds():
    """A Rabin condition does not say where its marks sit; the automaton
    holding it does.  One pair set builds a one-state DRTW and a one-state
    DRW, which differ as classes; each is written with its own kind and
    read back as its own class."""
    acceptance = RabinPairSet((0,), (0b10,))
    drtw, drw = _one_state(DRTW, acceptance=acceptance), _one_state(DRW, acceptance=acceptance)
    assert drtw.acceptance is drw.acceptance and drtw != drw
    for d, kind in ((drtw, "trans-acc"), (drw, "state-acc")):
        text = emit_rabin(d)
        assert f"properties: deterministic {kind}\n" in text
        back = parse_rabin(text)
        assert type(back) is type(d)
        assert (back.targets, back.marks, back.acceptance) == (d.targets, d.marks, acceptance)


def test_signatures_name_only_the_pairs_sets():
    for signature in (0b100, -1, 1 << 64):
        with pytest.raises(InputError, match="out of range for 1 pairs"):
            RabinPairSet(("X",), (0, signature))
    assert RabinPairSet(("X",), (0, 0b11)).signatures == (0, 0b11)


def test_rabin_monotone_in_accepting_antitone_in_rejecting():
    rng = random.Random(11)
    universe = list(range(8))
    for _ in range(200):
        pairs = [
            (frozenset(x for x in universe if rng.random() < 0.3),
             frozenset(x for x in universe if rng.random() < 0.3))
            for _ in range(rng.randint(0, 3))
        ]
        inf = frozenset(x for x in universe if rng.random() < 0.4)
        before = rabin_accepts(_loop_signature(_signatures(pairs), inf))
        assert before == _set_rule(pairs, inf)
        if pairs:
            k = rng.randrange(len(pairs))
            extra = rng.choice(universe)
            grown = list(pairs)
            grown[k] = (pairs[k][0] | {extra}, pairs[k][1])
            after = rabin_accepts(_loop_signature(_signatures(grown), inf))
            assert after or not before  # growing A never flips accept -> reject
            shrunk = list(pairs)
            shrunk[k] = (pairs[k][0], frozenset())
            eased = rabin_accepts(_loop_signature(_signatures(shrunk), inf))
            assert eased or not before  # clearing R never flips accept -> reject


def test_lasso_word_requires_period():
    with pytest.raises(InputError):
        LassoWord((), ())
    w = LassoWord(("a",), ("b",))
    assert "b" in str(w)


def test_duplicate_pair_indices_rejected():
    with pytest.raises(InputError):
        RabinPairSet((0, 0), ())


def test_drtw_totality_enforced():
    with pytest.raises(InputError, match="0 target rows, expected 1"):
        _one_state(DRTW, targets=())
    ok = _one_state(DRTW)
    assert ok.targets[0][0] == 0


@pytest.mark.parametrize("cls, kind", [(DRTW, "transition"), (DRW, "state")])
@pytest.mark.parametrize("target", [5, -1])
def test_edge_targets_must_be_states(cls, kind, target):
    """An edge into no state is refused when the automaton is built, not
    met later as a KeyError or, on int rows, as a read of the last state."""
    assert cls.acceptance_kind == kind
    with pytest.raises(InputError, match=f"targets state {target}, out of range"):
        _one_state(cls, targets=((target,),))


def _rows_with(key, on_edges=True):
    """The rows of a one-state automaton over ("a",), grown to give
    `key`, an edge (state, symbol) or a state, a place: a row per letter,
    the key's symbol added, and an entry per state up to the key's."""
    state, sym = key if on_edges else (key, "a")
    letters = ("a",) if sym == "a" else ("a", sym)
    return tuple((0,) * (state + 1) for _ in letters)


@pytest.mark.parametrize("cls, kind, key, what", [
    (DRTW, "transition", (3, "b"), "an edge"),
    (DRTW, "transition", (0, "b"), "an edge"),  # a known state, a symbol outside the alphabet
    (DRW, "state", 5, "a state"),
])
def test_signatures_sit_on_edges_or_states(cls, kind, key, what):
    """A signature belongs to a mark number, and a mark sits in an edge's
    place (DRTW) or a state's (DRW) of the mark rows.  Mark rows that give
    a place to something that is not an edge or state of a one-state
    automaton are refused when it is built; before the rows, `emit_rabin`
    dropped such a signature and the oracle ignored it."""
    assert kind == cls.acceptance_kind and (what == "an edge") == (kind == "transition")
    with pytest.raises(InputError, match=r"mark rows, expected|entries for 1 states"):
        _one_state(cls, marks=_rows_with(key, kind == "transition"),
                   acceptance=RabinPairSet((0,), (0b10,)))
    own = (0, "a") if kind == "transition" else 0
    built = _one_state(cls, marks=_rows_with(own, kind == "transition"),
                       acceptance=RabinPairSet((0,), (0b10,)))
    assert signature_map(built) == {own: 0b10}


@pytest.mark.parametrize("cls, kind", [(DRTW, "transition"), (DRW, "state")])
@pytest.mark.parametrize("key", [(3, "b"), (0, "b"), (1, "a")])
def test_transition_keys_are_exactly_the_edges(cls, kind, key):
    """Target rows that give an edge outside states x alphabet a place, a
    row for a letter outside the alphabet or an entry for a state past
    the last, are refused: the rows hold exactly the edges."""
    assert cls.acceptance_kind == kind
    with pytest.raises(InputError, match=r"target rows, expected|entries for 1 states"):
        _one_state(cls, targets=_rows_with(key))


@pytest.mark.parametrize("cls", [DRTW, DRW])
@pytest.mark.parametrize("case, fields, message", [
    ("missing letter row", dict(alphabet=("a", "b")), "1 target rows, expected 2"),
    ("short target row", dict(payloads=(None, None), targets=((0,),), marks=((0, 0),)),
     "target row 'a' has 1 entries for 2 states"),
    ("mark past annotations", dict(marks=((1,),)), "mark number 1 in row .*, out of range for 1 marks"),
    ("negative mark", dict(marks=((-1,),)), "mark number -1 in row .*, out of range for 1 marks"),
    ("annotations without signatures", dict(annotations=(EMPTY_ANNOTATION,) * 2),
     "1 acceptance signatures for 2 marks"),
    ("short mark row", dict(payloads=(None, None), targets=((0, 1),), marks=((0,),)),
     "mark row .* has 1 entries for 2 states"),
])
def test_rows_are_checked_on_construction(cls, case, fields, message):
    with pytest.raises(InputError, match=message):
        _one_state(cls, **fields)


def test_drw_takes_one_mark_row_whatever_the_letters():
    """A DRW marks states: one row of one mark per state, however many
    letters it reads.  A DRTW marks edges: one row per letter."""
    two_letters = dict(alphabet=("a", "b"), targets=((0,), (0,)))
    _one_state(DRW, **two_letters)
    with pytest.raises(InputError, match="2 mark rows, expected 1"):
        _one_state(DRW, marks=((0,), (0,)), **two_letters)
    with pytest.raises(InputError, match="mark row 'incoming' has 2 entries for 1 states"):
        _one_state(DRW, marks=((0, 0),), **two_letters)
    _one_state(DRTW, marks=((0,), (0,)), **two_letters)
    with pytest.raises(InputError, match="1 mark rows, expected 2"):
        _one_state(DRTW, **two_letters)
