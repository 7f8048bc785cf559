import gc
import random
import weakref
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

import pytest

import histree.oracle
from histree.automata import DRTW, EMPTY_ANNOTATION, LassoWord, NBW, RabinPairSet
from histree.cli import main
from histree.determinize import Determinizer, build_drtw, build_drw
from histree.errors import CapacityError, InputError
from histree.fixtures import e1, finitely_many_b, fixtures, no_finals, spawn_die_respawn
from histree.formats import emit_nbw_hoa, parse_nbw
from histree.oracle import (
    Counterexample,
    EquivReport,
    TransitionProfile,
    bounded_equiv,
    check_identifiers_injective,
    det_lasso_member,
    enumerate_history_trees,
    LASSO_CAP,
    LASSO_LENGTH_CAP,
    lasso_count,
    lassos_upto,
    nbw_lasso_member,
    symbol_profile,
    verify_identifier_bounds,
    word_profile,
)
from rabin_edges import edge_map, signature_map


def _random_nbw(rng, max_states=4):
    states = tuple(f"s{i}" for i in range(rng.randint(1, max_states)))
    alphabet = ("a", "b")
    transitions = [
        (p, c, q) for p in states for c in alphabet for q in states if rng.random() < 0.45
    ]
    initial = tuple(q for q in states if rng.random() < 0.5) or states[:1]
    finals = tuple(q for q in states if rng.random() < 0.4)
    return NBW.make(states, alphabet, transitions, initial, finals)


# -- profiles -----------------------------------------------------------------


def test_profile_composition_matches_word_concatenation():
    rng = random.Random(3)
    for _ in range(60):
        a = _random_nbw(rng)
        w1 = tuple(rng.choice(a.alphabet) for _ in range(rng.randint(0, 4)))
        w2 = tuple(rng.choice(a.alphabet) for _ in range(rng.randint(0, 4)))
        assert word_profile(a, w1).compose(word_profile(a, w2)) == word_profile(a, w1 + w2)


def test_profile_composition_associative():
    rng = random.Random(5)
    for _ in range(40):
        a = _random_nbw(rng)
        p1, p2, p3 = (symbol_profile(a, rng.choice(a.alphabet)) for _ in range(3))
        assert p1.compose(p2).compose(p3) == p1.compose(p2.compose(p3))


def test_profile_dominance_invariant():
    rng = random.Random(9)
    for _ in range(40):
        a = _random_nbw(rng)
        word = tuple(rng.choice(a.alphabet) for _ in range(rng.randint(0, 4)))
        profile = word_profile(a, word)
        for p in range(profile.size):
            assert profile.final[p] & ~profile.reach[p] == 0
            for q in range(profile.size):
                assert profile.entry(p, q) in (0, 1, 2)


def test_identity_profile_ignores_final_start():
    ident = TransitionProfile.identity(3)
    assert ident.entry(1, 1) == 1
    assert ident.entry(1, 2) == 0


# -- membership ----------------------------------------------------------------


def test_nbw_member_e1():
    assert nbw_lasso_member(e1(), LassoWord((), ("a",)))


def test_nbw_member_no_finals_rejects_everything():
    a = no_finals()
    for w in lassos_upto(a.alphabet, 3, 3):
        assert not nbw_lasso_member(a, w)


def test_nbw_member_finitely_many_b():
    a = finitely_many_b()
    assert not nbw_lasso_member(a, LassoWord((), ("b",)))
    assert nbw_lasso_member(a, LassoWord(("b",), ("a",)))


def test_nbw_member_alphabet_mismatch():
    with pytest.raises(InputError):
        nbw_lasso_member(e1(), LassoWord((), ("z",)))


def _naive_lasso_member(a, w):
    """Independent oracle: search the product of automaton states and
    lasso positions for a reachable cycle entering a final state."""
    word = list(w.prefix) + list(w.period)
    loop_start = len(w.prefix)
    length = len(word)

    def succ(node):
        pos, q = node
        nxt = pos + 1 if pos + 1 < length else loop_start
        for (src, sym, dst) in a.transitions:
            if src == q and sym == word[pos]:
                yield (nxt, dst), dst in a.finals

    seen = set()
    stack = [(0, q) for q in a.initial]
    reachable = set(stack)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        for nxt, _ in succ(node):
            reachable.add(nxt)
            stack.append(nxt)

    def can_reach(src, dst):
        frontier = [src]
        visited = set()
        while frontier:
            node = frontier.pop()
            if node == dst:
                return True
            if node in visited:
                continue
            visited.add(node)
            frontier.extend(nxt for nxt, _ in succ(node))
        return False

    for node in reachable:
        for nxt, final in succ(node):
            if final and nxt in reachable and can_reach(nxt, node):
                return True
    return False


def test_profile_membership_agrees_with_naive_graph_search(corpus_sample):
    for a in corpus_sample[:25]:
        for w in lassos_upto(a.alphabet, 3, 3):
            assert nbw_lasso_member(a, w) == _naive_lasso_member(a, w), (a, w)


def test_profile_membership_agrees_on_larger_sparse_automata():
    # Sparse transitions make long approach paths to the final cycle, the
    # regime where a too-small closure power cap would show up.
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(6, 8)
        states = tuple(f"s{i}" for i in range(n))
        transitions = [
            (p, c, q)
            for p in states
            for c in "ab"
            for q in states
            if rng.random() < 0.12
        ]
        transitions += [(states[i], "a", states[i + 1]) for i in range(n - 1)]
        a = NBW.make(states, ("a", "b"), transitions, states[:1], (states[-1],))
        for w in lassos_upto(a.alphabet, 2, 3):
            assert nbw_lasso_member(a, w) == _naive_lasso_member(a, w), (a, w)


def test_det_member_examples():
    a = e1()
    d = build_drtw(a)
    assert det_lasso_member(d, LassoWord((), ("a",)))
    drw = build_drw(a)
    assert det_lasso_member(drw, LassoWord((), ("a",)))


def test_det_member_sink_loop_rejects():
    a = NBW.make(("p",), ("a", "b"), [("p", "a", "p")], ("p",), ("p",))
    d = build_drtw(a)
    assert not det_lasso_member(d, LassoWord((), ("b",)))


def test_det_member_alphabet_mismatch():
    d = build_drtw(e1())
    with pytest.raises(InputError):
        det_lasso_member(d, LassoWord((), ("b",)))


# -- bounded equivalence ---------------------------------------------------------


def test_bounded_equiv_e1_clean():
    a = e1()
    report = bounded_equiv(a, build_drtw(a), 3, 3)
    assert report.equivalent
    assert report.tested == sum(1 for _ in lassos_upto(a.alphabet, 3, 3))


def _signatures_kept(acc, indices, keep):
    """acc with indices `indices`, each mark's signature mapped by `keep`."""
    return RabinPairSet(indices, tuple(keep(sig) for sig in acc.signatures))


def _gutted(acc):
    """acc with every pair's Inf bit cleared: no accepting set left."""
    fin_bits = sum(1 << 2 * i for i in range(len(acc.indices)))
    return _signatures_kept(acc, acc.indices, lambda sig: sig & fin_bits)


def _dropped(acc, i):
    """acc without pair i: its two bits go, and later pairs move down."""
    low = (1 << 2 * i) - 1
    return _signatures_kept(acc, acc.indices[:i] + acc.indices[i + 1 :],
                            lambda sig: sig & low | sig >> 2 * i + 2 << 2 * i)


def test_bounded_equiv_detects_mutation():
    a = e1()
    d = build_drtw(a)
    gutted = _gutted(d.acceptance)
    assert gutted.indices == d.acceptance.indices
    broken = type(d)(
        payloads=d.payloads,
        alphabet=d.alphabet,
        initial=d.initial,
        targets=d.targets,
        marks=d.marks,
        annotations=d.annotations,
        acceptance=gutted,
    )
    report = bounded_equiv(a, broken, 3, 3)
    assert report.counterexample == Counterexample((), ("a",), True, False)


def test_bounded_equiv_bound_semantics():
    a = finitely_many_b()
    report = bounded_equiv(a, build_drw(a), 0, 1)
    assert report.tested == len(a.alphabet)


def test_bounded_equiv_requires_shared_alphabet():
    with pytest.raises(InputError):
        bounded_equiv(e1(), build_drtw(finitely_many_b()), 1, 1)


INVALID_NBWS = {
    "undeclared target": NBW.make(("p",), ("a",), [("p", "a", "zz")], ("p",), ()),
    "undeclared initial state": NBW.make(("p",), ("a",), [("p", "a", "p")], ("zz",), ()),
    "undeclared symbol": NBW.make(("p",), ("a",), [("p", "b", "p")], ("p",), ("p",)),
    "duplicated state list": NBW.make(("p", "p"), ("a",), [("p", "a", "p")], ("p",), ("p",)),
}


@pytest.mark.parametrize("case", sorted(INVALID_NBWS))
def test_oracle_rejects_what_the_determinizer_rejects(case):
    a = INVALID_NBWS[case]
    d = build_drtw(e1())
    calls = (
        lambda: Determinizer(a),
        lambda: nbw_lasso_member(a, LassoWord((), ("a",))),
        lambda: word_profile(a, ("a",)),
        lambda: bounded_equiv(a, d, 1, 1),
    )
    messages = set()
    for call in calls:
        with pytest.raises(InputError, match="^invalid automaton: ") as caught:
            call()
        messages.add(str(caught.value))
    assert len(messages) == 1


def test_automaton_is_validated_once_per_instance(monkeypatch):
    import histree.automata

    calls = []
    real = histree.automata.validate_nbw
    monkeypatch.setattr(histree.automata, "validate_nbw", lambda a: calls.append(a) or real(a))
    a = finitely_many_b()
    report = bounded_equiv(a, Determinizer(a).build_drtw(), 2, 2)
    assert report.equivalent and report.tested > 1
    assert calls == [a]


def _nbw_verdicts(a, max_u, max_v):
    return [(w, nbw_lasso_member(a, w)) for w in lassos_upto(a.alphabet, max_u, max_v)]


def _reference_scan(verdicts, d):
    """The per-lasso scan: every lasso in lassos_upto order, stopping at the
    first disagreement; returns (tested, counterexample)."""
    for tested, (w, expected) in enumerate(verdicts, start=1):
        got = det_lasso_member(d, w)
        if got != expected:
            return tested, Counterexample(w.prefix, w.period, expected, got)
    return len(verdicts), None


def _acceptance_mutants(d):
    """d with every accepting set gutted, then d with each single pair dropped."""
    acc = d.acceptance
    yield replace(d, acceptance=_gutted(acc))
    for i in range(len(acc.indices)):
        yield replace(d, acceptance=_dropped(acc, i))


def _one_state(alphabet, accepts_all):
    """A one-state DRTW: every prefix reaches the same state, whatever
    NBW states it reaches."""
    return DRTW(
        payloads=(None,),
        alphabet=alphabet,
        initial=0,
        targets=((0,),) * len(alphabet),
        marks=((0,),) * len(alphabet),
        annotations=(EMPTY_ANNOTATION,),
        acceptance=RabinPairSet((0,), (0b10,)) if accepts_all else RabinPairSet((), (0,)),
    )


def _differential_targets(a):
    engine = Determinizer(a)
    builds = [engine.build_drtw(), engine.build_drtw("baseline"), engine.build_drw()]
    strict = build_drtw(a, "canonical", strict_marks=True)
    mutants = [m for d in builds for m in _acceptance_mutants(d)]
    return builds + [strict] + mutants + [_one_state(a.alphabet, b) for b in (True, False)]


def _named_inputs(corpus_sample):
    """The fixtures, the corpus sample and the pair_index inputs, by name."""
    fixture_dir = Path(__file__).parent / "fixtures"
    named = list(fixtures().items()) + [(f"random:{i}", a) for i, a in enumerate(corpus_sample)]
    for n in (4, 5, 6):
        text = (fixture_dir / f"pair_index_n{n}.hoa").read_text(encoding="utf-8")
        named.append((f"pair_index_n{n}", parse_nbw(text)))
    return named


def _dict_walk_member(d, edges, signatures, w):
    """Independent of the oracle's row walk: walk d's `edge_map` and
    `signature_map`, reading each step's signature where the automaton
    puts it, on the edge of a DRTW and on the entered state of a DRW.
    After as many periods as d has states the period-boundary state lies
    on its cycle; the loop is the laps from there back to that state, and
    some pair must have its accepting bit and not its rejecting bit among
    their signatures."""
    on_edges = d.acceptance_kind == "transition"

    def lap(state):
        signature = 0
        for sym in w.period:
            nxt = edges[(state, sym)][0]
            signature |= signatures.get((state, sym) if on_edges else nxt, 0)
            state = nxt
        return state, signature

    state = d.initial
    for sym in w.prefix:
        state = edges[(state, sym)][0]
    for _ in range(len(d.payloads)):
        state = lap(state)[0]
    entry, loop = state, 0
    while True:
        state, signature = lap(state)
        loop |= signature
        if state == entry:
            break
    return any(loop >> 2 * i + 1 & 1 and not loop >> 2 * i & 1 for i in range(len(d.acceptance.indices)))


def test_det_member_matches_an_independent_dict_walk(corpus_sample):
    checked = accepted = 0
    for name, a in _named_inputs(corpus_sample):
        words = list(lassos_upto(a.alphabet, 3, 3))
        for d in _differential_targets(a):
            edges, signatures = edge_map(d), signature_map(d)
            for w in words:
                got = det_lasso_member(d, w)
                assert got == _dict_walk_member(d, edges, signatures, w), (name, w)
                checked += 1
                accepted += got
    assert 0 < accepted < checked


def test_bounded_equiv_matches_the_per_lasso_reference_scan(corpus_sample):
    named = _named_inputs(corpus_sample)
    one_letter = [(name, a) for name, a in named if len(a.alphabet) == 1]
    assert {name for name, _ in one_letter} >= {"e1", "single_final_loop"}
    runs = [(3, 3, named), (0, 1, named), (30, 4, one_letter)]
    late = []  # counterexamples after a non-empty prefix, with reused verdicts before them
    for max_u, max_v, inputs in runs:
        for name, a in inputs:
            verdicts = _nbw_verdicts(a, max_u, max_v)
            for d in _differential_targets(a):
                report = bounded_equiv(a, d, max_u, max_v)
                expected = _reference_scan(verdicts, d)
                assert (report.tested, report.counterexample) == expected, (name, max_u, max_v)
                assert report.evaluated <= report.tested
                c = report.counterexample
                if c is not None and c.prefix and report.evaluated < report.tested:
                    late.append((name, c))
    # Strict marks disagree only after the empty prefix.  The mutants must
    # also reach disagreements after non-empty prefixes that the walk finds
    # only once it has skipped prefixes whose pairs it had seen.
    assert len(late) >= 5, late


def test_bounded_equiv_reuses_verdicts_of_repeated_prefix_pairs(corpus_sample):
    a = corpus_sample[0]
    report = bounded_equiv(a, build_drtw(a), 4, 4)
    assert report.equivalent
    assert report.tested == lasso_count(len(a.alphabet), 4, 4)
    assert 0 < report.evaluated < report.tested


def test_bounded_equiv_keeps_no_reference_to_its_automata():
    a = spawn_die_respawn()
    d = build_drtw(a)
    assert bounded_equiv(a, d, 3, 3).equivalent
    refs = (weakref.ref(a), weakref.ref(d))
    del a, d
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def _count_mask_computations(monkeypatch):
    calls = []
    real = histree.oracle._period_masks
    monkeypatch.setattr(histree.oracle, "_period_masks",
                        lambda a, max_v: calls.append((a, max_v)) or real(a, max_v))
    return calls


def test_verify_computes_the_period_masks_once_for_its_three_targets(tmp_path, monkeypatch, capsys):
    calls = _count_mask_computations(monkeypatch)
    path = tmp_path / "sdr.hoa"
    path.write_text(emit_nbw_hoa(spawn_die_respawn()), encoding="utf-8")
    assert main(["verify", "--in", str(path)]) == 0
    assert capsys.readouterr().out.count("counterexample=none") == 3
    assert [max_v for _, max_v in calls] == [4]


def test_equal_automata_parsed_apart_compute_their_own_masks(monkeypatch):
    calls = _count_mask_computations(monkeypatch)
    text = emit_nbw_hoa(spawn_die_respawn())
    first, second = parse_nbw(text), parse_nbw(text)
    assert first == second and first is not second
    d = build_drtw(first)
    for a in (first, second, first):
        assert bounded_equiv(a, d, 2, 3).equivalent
    assert len(calls) == 2 and calls[0][0] is first and calls[1][0] is second


def test_kept_masks_serve_shorter_and_longer_bounds(monkeypatch):
    a = spawn_die_respawn()
    fresh = histree.oracle._period_masks(spawn_die_respawn(), 4)
    count = {v: lasso_count(len(a.alphabet), 0, v) for v in (2, 4)}
    calls = _count_mask_computations(monkeypatch)
    assert histree.oracle._period_acceptance(a, 2) == fresh[:count[2]]
    assert histree.oracle._period_acceptance(a, 4) == fresh
    assert len(fresh) == count[4]
    assert histree.oracle._period_acceptance(a, 2) == fresh[:count[2]]
    assert [max_v for _, max_v in calls] == [2, 4]


def test_equiv_report_text_round():
    report = EquivReport(10, None, 0.5)
    assert "counterexample=none" in report.to_text()
    counted = EquivReport(10, None, 0.5, evaluated=4)
    assert counted == report and counted.to_text() == report.to_text()
    report = EquivReport(3, Counterexample(("a",), ("b",), True, False), 0.1)
    assert "nbw:1" in report.to_text()


# -- tree census -----------------------------------------------------------------


def _brute_hist(n):
    """Materializing enumerator: every labeled order-closed tree over n
    states, built from explicit label sets; independent of the library's
    combinatorial counting."""

    @lru_cache(maxsize=None)
    def shapes(k):
        if k == 1:
            return ((),)
        out = []

        def splits(remaining, parts):
            if parts == 1:
                yield (remaining,)
                return
            for first in range(1, remaining - parts + 2):
                for rest in splits(remaining - first, parts - 1):
                    yield (first,) + rest

        for parts in range(1, k):
            for sizes in splits(k - 1, parts):
                for kids in product(*(shapes(s) for s in sizes)):
                    out.append(tuple(kids))
        return tuple(out)

    states = tuple(range(n))
    nonempty = [frozenset(c) for k in range(1, n + 1) for c in combinations(states, k)]

    def labelings(shape, label):
        if not shape:
            return 1

        def place(i, avail):
            if i == len(shape):
                return 1 if avail else 0
            total = 0
            for k in range(1, len(avail) + 1):
                for sub in combinations(sorted(avail), k):
                    sub = frozenset(sub)
                    below = labelings(shape[i], sub)
                    if below:
                        total += below * place(i + 1, avail - sub)
            return total

        return place(0, label)

    return sum(
        labelings(shape, root)
        for k in range(1, n + 1)
        for shape in shapes(k)
        for root in nonempty
    )


def test_hist_small_values_frozen():
    assert enumerate_history_trees(1) == 1
    assert enumerate_history_trees(2) == 5


def test_hist_matches_materializing_enumerator():
    for n in range(1, 5):
        assert enumerate_history_trees(n) == _brute_hist(n)


def test_hist_equals_histf_up_to_5():
    """histf(n), the census with identifiers attached, equals hist(n)
    because identifiers are injective within every tree."""
    for n in range(1, 6):
        check_identifiers_injective(n)


def test_identifier_injectivity_check_catches_a_collision(monkeypatch):
    from histree.errors import HistreeError
    from histree.trees import Identifier, IdentifierTable

    monkeypatch.setattr(IdentifierTable, "lookup", lambda self, name: Identifier(0, 1))
    check_identifiers_injective(1)  # a one-node tree cannot collide
    with pytest.raises(HistreeError, match="collision"):
        check_identifiers_injective(2)


def test_hist_numeric_bound():
    for n in range(2, 7):
        assert enumerate_history_trees(n) <= (1.65 * n) ** n


def test_census_cap():
    with pytest.raises(CapacityError):
        enumerate_history_trees(7)


def test_reachable_states_bounded_by_hist(corpus_sample):
    for a in corpus_sample[:15]:
        d = build_drtw(a)
        non_sink = [p for p in d.payloads if not p.is_sink]
        assert len(non_sink) <= enumerate_history_trees(len(a.states))


# -- identifier bounds ------------------------------------------------------------


def test_identifier_bounds_n7():
    report = verify_identifier_bounds(7)
    assert report.flags_used <= 4
    assert report.identifier_budget == 8
    assert "flags_at_height_3=" in report.to_text()


def test_identifier_bounds_n2():
    report = verify_identifier_bounds(2)
    assert report.identifiers_used == 2
    assert report.flags_by_height == {0: 1, 1: 1}


def test_identifier_bounds_all_up_to_12():
    for n in range(1, 13):
        verify_identifier_bounds(n)
    with pytest.raises(CapacityError):
        verify_identifier_bounds(13)


def test_lasso_enumeration_is_lexicographic():
    alphabet = tuple("ab")
    lassos = list(lassos_upto(alphabet, 2, 2))
    assert lassos[0] == LassoWord((), ("a",))

    def key(w):
        return (len(w.prefix), w.prefix, len(w.period), w.period)

    assert lassos == sorted(lassos, key=key)
    assert len(lassos) == len(set(lassos))


def test_lasso_count_matches_enumeration():
    for letters in range(0, 4):
        alphabet = tuple("abc"[:letters])
        for max_u in range(0, 4):
            for max_v in range(1, 4):
                assert lasso_count(letters, max_u, max_v) == sum(
                    1 for _ in lassos_upto(alphabet, max_u, max_v)
                )
    assert lasso_count(3, 4, 4) == 14_520
    assert lasso_count(2, 10**9, 4) >= 2**64


def test_bounded_equiv_refuses_bounds_past_the_cap():
    a = spawn_die_respawn()
    d = build_drtw(a)
    assert lasso_count(len(a.alphabet), 30, 4) > LASSO_CAP
    with pytest.raises(CapacityError):
        bounded_equiv(a, d, 30, 4)
    # A one-letter alphabet keeps the same bounds small.
    assert bounded_equiv(e1(), build_drtw(e1()), 30, 4).tested == 31 * 4


def test_bounded_equiv_refuses_lassos_past_the_length_cap():
    """On one letter a million lassos are short to count but long to walk:
    periods of up to a million letters.  The length cap refuses them."""
    a = e1()
    d = build_drtw(a)
    assert lasso_count(len(a.alphabet), 0, 10**6) <= LASSO_CAP
    for max_u, max_v in ((0, 10**6), (LASSO_LENGTH_CAP + 1, 1), (0, LASSO_LENGTH_CAP + 1)):
        with pytest.raises(CapacityError, match="letters"):
            bounded_equiv(a, d, max_u, max_v)
    at_cap = bounded_equiv(a, d, LASSO_LENGTH_CAP, LASSO_LENGTH_CAP)
    assert at_cap.tested == (LASSO_LENGTH_CAP + 1) * LASSO_LENGTH_CAP
    assert at_cap.equivalent
