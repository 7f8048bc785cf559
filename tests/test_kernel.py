"""The packed successor kernel against the five-phase reference step.

`reference_step` is the successor step written one letter at a time on
dicts, phase by phase: the specification, and the only place the
intermediate phases are decoded.  `Determinizer.successor_trace` computes
a tree's phases for every letter at once on packed ints and must give a
`StepTrace` (letter, result tree and marks) equal to the reference's on
every reachable (tree, letter), with the engine's skeleton holding the
reference's spawned names in its order."""

from pathlib import Path
from typing import Dict

import pytest

from histree.automata import NBW, TransitionAnnotation, image
from histree.determinize import Determinizer, HistoryTree, StepTrace
from histree.errors import InputError
from histree.formats import parse_nbw
from histree.trees import NodeName, compress

FIXTURE_DIR = Path(__file__).parent / "fixtures"

FIELDS = ("symbol", "result", "marks")


def reference_step(nbw: NBW, tree: HistoryTree, symbol: str, strict_marks: bool) -> Dict[str, object]:
    """Every field of one successor step, computed phase by phase."""
    rows = nbw.rows[symbol]

    # Spawn: every node advances its label by one symbol and gains a fresh
    # youngest child, one past its last child, holding the final states
    # among its successors.
    degrees: Dict[NodeName, int] = {}
    for name, _ in tree.entries:
        if name:
            degrees[name[:-1]] = max(degrees.get(name[:-1], 0), name[-1])
    advanced = [(name, image(label, rows)) for name, label in tree.entries]
    fresh = [(name + (degrees.get(name, 0) + 1,), label & nbw.final_mask) for name, label in advanced]
    spawned = dict(sorted(advanced + fresh))

    # Dedup: a state claimed by an older sibling (pre-dedup label) leaves
    # every younger sibling's whole subtree.
    deduped: Dict[NodeName, int] = {}
    poison: Dict[NodeName, int] = {}
    for name, label in spawned.items():
        inherited = 0
        if name:
            inherited = poison[name[:-1]]
            poison[name[:-1]] = inherited | label
        poison[name] = inherited
        deduped[name] = label & ~inherited

    # Drop emptied nodes.
    nonempty = {name: label for name, label in deduped.items() if label}

    # Collapse: a node whose children's labels add up to its own loses its
    # subtree and accepts; a node survives when its parent survives
    # uncovered.
    kid_union: Dict[NodeName, int] = {}
    for name, label in nonempty.items():
        if name:
            kid_union[name[:-1]] = kid_union.get(name[:-1], 0) | label
    covered = {name for name, union in kid_union.items() if union == nonempty[name]}
    pruned: Dict[NodeName, int] = {}
    for name, label in nonempty.items():
        if not name or (name[:-1] in pruned and name[:-1] not in covered):
            pruned[name] = label
    accepting = frozenset(covered.intersection(pruned))

    # Compress sibling gaps; the renamed nodes are the unstable ones.
    renaming = compress(pruned)
    unstable = frozenset(name for name, new in renaming.items() if name != new)
    stable = frozenset(pruned).difference(unstable)
    result = HistoryTree(tuple(sorted((renaming[name], label) for name, label in pruned.items())), nbw.states)
    minus = unstable - accepting if strict_marks else unstable
    return dict(
        symbol=symbol,
        spawned=spawned,
        deduped=deduped,
        nonempty=nonempty,
        pruned=pruned,
        accepting=accepting,
        unstable=unstable,
        renaming=renaming,
        result=result,
        marks=TransitionAnnotation(accepting & stable, minus, stable),
    )


def wide_nbw() -> NBW:
    """Ten states over six letters: 11-bit lanes, 66 bits per packed label."""
    states = tuple(f"s{i}" for i in range(10))
    letters = "abcdef"
    transitions = []
    for i in range(10):
        for k, symbol in enumerate(letters):
            transitions.append((states[i], symbol, states[(i * (k + 1) + k) % 10]))
            if (i + k) % 4 == 0:
                transitions.append((states[i], symbol, states[(i + k + 1) % 10]))
    return NBW.make(states, tuple(letters), transitions, states[:1], states[::3])


def one_state_nbw() -> NBW:
    return NBW.make(("p",), ("a", "b"), [("p", "a", "p"), ("p", "b", "p")], ("p",), ("p",))


def _differential_inputs(all_fixtures, corpus_sample):
    named = [(f"fixture:{name}", a) for name, a in all_fixtures.items()]
    named += [(f"random:{i}", a) for i, a in enumerate(corpus_sample)]
    for name in ("pair_index_n4", "pair_index_n5", "pair_index_n6", "michel4"):
        named.append((name, parse_nbw((FIXTURE_DIR / f"{name}.hoa").read_text(encoding="utf-8"))))
    named += [("wide", wide_nbw()), ("one_state", one_state_nbw())]
    return named


def _assert_matches(trace: StepTrace, expected: Dict[str, object], where) -> None:
    for f in FIELDS:
        assert getattr(trace, f) == expected[f], (where, f)


@pytest.mark.parametrize("strict", [False, True])
def test_kernel_matches_the_reference_step(strict, all_fixtures, corpus_sample):
    """Every reachable (tree, letter), and the sink on every letter.  The
    reference's results drive the breadth-first walk, so a faulty kernel
    fails at its first wrong step instead of exploring a wrong graph."""
    for name, a in _differential_inputs(all_fixtures, corpus_sample):
        engine = Determinizer(a, "baseline", strict_marks=strict)
        trees = [engine.initial_tree()]
        seen = set(trees)
        for tree in trees:
            for symbol in a.alphabet:
                expected = reference_step(a, tree, symbol, strict)
                _assert_matches(engine.successor_trace(tree, symbol), expected, (name, tree, symbol))
                assert engine._last_phases.skeleton.names == list(expected["spawned"]), (name, tree, symbol)
                if expected["result"] not in seen:
                    seen.add(expected["result"])
                    trees.append(expected["result"])
        assert tuple(trees) == engine.build_drtw().payloads, name
        sink = HistoryTree((), a.states)
        for symbol in a.alphabet:
            expected = reference_step(a, sink, symbol, strict)
            _assert_matches(engine.successor_trace(sink, symbol), expected, name)
            assert engine._last_phases.skeleton.names == list(expected["spawned"]), name


def test_differential_inputs_cover_wide_lanes_and_one_state():
    wide = wide_nbw()
    assert (len(wide.states) + 1) * len(wide.alphabet) > 64
    assert len(Determinizer(wide).build_drtw().payloads) > 100
    assert len(one_state_nbw().states) == 1


def test_one_entry_cache_interleaved_and_equal_trees(corpus_sample):
    """Interleaved steps (A on a, B on a, A on b) and an equal tree held in
    a distinct object give what a fresh engine gives."""
    for a in corpus_sample[:20]:
        if len(a.alphabet) < 2:
            continue
        first, second = a.alphabet[:2]
        engine = Determinizer(a)
        trees = engine.build_drtw().payloads
        for tree_a, tree_b in zip(trees, trees[1:] + trees[:1]):
            for tree, symbol in ((tree_a, first), (tree_b, first), (tree_a, second), (tree_b, second)):
                assert engine.successor_trace(tree, symbol) == Determinizer(a).successor_trace(tree, symbol)
            twin = HistoryTree(tuple(tree_a.entries), a.states)
            assert twin == tree_a and twin is not tree_a
            for symbol in a.alphabet:
                trace = engine.successor_trace(twin, symbol)
                assert trace == Determinizer(a).successor_trace(tree_a, symbol)
                expected = reference_step(a, tree_a, symbol, False)
                _assert_matches(trace, expected, (tree_a, symbol))
                assert engine._last_phases.skeleton.names == list(expected["spawned"])


def test_unknown_symbol_raises_after_a_cached_step(e1_nbw):
    engine = Determinizer(e1_nbw)
    tree = engine.initial_tree()
    engine.successor_trace(tree, "a")
    with pytest.raises(InputError):
        engine.successor_trace(tree, "z")
    assert engine.successor_trace(tree, "a") == Determinizer(e1_nbw).successor_trace(tree, "a")


def test_trace_equality_needs_every_field(e1_nbw):
    engine = Determinizer(e1_nbw)
    t0 = engine.initial_tree()
    t1 = engine.successor_trace(t0, "a").result
    assert engine.successor_trace(t0, "a") != engine.successor_trace(t1, "a")
    assert engine.successor_trace(t1, "a") == Determinizer(e1_nbw).successor_trace(t1, "a")
    assert engine.successor_trace(t1, "a") != "not a trace"


def test_shared_skeletons_leak_no_labels(all_fixtures, corpus_sample):
    """Trees of one shape share a skeleton but not their labels: stepping
    two trees of one shape with different labels, then a tree of another
    shape, then the first tree again, each on every letter, gives the
    reference step every time."""
    checked = 0
    for name, a in _differential_inputs(all_fixtures, corpus_sample):
        by_shape = {}
        for t in Determinizer(a).build_drtw().payloads:
            by_shape.setdefault(tuple(n for n, _ in t.entries), []).append(t)
        engine = Determinizer(a)
        for shape, trees in by_shape.items():
            others = [ts[0] for other, ts in by_shape.items() if other != shape]
            if len(trees) < 2 or not others:
                continue
            first, second, other = trees[0], trees[1], others[0]
            for t in (first, second, other, first):
                for symbol in a.alphabet:
                    trace = engine.successor_trace(t, symbol)
                    _assert_matches(trace, reference_step(a, t, symbol, False), (name, t, symbol))
            shared = []
            for t in (first, second, other):
                engine.successor_trace(t, a.alphabet[0])
                shared.append(engine._last_phases.skeleton)
            assert shared[0] is shared[1] and shared[0] is not shared[2], name
            checked += 1
    assert checked >= 50


def test_step_trace_fields_are_read_only(e1_nbw):
    trace = Determinizer(e1_nbw).successor_trace(Determinizer(e1_nbw).initial_tree(), "a")
    for f in FIELDS:
        with pytest.raises(AttributeError):
            setattr(trace, f, None)
    with pytest.raises(AttributeError):
        del trace.symbol
    assert trace == Determinizer(e1_nbw).successor_trace(Determinizer(e1_nbw).initial_tree(), "a")
    assert "symbol='a'" in repr(trace)


def test_label_images_stay_with_their_engine():
    """Two engines over NBWs with one state set but other rows (the second
    moves each letter's transitions to the next letter), stepped in turn,
    each give the reference step: each label's image is read from its own
    engine's memo."""
    first = wide_nbw()
    rotate = dict(zip(first.alphabet, first.alphabet[1:] + first.alphabet[:1]))
    second = NBW.make(first.states, first.alphabet, [(p, rotate[x], q) for p, x, q in first.transitions],
                      first.initial, first.finals)
    engines = [Determinizer(a, "baseline") for a in (first, second)]
    queues = [[engine.initial_tree()] for engine in engines]
    seen = [set(queue) for queue in queues]
    while any(queues):
        for a, engine, queue, known in zip((first, second), engines, queues, seen):
            if not queue:
                continue
            tree = queue.pop(0)
            for symbol in a.alphabet:
                expected = reference_step(a, tree, symbol, False)
                _assert_matches(engine.successor_trace(tree, symbol), expected, (tree, symbol))
                if expected["result"] not in known:
                    known.add(expected["result"])
                    queue.append(expected["result"])
    images = [engine._images for engine in engines]
    shared = images[0].keys() & images[1].keys()
    assert sum(images[0][mask] != images[1][mask] for mask in shared) >= 10


def test_one_step_interns_every_lane(all_fixtures, corpus_sample):
    """One `successor_trace` call decodes every letter: each lane's result
    is the engine's interned tree for its entries and its marks the
    interned annotation, and stepping the other letters then builds no
    tree."""
    for name, a in _differential_inputs(all_fixtures, corpus_sample):
        if not a.alphabet:
            continue
        engine = Determinizer(a)
        for tree in Determinizer(a).build_drtw().payloads[:5]:
            engine.successor_trace(tree, a.alphabet[-1])
            lanes = engine._last_phases.lanes
            assert len(lanes) == len(a.alphabet)
            for result, marks in lanes:
                assert engine._trees[result.entries] is result, name
                key = tuple(tuple(sorted(names)) for names in (marks.accepting, marks.unstable, marks.stable))
                assert engine._marks[key] is marks, name
            known = len(engine._trees)
            for symbol, (result, marks) in zip(a.alphabet, lanes):
                step = engine.successor_trace(tree, symbol)
                assert step.result is result and step.marks is marks, name
            assert len(engine._trees) == known, name


def test_other_lanes_make_their_trees_known(monkeypatch):
    """A sound foreign tree is checked once, before its first step; a tree
    that some lane of a step reached, read or not, is the engine's own and
    is not checked."""
    import histree.determinize as determinize

    checked = []
    check = determinize.check_history_tree

    def counting(tree, nbw, table=None):
        checked.append(tree.entries)
        return check(tree, nbw, table)

    monkeypatch.setattr(determinize, "check_history_tree", counting)
    a = parse_nbw((FIXTURE_DIR / "michel4.hoa").read_text(encoding="utf-8"))
    trees = Determinizer(a).build_drtw().payloads
    engine = Determinizer(a)
    foreign = trees[-1]
    for symbol in a.alphabet * 2:
        _assert_matches(engine.successor_trace(foreign, symbol), reference_step(a, foreign, symbol, False), symbol)
    assert checked == [foreign.entries]
    engine.successor_trace(foreign, a.alphabet[0])
    lanes = engine._last_phases.lanes
    for result, _ in lanes:
        twin = HistoryTree(result.entries, a.states)
        for symbol in a.alphabet:
            _assert_matches(engine.successor_trace(twin, symbol), reference_step(a, twin, symbol, False), symbol)
    assert checked == [foreign.entries]
