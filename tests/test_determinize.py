from dataclasses import replace
from itertools import chain
from pathlib import Path

import pytest

from histree.automata import NBW, BuildStats, TransitionAnnotation
from histree.determinize import (
    Determinizer,
    HistoryTree,
    assemble_pairs,
    build_drtw,
    build_drw,
    check_history_tree,
    relabel,
)
from histree.dot import emit_dot
from histree.errors import CapacityError, InputError
from histree.formats import emit_rabin, parse_nbw
from histree.corpus import default_corpus
from histree.fixtures import e1, no_finals, pair_shrink, single_final_loop
from histree.oracle import det_lasso_member, lassos_upto, nbw_lasso_member
from histree.automata import LassoWord
from histree.trees import Identifier, classify, full_tree, height
from rabin_edges import edge_map, incoming, signature_map
from test_kernel import reference_step


def tree(nbw, labels):
    """A tree written with state names, encoded through the automaton."""
    return HistoryTree(tuple(sorted((k, nbw.mask(v)) for k, v in labels.items())), nbw.states)


def canonical_step(engine, t, symbol):
    """One step of `t` with its marks indexed as a canonical build's pairs."""
    trace = engine.successor_trace(t, symbol)
    return trace.result, relabel(trace.marks, engine.table)


def index(table, name):
    """A node's pair index: its name, or its identifier when a table is given."""
    return name if table is None else table.lookup(name)


def test_initial_tree_examples(e1_nbw):
    t0 = Determinizer(e1_nbw).initial_tree()
    assert t0 == tree(e1_nbw, {(): {"p"}})
    assert t0.render(Determinizer(e1_nbw).table) == "ε:{p}(0,1)"

    empty = NBW.make(("p",), ("a",), [("p", "a", "p")], (), ("p",))
    assert Determinizer(empty).initial_tree().is_sink

    full_start = NBW.make(("p", "q"), ("a",), [("p", "a", "p")], ("p", "q"), ())
    engine = Determinizer(full_start)
    assert engine.initial_tree() == tree(full_start, {(): {"p", "q"}})
    assert engine.initial_tree().render(engine.table) == "ε:{p,q}(0,1)"


def test_labels_render_as_names_sorted_as_strings():
    states = tuple(f"q{i}" for i in range(11))
    a = NBW.make(states, ("a",), [(q, "a", q) for q in states], ("q10", "q2"), ())
    t0 = Determinizer(a).initial_tree()
    assert t0.entries == (((), a.mask({"q2", "q10"})),)
    assert t0.render() == "ε:{q10,q2}"
    assert r"ε\n{q10,q2}" in emit_dot(t0)


def test_initial_tree_baseline_has_no_ids(e1_nbw):
    baseline = Determinizer(e1_nbw, "baseline")
    t0 = baseline.initial_tree()
    assert t0 == tree(e1_nbw, {(): {"p"}}) == Determinizer(e1_nbw, "canonical").initial_tree()
    assert t0.render() == "ε:{p}"
    drtw = baseline.build_drtw()
    assert drtw.table is None
    assert "State: 0 \"ε:{p}\"" in emit_rabin(drtw)


def test_e1_successor_chain(e1_nbw):
    engine = Determinizer(e1_nbw, "canonical")
    t0 = engine.initial_tree()
    both = frozenset({Identifier(0, 1), Identifier(1, 1)})
    t1, ann1 = canonical_step(engine, t0, "a")
    assert t1 == tree(e1_nbw, {(): {"p", "q"}, (1,): {"q"}})
    assert t1.render(engine.table) == "ε:{p,q}(0,1) 1:{q}(1,1)"
    assert ann1 == TransitionAnnotation(stable=both)

    t2, ann2 = canonical_step(engine, t1, "a")
    assert t2 == t1
    assert ann2 == TransitionAnnotation(
        accepting=frozenset({Identifier(1, 1)}), stable=both
    )


def test_e1_successor_trace_details(e1_nbw):
    engine = Determinizer(e1_nbw, "canonical")
    t1 = engine.successor_trace(engine.initial_tree(), "a").result
    trace = engine.successor_trace(t1, "a")
    step = reference_step(e1_nbw, t1, "a", False)
    # Spawn doubles the node count; the younger root child loses q to its
    # older sibling, empties, and is dropped; node (1,) is covered by its
    # fresh child and accepts.
    assert set(step["spawned"]) == {(), (1,), (1, 1), (2,)}
    assert engine._last_phases.skeleton.names == list(step["spawned"])
    assert step["spawned"][(2,)] == e1_nbw.mask({"q"})
    assert step["deduped"][(2,)] == 0
    assert set(step["nonempty"]) == {(), (1,), (1, 1)}
    assert set(step["pruned"]) == {(), (1,)}
    assert step["accepting"] == {(1,)}
    assert trace.marks.accepting == {(1,)}
    assert step["unstable"] == frozenset()
    assert step["renaming"] == {(): (), (1,): (1,)}
    assert (trace.result, trace.marks) == (step["result"], step["marks"])


def test_successor_of_sink_is_sink(e1_nbw):
    engine = Determinizer(e1_nbw)
    sink = HistoryTree(())
    out, ann = canonical_step(engine, sink, "a")
    assert out.is_sink
    assert ann == TransitionAnnotation()


def test_successor_rejects_unknown_symbol(e1_nbw):
    engine = Determinizer(e1_nbw)
    with pytest.raises(InputError):
        engine.successor_trace(engine.initial_tree(), "z")


@pytest.mark.parametrize(
    "entries, problem",
    [
        ((((), 4),), "mentions unknown states"),  # bit 2 of a 2-state automaton
        ((((1,), 1),), "not prefix closed"),  # no root
        ((((), 3), ((1,), 3)), "do not form a strict subset"),
        ((((1,), 2), ((), 3)), "increasing name order"),
    ],
)
def test_successor_rejects_unsound_trees(e1_nbw, entries, problem):
    """A tree the engine did not produce is checked before its first step,
    and an unsound one raises InputError naming its problems instead of an
    IndexError or a meaningless successor."""
    engine = Determinizer(e1_nbw)
    bad = HistoryTree(entries, e1_nbw.states)
    with pytest.raises(InputError, match=problem):
        engine.successor_trace(bad, "a")
    assert engine.build_drtw() == build_drtw(e1_nbw)


def test_successor_checks_a_foreign_tree_once(e1_nbw, monkeypatch):
    """A sound foreign tree is checked once, then known; the engine's own
    trees are never checked."""
    import histree.determinize as determinize

    checked = []
    check = determinize.check_history_tree

    def counting(tree, nbw, table=None):
        checked.append(tree.entries)
        return check(tree, nbw, table)

    monkeypatch.setattr(determinize, "check_history_tree", counting)
    engine = Determinizer(e1_nbw)
    engine.build_drtw()
    engine.build_drw()
    assert checked == []
    foreign = tree(e1_nbw, {(): {"p", "q"}, (1,): {"q"}})
    start = engine.initial_tree()
    for t in (foreign, start, foreign, start, HistoryTree(foreign.entries, e1_nbw.states)):
        engine.successor_trace(t, "a")
    assert checked == []  # the engine produced these entries
    other = tree(e1_nbw, {(): {"q"}})
    for t in (other, start, other):
        engine.successor_trace(t, "a")
    assert checked == [other.entries]


def test_build_drtw_e1(e1_nbw):
    d = build_drtw(e1_nbw)
    assert len(d.payloads) == 2
    assert d.initial == 0
    assert d.acceptance.indices == (Identifier(1, 1),)
    assert signature_map(d) == {(1, "a"): 0b10}
    _, loop_ann = edge_map(d)[(1, "a")]
    assert loop_ann.accepting == {Identifier(1, 1)}
    assert det_lasso_member(d, LassoWord((), ("a",)))


def test_build_drtw_no_finals_has_no_pairs():
    d = build_drtw(no_finals())
    assert all(ann.accepting == frozenset() for _, ann in edge_map(d).values())
    assert (d.acceptance.indices, signature_map(d)) == ((), {})
    for w in lassos_upto(d.alphabet, 2, 2):
        assert not det_lasso_member(d, w)


def test_build_drtw_single_final_loop():
    d = build_drtw(single_final_loop())
    assert det_lasso_member(d, LassoWord((), ("a",)))
    keys = [key for key, (_, ann) in edge_map(d).items() if ann.accepting]
    assert keys, "the self loop must carry an accepting mark"


def test_build_drw_e1(e1_nbw):
    d = build_drw(e1_nbw)
    assert len(d.payloads) == 3
    assert d.acceptance_kind == "state"
    annotations = sorted(
        (sorted(ann.accepting), sorted(ann.unstable)) for ann in incoming(d)
    )
    assert annotations == [([], []), ([], []), ([Identifier(1, 1)], [])]
    assert det_lasso_member(d, LassoWord((), ("a",)))


def test_drw_equals_drtw_size_when_annotations_constant():
    a = no_finals()
    assert len(build_drw(a).payloads) == len(build_drtw(a).payloads)


def test_drw_refines_drtw(corpus_sample):
    for a in corpus_sample[:15]:
        assert len(build_drw(a).payloads) >= len(build_drtw(a).payloads)


def test_drw_is_the_edge_split_of_the_drtw(all_fixtures, corpus_sample):
    """A DRW state is a DRTW state paired with the annotation of the edge
    that entered it: its edges are the DRTW's edges, and its states are the
    start pair plus the distinct (target, annotation) pairs of DRTW edges.
    Its statistics are the DRTW's but for the state and transition counts:
    the same mode, mark semantics, pairs and census."""
    path = Path(__file__).parent / "fixtures" / "index_n3.hoa"
    named = _named_inputs(all_fixtures, corpus_sample) + [(path.stem, parse_nbw(path.read_text(encoding="utf-8")))]
    for name, a in named:
        for strict in (False, True):
            for mode in ("canonical", "baseline"):
                engine = Determinizer(a, strict_marks=strict)
                table = engine.table if mode == "canonical" else None
                drtw, drw = engine.build_drtw(mode), engine.build_drw(mode)
                tree_id = {tree: t for t, tree in enumerate(drtw.payloads)}
                split = [(tree_id[p], ann) for p, ann in zip(drw.payloads, incoming(drw))]
                drtw_edges = edge_map(drtw)
                for (sid, symbol), (did, ann) in edge_map(drw).items():
                    assert drtw_edges[(split[sid][0], symbol)] == (split[did][0], ann), name
                    assert split[did][1] == ann, name
                t0 = drtw.payloads[0]
                start = (0, TransitionAnnotation(stable=frozenset(index(table, n) for n in t0.names)))
                assert split[0] == start, name
                assert len(set(split)) == len(split), name
                assert set(split) == {start} | set(drtw_edges.values()), name
                size = len(drtw.payloads)
                assert replace(drw.stats, states=size, transitions=size * len(a.alphabet)) == drtw.stats, name
                assert (drw.stats.states, drw.stats.transitions) == (len(split), len(split) * len(a.alphabet)), name


@pytest.mark.parametrize("mode", ["canonical", "baseline"])
def test_drw_payloads_are_the_engines_trees(mode, all_fixtures, corpus_sample):
    """Every DRW payload is the very tree object the DRTW of the same
    engine holds for that state's tree id.  The tree ids are read off the
    edges: the start state is tree 0, and a DRW edge enters a state of the
    tree its DRTW edge enters."""
    for name, a in _named_inputs(all_fixtures, corpus_sample):
        engine = Determinizer(a)
        drtw, drw = engine.build_drtw(mode), engine.build_drw(mode)
        tree_id = {0: 0}
        for sid in range(len(drw.payloads)):
            for j in range(len(a.alphabet)):
                target = drtw.targets[j][tree_id[sid]]
                assert tree_id.setdefault(drw.targets[j][sid], target) == target, name
        assert sorted(tree_id) == list(range(len(drw.payloads))), name
        for sid, payload in enumerate(drw.payloads):
            assert payload is drtw.payloads[tree_id[sid]], (name, sid)


def test_build_drw_after_build_drtw_steps_no_tree(e1_nbw, monkeypatch):
    """The canonical DRTW steps each of its trees once, in discovery order,
    and the DRW and baseline builds after it step no tree again.  A step
    counts when it builds new phases."""
    engine = Determinizer(e1_nbw, "canonical")
    stepped = []
    step = engine._step

    def counting(tree):
        before = engine._last_phases
        phases = step(tree)
        if phases is not before:
            stepped.append(tree)
        return phases

    monkeypatch.setattr(engine, "_step", counting)
    drtw = engine.build_drtw()
    assert stepped == list(drtw.payloads)
    assert len(set(stepped)) == len(stepped)
    drw = engine.build_drw()
    assert len(drw.payloads) > len(drtw.payloads)
    baseline = engine.build_drtw("baseline")
    assert baseline == build_drtw(e1_nbw, "baseline")
    assert baseline.stats == build_drtw(e1_nbw, "baseline").stats
    assert engine.build_drw("baseline") == build_drw(e1_nbw, "baseline")
    assert stepped == list(drtw.payloads)


def test_assemble_pairs_absence_rule():
    mark = "X"
    kept = frozenset({mark})
    plus = TransitionAnnotation(accepting=kept, stable=kept)
    # The index survives into the target tree, but only by renaming: the
    # stable set does not carry it, so the transition must reject.
    renamed_in = TransitionAnnotation(stable=frozenset())
    acc = assemble_pairs([plus, renamed_in])
    assert acc.indices == (mark,)
    assert acc.signatures == (0b10, 0b01)

    relaxed = assemble_pairs([plus, renamed_in], strict_marks=True)
    assert relaxed.indices == (mark,)
    assert relaxed.signatures == (0b10, 0)


def test_assemble_pairs_requires_an_accepting_occurrence():
    minus_only = TransitionAnnotation(unstable=frozenset({"X"}))
    acc = assemble_pairs([minus_only])
    assert (acc.indices, acc.signatures) == ((), (0,))


def test_assemble_state_pairs_absence_rule():
    mark = "Y"
    kept = frozenset({mark})
    incoming = [
        TransitionAnnotation(),
        TransitionAnnotation(accepting=kept, stable=kept),
        TransitionAnnotation(unstable=kept, stable=frozenset()),
    ]
    acc = assemble_pairs(incoming)
    assert acc.indices == (mark,)
    assert acc.signatures == (0b01, 0b10, 0b01)


def test_capacity_error_carries_partial_stats(corpus_sample):
    """The partial statistics are the requesting build's, its mode
    included: a build in another mode than the engine's reports its own,
    though the exploration it ran out of room in is the engine's."""
    target = next(a for a in corpus_sample if len(a.states) >= 3)
    engines = [(Determinizer(target, max_states=1), None),
               (Determinizer(pair_shrink(), "canonical", max_states=2), "baseline")]
    for engine, mode in engines:
        for build in (engine.build_drtw, engine.build_drw):
            with pytest.raises(CapacityError) as err:
                build(mode)
            assert err.value.partial is not None
            assert err.value.partial.states >= 1
            assert err.value.partial.mode == (mode or engine.mode)


def test_overflow_census_counts_the_overflowing_trees_fresh_names(corpus_sample):
    """At the state limit, the partial census reads the trees explored so
    far, including the one whose step overflowed: a tree's fresh children
    are spawned whatever the letter, so the overflowing tree's first step
    has already spawned them all.  Here that tree holds the two off-table
    names, which a count of only the completed steps would miss (0)."""
    target = corpus_sample[2]  # default_corpus()[2]
    for build in (build_drtw, build_drw):
        with pytest.raises(CapacityError) as err:
            build(target, max_states=4)
        partial = err.value.partial
        assert (partial.states, partial.transitions, partial.pairs) == (4, 4, 0)
        assert (partial.max_tree_nodes, partial.off_table_intermediate_names) == (3, 2)


def test_drw_state_limit_counts_the_split_states(e1_nbw):
    """The DRTW of e1 fits two states; its DRW splits them into three, so
    the DRW build alone exceeds the limit.  The partial record reports the
    limit and no transitions, since the DRW's edges are built only after
    its states are counted, and the DRTW's mode, mark semantics and
    census."""
    assert len(build_drtw(e1_nbw, max_states=2).payloads) == 2
    assert len(build_drw(e1_nbw).payloads) == 3
    for mode in ("canonical", "baseline"):
        for strict in (False, True):
            with pytest.raises(CapacityError, match="^state limit 2 exceeded$") as err:
                build_drw(e1_nbw, mode, strict_marks=strict, max_states=2)
            drtw = build_drtw(e1_nbw, mode, strict_marks=strict, max_states=2)
            assert err.value.partial == replace(drtw.stats, states=2, transitions=0, pairs=0)
            partial = err.value.partial
            assert (partial.mode, partial.strict_marks, partial.states, partial.transitions, partial.pairs) == (
                mode, strict, 2, 0, 0)
            assert (partial.max_tree_nodes, partial.off_table_intermediate_names) == (2, 2)


def test_invalid_inputs_rejected(e1_nbw):
    with pytest.raises(InputError) as caught:
        NBW.make(("p",), ("a",), [("p", "a", "zz")], ("p",), ())
    assert str(caught.value) == "invalid automaton: transition (p,a,zz): target state zz not declared"
    with pytest.raises(InputError):
        Determinizer(e1_nbw, mode="fancy")
    with pytest.raises(InputError):
        Determinizer(e1_nbw).build_drtw("fancy")


def _local_tree_properties(labels):
    """Direct re-statement of the three label properties on a dict of
    state masks."""
    problems = []
    for name, label in labels.items():
        if not label:
            problems.append(("empty", name))
        kids = [k for k in labels if k[:-1] == name and len(k) == len(name) + 1]
        union = 0
        for kid in kids:
            if labels[kid] & union:
                problems.append(("overlap", name))
            union |= labels[kid]
        if kids and (union & ~label or union == label):
            problems.append(("cover", name))
    return problems


def test_corpus_invariants_and_trace_properties(corpus_sample):
    for a in corpus_sample[:20]:
        n = len(a.states)
        engine = Determinizer(a, "canonical")
        d = engine.build_drtw()
        for payload in d.payloads:
            assert check_history_tree(payload, a, engine.table) == []
            assert payload.node_count <= n
            for name in payload.names:
                assert name in full_tree(max(n, 1))
        # Trace-level checks along every reachable transition.
        for (sid, sym), (tid, ann) in edge_map(d).items():
            trace = engine.successor_trace(d.payloads[sid], sym)
            step = reference_step(a, d.payloads[sid], sym, False)
            assert trace.result == step["result"] == d.payloads[tid]
            assert trace.marks == step["marks"]
            assert len(step["spawned"]) <= 2 * n
            assert _local_tree_properties(step["pruned"]) == []
            renamed = {x for x, y in step["renaming"].items() if x != y}
            assert renamed == step["unstable"]
            parts = classify(step["pruned"])
            assert parts.unstable == step["unstable"]
            assert ann == relabel(trace.marks, engine.table)
            assert trace.marks.unstable == step["unstable"]
            assert ann.unstable == frozenset(engine.table.lookup(x) for x in step["unstable"])
            assert ann.stable == frozenset(engine.table.lookup(x) for x in parts.stable)


def test_step_trace_does_not_depend_on_the_labeling(corpus_sample):
    """The kernel works on node names: engines that differ only in how they
    index pairs produce equal traces on every reachable edge."""
    for a in corpus_sample:
        for strict in (False, True):
            canonical = Determinizer(a, "canonical", strict_marks=strict)
            baseline = Determinizer(a, "baseline", strict_marks=strict)
            d = baseline.build_drtw()
            for sid, sym in edge_map(d):
                tree = d.payloads[sid]
                assert canonical.successor_trace(tree, sym) == baseline.successor_trace(tree, sym)


def test_check_history_tree_reports_colliding_identifiers(e1_nbw):
    class Flat:
        def lookup(self, name):
            return Identifier(0, 1)

    engine = Determinizer(e1_nbw)
    t1 = engine.successor_trace(engine.initial_tree(), "a").result
    assert check_history_tree(t1, e1_nbw, engine.table) == []
    assert check_history_tree(t1, e1_nbw, Flat()) == ["identifiers not injective"]


THREE_STATES = NBW.make(("p", "q", "r"), ("a",), [("p", "a", "q")], ("p",), ("q",))


@pytest.mark.parametrize("nbw, labels, problems", [
    (THREE_STATES, {(): {"p", "q", "r"}, (2,): {"q"}}, ["not order closed: imbalanced [(2,)]"]),
    (e1(), {(): {"p", "q"}, (1,): {"q"}, (1, 1): {"q"}},
     ["3 nodes exceeds state count 2", "children of 1 do not form a strict subset",
      "node 1.1 outside the capacity-2 full tree"]),
    (e1(), {(): {"p", "q"}, (2,): {"q"}},
     ["not order closed: imbalanced [(2,)]", "node 2 outside the capacity-2 full tree"]),
    (e1(), {(): {"p", "q"}, (1,): set()}, ["empty label at 1"]),
], ids=["imbalanced", "too many nodes", "outside the full tree", "empty label"])
def test_check_history_tree_lists_every_problem(nbw, labels, problems):
    assert check_history_tree(tree(nbw, labels), nbw) == problems


def test_erasure_bijection_and_injectivity(corpus_sample):
    for a in corpus_sample[:20]:
        canonical = build_drtw(a, "canonical")
        baseline = build_drtw(a, "baseline")
        assert len(set(canonical.payloads)) == len(canonical.payloads)
        assert canonical.payloads == baseline.payloads
        mapping = edge_map(baseline)
        table = Determinizer(a, "canonical").table
        for key, (dst, ann) in edge_map(canonical).items():
            base_dst, base_ann = mapping[key]
            assert base_dst == dst
            assert frozenset(table.lookup(x) for x in base_ann.accepting) == ann.accepting
            assert frozenset(table.lookup(x) for x in base_ann.unstable) == ann.unstable
            assert frozenset(table.lookup(x) for x in base_ann.stable) == ann.stable


def test_canonical_pair_count_never_exceeds_baseline(corpus_sample):
    for a in corpus_sample[:25]:
        canonical = build_drtw(a, "canonical")
        baseline = build_drtw(a, "baseline")
        assert len(canonical.acceptance.indices) <= len(baseline.acceptance.indices)


def test_build_drw_modes_agree_on_language(e1_nbw):
    for mode in ("canonical", "baseline"):
        d = build_drw(e1_nbw, mode)
        for w in lassos_upto(e1_nbw.alphabet, 3, 3):
            assert det_lasso_member(d, w) == nbw_lasso_member(e1_nbw, w)


def test_drw_state_labels_render_incoming_marks(e1_nbw):
    """A DRW state's label is its tree's rendering followed by its
    incoming mark's pair indices, and a DRTW's is the tree's alone."""
    assert list(build_drw(e1_nbw).state_labels()) == [
        "ε:{p}(0,1) [+{} -{}]",
        "ε:{p,q}(0,1) 1:{q}(1,1) [+{} -{}]",
        "ε:{p,q}(0,1) 1:{q}(1,1) [+{(1,1)} -{}]",
    ]
    assert list(build_drw(e1_nbw, "baseline").state_labels())[2] == "ε:{p,q} 1:{q} [+{(1,)} -{}]"
    assert list(build_drtw(e1_nbw).state_labels()) == ["ε:{p}(0,1)", "ε:{p,q}(0,1) 1:{q}(1,1)"]


def test_rename_takeover_rejects_broken_lineage():
    """Regression for the stable-carrier rejecting rule: when a node dies
    and a renamed sibling takes over its name in the same step, the name
    is present in the target tree but not stably carried, and the word
    must be rejected."""
    from histree.fixtures import rename_takeover
    from histree.oracle import bounded_equiv

    a = rename_takeover()
    engine = Determinizer(a, "canonical")
    d = engine.build_drtw()
    word = LassoWord((), ("go", "go", "halt"))
    assert not nbw_lasso_member(a, word)
    assert not det_lasso_member(d, word)
    takeover = [
        (key, ann)
        for key, (dst, ann) in edge_map(d).items()
        if ann.unstable
        and Identifier(1, 1) in {engine.table.lookup(x) for x in d.payloads[dst].names}
        and Identifier(1, 1) not in ann.stable
    ]
    assert takeover, "expected a transition whose target holds the name only by renaming"
    for build in (engine.build_drtw(), engine.build_drw()):
        assert bounded_equiv(a, build, 4, 4).equivalent


def test_two_same_height_nodes_can_accept_in_one_step():
    """Two sibling branches may be covered by their children in the same
    transition, yielding two accepting marks of equal height but distinct
    flags on one annotation."""
    a = NBW.make(
        states=("a", "b", "c", "e"),
        alphabet=("s",),
        transitions=[(q, "s", q) for q in ("a", "b", "c", "e")],
        initial=("a", "b", "c", "e"),
        finals=("a", "c"),
    )
    engine = Determinizer(a, "canonical")
    start = tree(a, {(): "abce", (1,): "ab", (1, 1): "a", (2,): "c"})
    assert check_history_tree(start, a, engine.table) == []
    trace = engine.successor_trace(start, "s")
    step = reference_step(a, start, "s", False)
    assert (trace.result, trace.marks) == (step["result"], step["marks"])
    assert step["accepting"] == {(1, 1), (2,)}
    assert trace.marks.accepting == step["accepting"]
    assert relabel(trace.marks, engine.table).accepting == {Identifier(2, 1), Identifier(2, 2)}
    heights = {height(name) for name in step["accepting"]}
    assert heights == {2}


def _named_inputs(all_fixtures, corpus_sample):
    named = list(all_fixtures.items()) + [(f"random:{i}", a) for i, a in enumerate(corpus_sample)]
    for n in (4, 5, 6):
        path = Path(__file__).parent / "fixtures" / f"pair_index_n{n}.hoa"
        named.append((path.stem, parse_nbw(path.read_text(encoding="utf-8"))))
    return named


def no_letters():
    """A one-state NBW over the empty alphabet."""
    return parse_nbw("HOA: v1\nStates: 1\nStart: 0\nAP: 0\nacc-name: Buchi\n"
                     "Acceptance: 1 Inf(0)\n--BODY--\nState: 0 {0}\n--END--\n")


def fresh_children(t):
    """Each node's fresh youngest child, in entry order: the name one past
    its last child, computed from the tree alone."""
    degrees = {}
    for name, _ in t.entries:
        if name:
            degrees[name[:-1]] = name[-1]
    return tuple(name + (degrees.get(name, 0) + 1,) for name, _ in t.entries)


def per_tree_census(trees, n):
    """The census by its per-tree formula: the largest tree, and the
    distinct fresh children of height >= n."""
    off_table = {x for t in trees for x in fresh_children(t) if height(x) >= n}
    return max(t.node_count for t in trees), len(off_table)


def skeleton_fresh(engine, t):
    skeleton = engine._skeleton(tuple(name for name, _ in t.entries))
    return tuple(skeleton.names[p] for p in skeleton.fresh)


def test_fresh_names_are_one_past_each_nodes_last_child(e1_nbw):
    """A skeleton places each entry's fresh child one past its last child,
    after the entry's subtree in preorder."""
    engine = Determinizer(e1_nbw)
    t = tree(e1_nbw, {(): {"p", "q"}, (1,): {"q"}, (1, 1): {"q"}})
    assert skeleton_fresh(engine, t) == fresh_children(t) == ((2,), (1, 2), (1, 1, 1))
    skeleton = engine._skeleton(((), (1,), (1, 1)))
    assert skeleton.names == [(), (1,), (1, 1), (1, 1, 1), (1, 2), (2,)]
    ones = engine._ones
    assert [(p, q, name, index // ones) for p, q, name, index in skeleton.below] == [
        (1, 0, (1,), 1), (2, 1, (1, 1), 1), (3, 2, (1, 1, 1), 1), (4, 1, (1, 2), 2), (5, 0, (2,), 2)]
    assert (skeleton.slots, skeleton.fresh, skeleton.node_count) == ([0, 1, 2], [5, 4, 3], 3)
    assert skeleton_fresh(engine, engine.initial_tree()) == ((1,),)
    assert skeleton_fresh(engine, HistoryTree(())) == ()


@pytest.mark.parametrize("strict", [False, True])
def test_census_matches_the_per_step_definition(strict, all_fixtures, corpus_sample):
    """The census read off the trees equals its per-step definition: the
    distinct spawned names of height >= n over every (tree, symbol), and the
    largest tree.  Every step spawns exactly the tree's names and its fresh
    children.  A zero-letter input steps no tree, so it spawns no name."""
    for name, a in _named_inputs(all_fixtures, corpus_sample) + [("no_letters", no_letters())]:
        engine = Determinizer(a, "canonical", strict_marks=strict)
        trees = engine.build_drtw().payloads
        off_table = set()
        for t in trees:
            for symbol in a.alphabet:
                trace = engine.successor_trace(t, symbol)
                step = reference_step(a, t, symbol, strict)
                assert (trace.result, trace.marks) == (step["result"], step["marks"]), name
                spawned = set(step["spawned"])
                assert spawned == t.names | set(fresh_children(t)), name
                off_table |= {x for x in spawned if height(x) >= len(a.states)}
        for mode in ("canonical", "baseline"):
            for d in (engine.build_drtw(mode), engine.build_drw(mode)):
                assert d.stats.off_table_intermediate_names == len(off_table), (name, mode)
                assert d.stats.max_tree_nodes == max(t.node_count for t in trees), (name, mode)


def reference_exploration(a, strict, max_states=None):
    """The baseline tree graph by its definition: a breadth-first search
    over `successor_trace(tree, symbol)` per (tree, letter) on a fresh
    engine, with trees and marks numbered by discovery and the alphabet in
    declared order.  Returns the payloads, the target and mark rows per
    letter and the annotations.  Past `max_states` trees it returns instead
    the partial statistics of a build stopped there: the trees met, the
    edges found before the one that passed the limit, and the census of the
    trees stepped, that edge's source included."""
    engine = Determinizer(a, "baseline", strict_marks=strict)
    trees = [engine.initial_tree()]
    tree_ids = {trees[0]: 0}
    mark_ids = {}
    edges = []  # (target, mark) per edge, in (tree id, letter) order
    for i, t in enumerate(trees):
        for symbol in a.alphabet:
            trace = engine.successor_trace(t, symbol)
            if trace.result not in tree_ids:
                if max_states is not None and len(trees) >= max_states:
                    census = per_tree_census(trees[:i + 1], len(a.states))
                    return BuildStats("baseline", strict, len(trees), len(edges), 0, *census)
                tree_ids[trace.result] = len(trees)
                trees.append(trace.result)
            edges.append((tree_ids[trace.result], mark_ids.setdefault(trace.marks, len(mark_ids))))
    k = len(a.alphabet)
    targets = tuple(tuple(tid for tid, _ in edges[j::k]) for j in range(k))
    marks = tuple(tuple(mid for _, mid in edges[j::k]) for j in range(k))
    return tuple(trees), targets, marks, tuple(mark_ids)


@pytest.mark.parametrize("strict", [False, True])
def test_exploration_matches_a_per_letter_search(strict, all_fixtures, corpus_sample):
    """The exploration, which reads every lane of a tree's one step, finds
    the graph that a per-letter breadth-first search over `successor_trace`
    finds: the same payloads, target rows, mark rows and annotations, on the
    fixtures, the corpus sample, Michel m=4 and a zero-letter input.  Michel
    m=4 stopped by a state limit of 1, 2 or half its trees reports the
    partial statistics, census included, that the search gives at the same
    limit."""
    michel4 = parse_nbw((Path(__file__).parent / "fixtures" / "michel4.hoa").read_text(encoding="utf-8"))
    named = _named_inputs(all_fixtures, corpus_sample) + [("michel4", michel4), ("no_letters", no_letters())]
    for name, a in named:
        d = Determinizer(a, strict_marks=strict).build_drtw("baseline")
        assert (d.payloads, d.targets, d.marks, d.annotations) == reference_exploration(a, strict), name
    for limit in (1, 2, len(reference_exploration(michel4, strict)[0]) // 2):
        with pytest.raises(CapacityError) as err:
            Determinizer(michel4, strict_marks=strict, max_states=limit).build_drtw("baseline")
        assert err.value.partial == reference_exploration(michel4, strict, limit), limit


def _census_inputs(all_fixtures):
    named = list(all_fixtures.items()) + [(f"random:{i}", a) for i, a in enumerate(default_corpus())]
    for m in (4, 5):
        path = Path(__file__).parent / "fixtures" / f"michel{m}.hoa"
        named.append((path.stem, parse_nbw(path.read_text(encoding="utf-8"))))
    return named


def test_skeleton_census_equals_the_per_tree_formula(all_fixtures):
    """The census read off the distinct skeletons equals the per-tree
    formula on the fixtures, the whole corpus and Michel m=4 and m=5.  The
    engine keeps one skeleton per distinct name tuple of the baseline
    DRTW's trees.  At a state limit of 1, 2 or half the trees, the partial
    census covers the trees stepped until tree number `limit` is reached:
    every tree up to the source of the first edge, in (tree id, letter)
    order, that targets it."""
    for name, a in _census_inputs(all_fixtures):
        engine = Determinizer(a)
        d = engine.build_drtw("baseline")
        trees = d.payloads
        n, k = len(a.states), len(a.alphabet)
        shapes = {tuple(node for node, _ in t.entries) for t in trees}
        assert set(engine._skeletons) == shapes, name
        assert sorted(tuple(s.names[p] for p in s.slots) for s in engine._skeletons.values()) == sorted(shapes), name
        assert (d.stats.max_tree_nodes, d.stats.off_table_intermediate_names) == per_tree_census(trees, n), name
        edges = list(chain.from_iterable(zip(*d.targets)))  # edge targets in (tree id, letter) order
        for limit in {1, 2, len(trees) // 2}:
            if not 0 < limit < len(trees):
                continue
            with pytest.raises(CapacityError) as err:
                Determinizer(a, max_states=limit).build_drtw()
            partial = err.value.partial
            i = edges.index(limit) // k
            census = (partial.max_tree_nodes, partial.off_table_intermediate_names)
            assert census == per_tree_census(trees[:i + 1], n), (name, limit)


def test_one_skeleton_per_shape(all_fixtures):
    """An engine builds one skeleton per distinct name tuple it steps: 6 for
    the 2,163 trees of Michel m=5, however many builds it makes."""
    michel5 = parse_nbw((Path(__file__).parent / "fixtures" / "michel5.hoa").read_text(encoding="utf-8"))
    engine = Determinizer(michel5)
    engine.build_drtw()
    engine.build_drw("baseline")
    trees = engine.build_drtw("baseline").payloads
    assert (len(trees), len(engine._skeletons)) == (2163, 6)
    assert set(engine._skeletons) == {tuple(name for name, _ in t.entries) for t in trees}
    for a in all_fixtures.values():
        engine = Determinizer(a)
        engine.build_drtw()
        shapes = {tuple(name for name, _ in t.entries) for t in engine.build_drtw("baseline").payloads}
        assert set(engine._skeletons) == shapes


def test_one_census_walk_serves_every_build(monkeypatch, all_fixtures):
    """An engine reads the census off its trees once, however many builds
    it makes; each build's stats text is what a fresh engine's gives."""
    a = all_fixtures["rename_takeover"]
    walks = []
    census = Determinizer._census

    def counting(self, trees):
        walks.append(len(trees))
        return census(self, trees)

    expected = {
        (mode, build): getattr(Determinizer(a), build)(mode).stats.to_text()
        for mode, build in (("canonical", "build_drtw"), ("baseline", "build_drtw"), ("canonical", "build_drw"))
    }
    monkeypatch.setattr(Determinizer, "_census", counting)
    engine = Determinizer(a)
    for (mode, build), text in expected.items():
        assert getattr(engine, build)(mode).stats.to_text() == text
    assert walks == [len(engine._skeletons)]


def test_canonical_drtw_shares_the_baseline_drtws_trees_and_targets(all_fixtures, corpus_sample):
    """The canonical DRTW relabels the baseline DRTW's marks only: it holds
    the baseline's own payload and target tuples."""
    for name, a in _named_inputs(all_fixtures, corpus_sample):
        engine = Determinizer(a)
        canonical, baseline = engine.build_drtw("canonical"), engine.build_drtw("baseline")
        assert canonical.payloads is baseline.payloads and canonical.targets is baseline.targets, name


def test_each_drtw_is_built_once_per_engine(e1_nbw):
    engine = Determinizer(e1_nbw)
    for mode in ("canonical", "baseline"):
        assert engine.build_drtw(mode) is engine.build_drtw(mode)
    assert engine.build_drtw() is engine.build_drtw("canonical")


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("mode", ["canonical", "baseline"])
def test_equal_trees_and_marks_are_one_object(mode, strict, all_fixtures, corpus_sample):
    """Within one engine, equal trees and equal name-indexed marks are one
    object.  A build numbers its relabeled marks by value: as many distinct
    mark objects as distinct relabeled marks, on the DRTW's edges and on
    the DRW's states and edges.  The DRW's states are what the equality
    keyed reference gives: the start pair, then the distinct relabeled
    DRTW edge targets in edge order."""
    for name, a in _named_inputs(all_fixtures, corpus_sample):
        engine = Determinizer(a, mode, strict_marks=strict)
        table = engine.table if mode == "canonical" else None
        drtw, drw = engine.build_drtw(), engine.build_drw()
        trees = drtw.payloads
        traces = {(sid, symbol): engine.successor_trace(t, symbol)
                  for sid, t in enumerate(trees) for symbol in a.alphabet}
        drtw_edges = edge_map(drtw)
        for key, trace in traces.items():
            assert trace.result is trees[drtw_edges[key][0]], name
        named = [trace.marks for trace in traces.values()]
        assert len({id(m) for m in named}) == len(set(named)), name

        for marks in ([ann for _, ann in drtw_edges.values()],
                      incoming(drw) + [ann for _, ann in edge_map(drw).values()]):
            assert len({id(m) for m in marks}) == len(set(marks)), name
        for d in (drtw, drw):
            assert len(set(d.annotations)) == len(d.annotations), name

        start = (trees[0], relabel(TransitionAnnotation(stable=trees[0].names), table))
        edges = [(trees[drtw_edges[key][0]], relabel(trace.marks, table)) for key, trace in traces.items()]
        reference = list(dict.fromkeys([start, *edges]))
        assert list(zip(drw.payloads, incoming(drw))) == reference, name
        assert all(p is trees[trees.index(p)] for p in drw.payloads), name


def test_relabeling_merges_equal_canonical_marks(corpus_sample):
    """default_corpus()[2] has five name-indexed marks that relabel to four
    canonical ones, each one object in the canonical build."""
    a = corpus_sample[2]
    engine = Determinizer(a)
    named = {engine.successor_trace(t, symbol).marks
             for t in engine.build_drtw("baseline").payloads for symbol in a.alphabet}
    canonical = [ann for _, ann in edge_map(engine.build_drtw()).values()]
    assert (len(named), len(set(canonical)), len({id(m) for m in canonical})) == (5, 4, 4)
