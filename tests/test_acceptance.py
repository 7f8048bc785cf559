"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its runtime (run with -s to see them).  The corpus here is
the full seeded set plus every hand-written fixture."""

import time
from pathlib import Path

import pytest

from histree.automata import LassoWord
from histree.corpus import default_corpus
from histree.determinize import Determinizer, HistoryTree, build_drtw, build_drw, relabel
from histree.dot import emit_dot
from histree.fixtures import e1, fixtures
from histree.formats import emit_nbw_hoa, emit_nbw_native, emit_rabin, parse_nbw
from histree.oracle import (
    bounded_equiv,
    check_identifiers_injective,
    det_lasso_member,
    enumerate_history_trees,
    nbw_lasso_member,
    verify_identifier_bounds,
)
from histree.trees import Identifier, IdentifierTable, can_co_occur, full_tree
from rabin_edges import edge_map, signature_map

FIXTURE_DIR = Path(__file__).parent / "fixtures"
ARTIFACT_DIR = Path(__file__).parent.parent / ".artifacts"

MAX_U = MAX_V = 4


def _report(criterion, label, started):
    print(f"ACCEPTANCE {criterion} {label}: PASS ({time.monotonic() - started:.1f}s)")


@pytest.fixture(scope="module")
def corpus():
    named = [(f"fixture:{name}", a) for name, a in fixtures().items()]
    named += [(f"random:{i}", a) for i, a in enumerate(default_corpus())]
    return named


@pytest.fixture(scope="module")
def builds(corpus):
    out = {}
    for name, a in corpus:
        out[name] = (
            a,
            build_drtw(a, "canonical"),
            build_drtw(a, "baseline"),
            build_drw(a, "canonical"),
        )
    return out


def test_criterion_1_full_tree_census():
    started = time.monotonic()
    for n in range(1, 13):
        assert len(full_tree(n)) == 2 ** (n - 1), n
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report("C1", "full-tree census 2^(n-1) for n=1..12", started)


def test_criterion_2_identifier_table_bounds():
    started = time.monotonic()
    for n in range(2, 11):
        report = verify_identifier_bounds(n)  # raises on any budget breach
        assert report.flags_used <= 2 ** max((n - 1 + 1) // 2 - 1, 0)
        assert IdentifierTable(n).lookup(()) == Identifier(0, 1)
    assert verify_identifier_bounds(7).flags_used <= 4
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report("C2", "identifier flag budgets for n=2..10", started)


def test_criterion_3_history_tree_counts():
    started = time.monotonic()
    assert enumerate_history_trees(1) == 1
    assert enumerate_history_trees(2) == 5
    for n in range(1, 6):
        check_identifiers_injective(n)
    for n in range(2, 7):
        assert enumerate_history_trees(n) <= (1.65 * n) ** n
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _report("C3", "tree census values and numeric bound", started)


def test_criterion_4_language_equivalence(builds):
    started = time.monotonic()
    for name, (a, canonical, baseline, drw) in builds.items():
        for label, d in (("canonical", canonical), ("baseline", baseline), ("drw", drw)):
            report = bounded_equiv(a, d, MAX_U, MAX_V)
            assert report.equivalent, (name, label, report.counterexample)

    # The strict mark semantics are scanned too; disagreements are
    # recorded as an artifact, never as a failure.
    findings = []
    for name, (a, *_rest) in builds.items():
        strict = build_drtw(a, "canonical", strict_marks=True)
        report = bounded_equiv(a, strict, MAX_U, MAX_V)
        if report.counterexample:
            findings.append((name, report.counterexample))
    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "strict_marks_counterexamples.txt"
    lines = [
        f"{name}: u={','.join(c.prefix) or '-'} v={','.join(c.period)} "
        f"nbw={int(c.nbw_accepts)} det={int(c.det_accepts)}"
        for name, c in findings
    ]
    artifact.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"strict-paper-marks counterexamples: {len(findings)} (see {artifact})")

    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    _report("C4", "zero lasso counterexamples over the corpus", started)


def test_criterion_5_structural_invariants(builds):
    started = time.monotonic()
    violations = []
    for name, (a, canonical, baseline, drw) in builds.items():
        n = len(a.states)
        table = IdentifierTable(max(n, 1))
        payloads = list(canonical.payloads) + list(drw.payloads)
        for payload in payloads:
            from histree.determinize import check_history_tree

            problems = check_history_tree(payload, a, table)
            if problems:
                violations.append((name, payload.render(table), problems))
            if payload.node_count > n:
                violations.append((name, payload.render(table), "node count"))
        if len(set(canonical.payloads)) != len(canonical.payloads):
            violations.append((name, "-", "canonical trees not distinct"))
        if canonical.payloads != baseline.payloads:
            violations.append((name, "-", "canonical trees do not match the baseline build"))
    assert violations == []
    _report("C5", "every reachable payload satisfies the tree invariants", started)


def test_criterion_6_index_complexity(builds):
    started = time.monotonic()
    strict_improvement = []
    for name, (a, canonical, baseline, _drw) in builds.items():
        n = len(a.states)
        c, b = len(canonical.acceptance.indices), len(baseline.acceptance.indices)
        assert c <= b, (name, c, b)
        assert b <= 2 ** (n - 1), name
        assert c <= 2 ** (n - 1), name
        if c < b and n >= 4:
            strict_improvement.append((name, n, c, b))
    assert strict_improvement, "expected a strict pair-count improvement somewhere"
    worst = {}
    for name, (a, canonical, *_rest) in builds.items():
        n = len(a.states)
        pairs = len(canonical.acceptance.indices)
        # The headline budget is only reported: Michel m=4 exceeds it (see
        # below).  The identifier count of the capacity-n table holds.
        assert pairs <= verify_identifier_bounds(max(n, 1)).identifiers_used, (name, pairs)
        worst[n] = max(worst.get(n, 0), pairs)
    for n in sorted(worst):
        print(
            f"n={n}: max canonical pairs {worst[n]} "
            f"(headline budget 2^ceil((n-1)/2) = {2 ** ((n - 1 + 1) // 2)})"
        )
    print(f"strict improvements with n>=4: {strict_improvement[:4]}")
    _report("C6", "identifier indexing never needs more pairs", started)


def test_michel4_exceeds_the_headline_pair_bound():
    """Michel m=4 (n=5) builds 5 canonical pairs, the co-occurring chain
    ε, 1, 1.1, 1.1.1, 1.1.1.1: above the headline 2^ceil((n-1)/2) = 4 and
    within the identifier count 1 + sum_h min(2^(h-1), 2^(n-h-1)) = 7."""
    a = parse_nbw((FIXTURE_DIR / "michel4.hoa").read_text(encoding="utf-8"))
    n = len(a.states)
    drtw = build_drtw(a, "canonical")
    assert (n, len(drtw.payloads), len(drtw.acceptance.indices)) == (5, 299, 5)
    headline = 2 ** ((n - 1 + 1) // 2)
    holding = 1 + sum(min(2 ** (h - 1), 2 ** (n - h - 1)) for h in range(1, n))
    assert holding == verify_identifier_bounds(n).identifiers_used
    assert (headline, holding) == (4, 7)
    assert drtw.acceptance.indices == tuple(Identifier(h, 1) for h in range(5))


def _conflict_graph(n):
    """Non-root names of full_tree(n), adjacent when they can share one
    order-closed tree of at most n nodes (and so need distinct pair
    indices under any per-tree injective labeling)."""
    names = sorted(full_tree(n) - {()})
    return {x: {y for y in names if y != x and can_co_occur(x, y, n)} for x in names}


def _dsatur(adj):
    """A proper colouring: repeatedly colour the uncoloured vertex seeing
    the most distinct colours (ties: higher degree, then larger name)."""
    colour = {}
    while len(colour) < len(adj):
        v = max(
            (v for v in adj if v not in colour),
            key=lambda v: (len({colour[u] for u in adj[v] if u in colour}), len(adj[v]), v),
        )
        used = {colour[u] for u in adj[v] if u in colour}
        colour[v] = min(c for c in range(len(adj)) if c not in used)
    return colour


def _max_clique(adj):
    """A largest clique, by branch and bound over candidate sets."""
    best = []

    def expand(clique, candidates):
        nonlocal best
        if len(clique) > len(best):
            best = clique
        for v in sorted(candidates, key=lambda v: (-len(adj[v] & candidates), v)):
            if len(clique) + len(candidates) <= len(best):
                return
            expand(clique + [v], candidates & adj[v])
            candidates = candidates - {v}

    expand([], set(adj))
    return best


def test_exact_colouring_of_co_occurring_names():
    """Any labeling injective within each tree needs 1 + chi pairs in the
    worst case, chi the chromatic number of the co-occurrence graph of
    non-root names (the root co-occurs with all of them).  A clique and a
    proper colouring of the same size pin chi exactly for n <= 7."""
    chi = {}
    for n in range(2, 8):
        adj = _conflict_graph(n)
        colour = _dsatur(adj)
        assert all(colour[x] != colour[y] for x in adj for y in adj[x])
        clique = _max_clique(adj)
        assert all(y in adj[x] for x in clique for y in clique if x != y)
        assert len(set(colour.values())) == len(clique)
        chi[n] = len(clique)
    assert chi == {2: 1, 3: 2, 4: 3, 5: 5, 6: 7, 7: 11}
    headline = {n: 2 ** ((n - 1 + 1) // 2) for n in chi}
    assert [n for n in chi if 1 + chi[n] > headline[n]] == [3, 5, 7]
    used = {n: verify_identifier_bounds(n).identifiers_used for n in chi}
    assert used == {2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15}
    assert all(1 + chi[n] <= used[n] for n in chi)


# (n, DRTW states, baseline pairs, canonical pairs) of the searched
# fixtures written by search_pair_fixtures.py.
PAIR_INDEX_FIXTURES = [(4, 9, 6, 5), (5, 22, 10, 7), (6, 72, 17, 11)]


@pytest.mark.parametrize("n, states, baseline_pairs, canonical_pairs", PAIR_INDEX_FIXTURES)
def test_searched_pair_index_fixtures(n, states, baseline_pairs, canonical_pairs):
    """Searched automata on which identifier indexing saves pairs, the
    canonical count reaching the identifier count of the capacity-n table."""
    a = parse_nbw((FIXTURE_DIR / f"pair_index_n{n}.hoa").read_text(encoding="utf-8"))
    assert len(a.states) == n
    engine = Determinizer(a, "canonical")
    canonical, baseline, drw = engine.build_drtw(), engine.build_drtw("baseline"), engine.build_drw()
    assert len(canonical.payloads) == states
    assert (len(baseline.acceptance.indices), len(canonical.acceptance.indices)) == (baseline_pairs, canonical_pairs)
    assert canonical_pairs < baseline_pairs
    assert canonical_pairs == verify_identifier_bounds(n).identifiers_used
    for d in (canonical, baseline, drw):
        report = bounded_equiv(a, d, MAX_U, MAX_V)
        assert report.equivalent, report.counterexample


def test_criterion_7_micro_example_exactness():
    started = time.monotonic()
    a = e1()
    committed = (FIXTURE_DIR / "e1.native").read_text(encoding="utf-8")
    assert emit_nbw_native(a) == committed
    assert parse_nbw(committed) == a

    engine = Determinizer(a, "canonical")
    t0 = engine.initial_tree()
    assert t0 == HistoryTree((((), a.mask("p")),), a.states)
    assert t0.render(engine.table) == "ε:{p}(0,1)"
    step = engine.successor_trace(t0, "a")
    t1, ann1 = step.result, relabel(step.marks, engine.table)
    assert t1 == HistoryTree((((), a.mask("pq")), ((1,), a.mask("q"))), a.states)
    assert t1.render(engine.table) == "ε:{p,q}(0,1) 1:{q}(1,1)"
    assert ann1.empty
    step = engine.successor_trace(t1, "a")
    t2, ann2 = step.result, relabel(step.marks, engine.table)
    assert t2 == t1
    assert set(ann2.accepting) == {Identifier(1, 1)} and not ann2.unstable

    drtw = engine.build_drtw()
    assert len(drtw.payloads) == 2
    assert drtw.acceptance.indices == (Identifier(1, 1),)
    assert signature_map(drtw) == {(1, "a"): 0b10}
    assert edge_map(drtw)[(1, "a")][1].accepting == {Identifier(1, 1)}
    drw = engine.build_drw()
    assert len(drw.payloads) == 3

    lasso = LassoWord((), ("a",))
    assert nbw_lasso_member(a, lasso)
    assert det_lasso_member(drtw, lasso)
    assert det_lasso_member(drw, lasso)

    assert emit_rabin(drtw) == (FIXTURE_DIR / "e1_drtw_canonical.hoa").read_text(encoding="utf-8")
    assert emit_rabin(drw) == (FIXTURE_DIR / "e1_drw_canonical.hoa").read_text(encoding="utf-8")
    assert emit_dot(drtw) == (FIXTURE_DIR / "e1_drtw.dot").read_text(encoding="utf-8")
    _report("C7", "walkthrough bit-exact against committed fixtures", started)


def test_criterion_8_format_round_trips(corpus, builds):
    started = time.monotonic()
    for name, a in corpus:
        assert parse_nbw(emit_nbw_native(a)) == a, name
        assert parse_nbw(emit_nbw_hoa(a)) == a, name
    for name, (a, canonical, _baseline, drw) in list(builds.items())[:40]:
        once = emit_rabin(canonical)
        again = emit_rabin(build_drtw(a, "canonical"))
        assert once == again, name
        assert emit_rabin(drw) == emit_rabin(build_drw(a, "canonical")), name
    _report("C8", "native and HOA round trips over the corpus", started)
