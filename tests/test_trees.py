from functools import lru_cache
from itertools import combinations, product
from math import ceil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histree.automata import NBW
from histree.determinize import Determinizer
from histree.errors import CapacityError, InputError
from histree.oracle import enumerate_history_trees, verify_identifier_bounds
from histree.trees import (
    Identifier,
    IdentifierTable,
    ROOT,
    can_co_occur,
    chain,
    classify,
    closed_chain,
    compress,
    full_tree,
    height,
    is_order_closed,
    name_str,
    parse_name,
    precedes,
)

names = st.lists(st.integers(min_value=1, max_value=4), max_size=5).map(tuple)


def test_height_examples():
    assert height(()) == 0
    assert height((1, 3)) == 4
    assert height((2, 1, 2)) == 5


def test_precedes_examples():
    assert precedes((), (1,))
    assert precedes((2,), (3,))
    assert not precedes((3,), (3,))
    assert precedes((1, 1), (1, 2))
    assert not precedes((1, 2), (1, 1))


def test_precedes_is_strict_partial_order_on_full_7():
    universe = sorted(full_tree(7))
    rel = {(x, y) for x in universe for y in universe if precedes(x, y)}
    for x in universe:
        assert (x, x) not in rel
    for x, y in rel:
        assert (y, x) not in rel
    for x, y in rel:
        for z in universe:
            if (y, z) in rel:
                assert (x, z) in rel, (x, y, z)


def test_chain_examples():
    assert chain((1, 2)) == {(), (1,), (1, 1)}
    assert chain((3,)) == {(), (1,), (2,)}
    assert chain(ROOT) == frozenset()
    assert closed_chain((3,)) == {(), (1,), (2,), (3,)}


def test_chain_size_equals_height_on_full_10():
    for name in full_tree(10):
        assert len(chain(name)) == height(name)


def test_chain_agrees_with_precedes_over_larger_universe():
    universe = full_tree(8)
    for name in full_tree(7):
        assert chain(name) == {other for other in universe if precedes(other, name)}


@given(names)
def test_chain_size_equals_height_random(name):
    assert len(chain(name)) == height(name)
    assert name not in chain(name)


def test_classify_examples():
    all_stable = classify({(), (1,), (1, 1), (2,)})
    assert not all_stable.imbalanced and not all_stable.unstable
    assert is_order_closed({(), (1,), (1, 1), (2,)})

    gap = classify({(), (2,)})
    assert gap.imbalanced == {(2,)}
    assert not is_order_closed({(), (2,)})

    three = classify({(), (1,), (3,), (3, 1)})
    assert three.imbalanced == {(3,)}
    assert three.unstable == {(3,), (3, 1)}
    assert three.stable == {(), (1,)}


def test_compress_examples():
    assert compress({(), (1,), (3,), (3, 1)}) == {
        (): (),
        (1,): (1,),
        (3,): (2,),
        (3, 1): (2, 1),
    }
    closed = {(), (1,), (1, 1), (2,)}
    assert compress(closed) == {n: n for n in closed}
    assert compress({(), (2,), (2, 2)}) == {(): (), (2,): (1,), (2, 2): (1, 1)}


def test_compress_counts_repeated_names_once():
    tree = [(), (1,), (3,), (3, 1), (3, 3)]
    repeated = tree + [(3,), (1,), (), (3, 3)]
    assert compress(repeated) == compress(set(tree)) == compress(reversed(repeated))
    assert compress(repeated)[(3, 3)] == (2, 2)


def test_compress_preserves_lexicographic_order():
    for tree in _shapes(6):
        mapping = compress(tree)
        assert [mapping[n] for n in sorted(tree)] == sorted(mapping.values()), tree


@lru_cache(maxsize=None)
def _shapes(size, max_comp=4):
    """Prefix-closed trees with `size` nodes and sibling indices up to
    max_comp, as tuples of names; gaps allowed."""
    if size == 1:
        return (((),),)
    out = []
    for picks in range(1, min(max_comp, size - 1) + 1):
        for indices in combinations(range(1, max_comp + 1), picks):
            for sizes in _compositions(size - 1, picks):
                for kids in product(*(_shapes(s, max_comp) for s in sizes)):
                    tree = [()]
                    for idx, kid in zip(indices, kids):
                        tree.extend((idx,) + n for n in kid)
                    out.append(tuple(tree))
    return tuple(out)


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(1, total - parts + 2)
        for rest in _compositions(total - first, parts - 1)
    ]


def _iter_prefix_closed(max_nodes=8, max_comp=4):
    # Memoized shapes up to 7 nodes; the top size is assembled lazily so
    # the half-million 8-node trees are never stored at once.
    for size in range(1, max_nodes):
        yield from _shapes(size, max_comp)
    size = max_nodes
    for picks in range(1, min(max_comp, size - 1) + 1):
        for indices in combinations(range(1, max_comp + 1), picks):
            for sizes in _compositions(size - 1, picks):
                for kids in product(*(_shapes(s, max_comp) for s in sizes)):
                    tree = [()]
                    for idx, kid in zip(indices, kids):
                        tree.extend((idx,) + n for n in kid)
                    yield tuple(tree)


def test_compress_renames_exactly_the_unstable_nodes_exhaustively():
    """Over every prefix-closed tree with <= 8 nodes and components <= 4:
    renamed = unstable, order-closed iff no imbalanced node, and the
    compressed image is order-closed."""
    seen = 0
    for tree in _iter_prefix_closed():
        tree_set = frozenset(tree)
        parts = classify(tree_set)
        mapping = compress(tree_set)
        renamed = {n for n, m in mapping.items() if n != m}
        assert renamed == parts.unstable, tree_set
        assert is_order_closed(tree_set) == (not parts.imbalanced)
        image = frozenset(mapping.values())
        assert len(image) == len(tree_set)
        assert is_order_closed(image), tree_set
        seen += 1
    assert seen > 400_000


def test_can_co_occur_examples():
    assert not can_co_occur((1, 3), (4,), 7)
    assert can_co_occur((1,), (2,), 3)
    for name in sorted(full_tree(6)):
        assert can_co_occur(name, name, 8) == (height(name) + 1 <= 8)


def test_full_tree_small_and_census():
    assert full_tree(1) == {()}
    assert full_tree(2) == {(), (1,)}
    assert full_tree(3) == {(), (1,), (1, 1), (2,)}
    assert len(full_tree(7)) == 64
    for n in range(1, 13):
        assert len(full_tree(n)) == 2 ** (n - 1)


def test_full_tree_grows_by_one_rightmost_child_per_node():
    for n in range(2, 13):
        prev = full_tree(n - 1)
        grown = set(prev)
        for name in prev:
            deg = sum(1 for other in prev if other[:-1] == name and len(other) == len(name) + 1)
            grown.add(name + (deg + 1,))
        assert frozenset(grown) == full_tree(n)


def test_full_tree_leaf_conditions():
    for n in range(1, 9):
        tree = full_tree(n)
        for name in tree:
            kids = sorted(k for k in tree if k[:-1] == name and len(k) == len(name) + 1)
            if not kids:
                continue
            rightmost = kids[-1]
            assert len(closed_chain(rightmost)) == n
            assert not any(k[: len(rightmost)] == rightmost for k in tree if k != rightmost)
            for kid in kids[:-1]:
                assert any(k[: len(kid)] == kid for k in tree if k != kid), kid


def test_every_small_order_closed_tree_sits_inside_full_tree():
    for n in range(1, 7):
        full = full_tree(n)
        for size in range(1, n + 1):
            for tree in _shapes(size, max_comp=n):
                tree_set = frozenset(tree)
                if is_order_closed(tree_set):
                    assert tree_set <= full, (n, tree_set)


def test_full_tree_rejects_bad_n():
    with pytest.raises(InputError):
        full_tree(0)


@pytest.mark.parametrize("build, message", [
    (IdentifierTable, "identifier table requires n >= 1"),
    (enumerate_history_trees, "census requires n >= 1"),
    (verify_identifier_bounds, "identifier bound check requires n >= 1"),
], ids=["IdentifierTable", "enumerate_history_trees", "verify_identifier_bounds"])
def test_capacity_zero_is_refused(build, message):
    with pytest.raises(InputError) as err:
        build(0)
    assert (type(err.value), str(err.value)) == (InputError, message)


# -- identifier tables ---------------------------------------------------------


def leaf_walk_spine_order(n):
    """Spine order by its definition, kept as a test oracle: the leaves of
    full_tree(n) left to right, each contributing the not-yet-seen part of
    its closed chain, ordered by height."""
    leaves = sorted(name for name in full_tree(n) if height(name) == n - 1)
    order = []
    seen = set()
    for leaf in leaves:
        spine = sorted(closed_chain(leaf) - seen, key=height)
        order.extend(spine)
        seen.update(spine)
    return order


class GreedyReferenceTable:
    """The eager greedy table the closed form in IdentifierTable replaces,
    kept as a test oracle.  Every name of full_tree(n) is assigned in spine
    order, taking the smallest flag not held by an earlier same-height name
    whose closed chain fits with its own in n nodes; lookups of other names
    extend the table by the same rule."""

    def __init__(self, n):
        self.n = n
        self.assigned = {}
        self.by_height = {}  # height -> [(closed chain, flag)]
        for name in leaf_walk_spine_order(n):
            self.lookup(name)

    def lookup(self, name):
        got = self.assigned.get(name)
        if got is None:
            h = height(name)
            cc = closed_chain(name)
            taken = {
                flag for other_cc, flag in self.by_height.get(h, ()) if len(other_cc | cc) <= self.n
            }
            flag = 1
            while flag in taken:
                flag += 1
            got = self.assigned[name] = (h, flag)
            self.by_height.setdefault(h, []).append((cc, flag))
        return got


def test_closed_form_matches_greedy_reference():
    """Identical identifiers for every name of full_tree(n), n = 1..12, and
    for off-table names up to height n + 2 (all of them up to n = 9; beyond
    that the reference's quadratic scan limits them to <= 3 components)."""
    for n in range(1, 13):
        reference = GreedyReferenceTable(n)
        table = IdentifierTable(n)
        for name in full_tree(n):
            assert table.lookup(name) == reference.lookup(name), (n, name)
        for h in range(n, n + 3):
            for parts in range(1, h + 1 if n <= 9 else 4):
                for name in _compositions(h, parts):
                    assert table.lookup(name) == reference.lookup(name), (n, name)


def test_identifier_bounds_reports_unchanged_up_to_12():
    """verify_identifier_bounds(n).to_text() for n = 1..12, as the eager
    greedy table produced it."""
    golden = Path(__file__).parent / "fixtures" / "identifier_bounds_1_12.txt"
    got = "".join(verify_identifier_bounds(n).to_text() for n in range(1, 13))
    assert got == golden.read_text(encoding="utf-8")


def test_flag_counts_are_tight():
    """The paper's bounds are met with equality: min(2**(h-1), 2**(n-h-1))
    flags at each height h and 2**(ceil((n-1)/2)-1) flags in all."""
    for n in range(2, 13):
        table = IdentifierTable(n)
        by_height = table.flags_by_height()
        for h in range(1, n):
            assert len(by_height[h]) == min(2 ** (h - 1), 2 ** (n - h - 1)), (n, h)
        assert len(table.flags_used()) == 2 ** (ceil((n - 1) / 2) - 1), n


def test_canonical_build_at_16_states_looks_up_only_reached_names():
    """A 16-state cycle with one final state and one chord: the canonical
    build assigns identifiers only to the names it meets, where an eager
    2**15-name table would take minutes, and it has the baseline's shape."""
    n = 16
    states = tuple(f"q{i}" for i in range(n))
    transitions = [(f"q{i}", "a", f"q{(i + 1) % n}") for i in range(n)] + [("q0", "a", "q2")]
    nbw = NBW.make(states, ("a",), transitions, ("q0",), ("q0",))
    canonical = Determinizer(nbw, "canonical")
    drtw = canonical.build_drtw()
    baseline = Determinizer(nbw, "baseline").build_drtw()
    assert len(canonical.table._assigned) < 100
    assert drtw.stats.max_tree_nodes == 15
    assert (drtw.stats.states, drtw.stats.transitions) == (baseline.stats.states, baseline.stats.transitions)


def test_root_identifier_is_0_1_for_all_n():
    for n in range(1, 11):
        assert IdentifierTable(n).lookup(()) == (0, 1)


def test_shared_identifier_of_incompatible_names():
    table = IdentifierTable(7)
    left = table.lookup((1, 3))
    right = table.lookup((4,))
    assert left == right
    assert left.height == 4


def test_identifier_heights_forced():
    table = IdentifierTable(3)
    assert table.lookup((1, 1)).height == 2


def test_table_n7_flag_counts():
    table = IdentifierTable(7)
    assert len(table.flags_used()) <= 4
    assert len(table.flags_by_height()[3]) <= 4


def test_table_soundness_exhaustive():
    """Same-height names that can share a tree always get distinct flags,
    for every capacity up to 10; the height component always matches."""
    for n in range(1, 11):
        table = IdentifierTable(n)
        by_height = {}
        for name in full_tree(n):
            assert table.lookup(name).height == height(name)
            assert table.lookup(name).flag >= 1
            by_height.setdefault(height(name), []).append(name)
        for h, bucket in by_height.items():
            for x, y in combinations(bucket, 2):
                if can_co_occur(x, y, n):
                    assert table.lookup(x).flag != table.lookup(y).flag, (n, x, y)


def test_flags_per_height_bound():
    for n in range(2, 11):
        by_height = IdentifierTable(n).flags_by_height()
        for h in range(1, n):
            budget = min(2 ** (h - 1), 2 ** (n - h - 1))
            assert len(by_height.get(h, ())) <= budget, (n, h)


def test_lazy_extension_only_reaches_height_n():
    table = IdentifierTable(4)
    before = dict(table._assigned)
    ident = table.lookup((4,))
    assert ident == (4, 1)
    assert table.lookup((1, 1, 2)) == (4, 1)
    assert table.lookup((2, 1, 1)) == (4, 1)
    for name, value in before.items():
        assert table.lookup(name) == value


def test_table_is_deterministic():
    first = IdentifierTable(6)
    second = IdentifierTable(6)
    assert first.spine_order == second.spine_order
    assert first.dump_text() == second.dump_text()


def test_table_dump_n4_golden():
    expected = (
        "ε\t0\t1\n"
        "1\t1\t1\n"
        "1.1\t2\t1\n"
        "1.1.1\t3\t1\n"
        "1.2\t3\t1\n"
        "2\t2\t2\n"
        "2.1\t3\t1\n"
        "3\t3\t1\n"
    )
    assert IdentifierTable(4).dump_text() == expected


def test_spine_order_is_the_leaf_walk():
    """The one sort by first spine, then height, lists the names exactly
    as the leaf-by-leaf walk does."""
    for n in range(1, 16):
        assert IdentifierTable(n).spine_order == leaf_walk_spine_order(n), n


def test_spine_order_covers_full_tree_once():
    for n in range(1, 9):
        table = IdentifierTable(n)
        assert len(table.spine_order) == len(set(table.spine_order))
        assert set(table.spine_order) == set(full_tree(n))


def test_name_round_trip():
    for name in sorted(full_tree(6)):
        assert parse_name(name_str(name)) == name
    with pytest.raises(InputError):
        parse_name("1.0")
    with pytest.raises(InputError):
        parse_name("x.y")


@settings(max_examples=200)
@given(names, names)
def test_precedes_antisymmetric_random(x, y):
    if precedes(x, y):
        assert not precedes(y, x)
        assert x != y


def test_whole_table_views_are_capped_but_lookup_is_not():
    table = IdentifierTable(64)
    assert table.lookup((1, 1, 1)) == Identifier(3, 1)
    with pytest.raises(CapacityError):
        table.dump_text()
    with pytest.raises(CapacityError):
        table.flags_used()
