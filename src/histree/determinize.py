"""Determinization of Buchi automata through trees of state sets.

Each deterministic state is a labeled ordered tree: the root label tracks
the full subset-construction state set, and a child records the runs that
passed a final state while its parent label was live.  Labels obey three
properties: they are non-empty, labels of sibling subtrees are disjoint,
and every label strictly contains the union of its children's labels.
Those properties bound the tree at one node per automaton state.

Reading a symbol rewrites the tree in five phases (spawn a fresh youngest
child per node, strip states already owned by older siblings, drop empty
nodes, collapse subtrees whose children cover their parent, and compress
sibling gaps).  The fresh children's names depend on the tree alone, not
on the letter, so the tree owns them (`HistoryTree.fresh`).  Labels are
state masks in the automaton's encoding: spawn advances each through the
NBW's successor rows with `image`, and the later phases are single passes
over the node names in sorted order, which is preorder (a parent precedes
its subtree, and older siblings precede younger ones).  A node whose
children covered it is recorded as accepting for that transition; a node
displaced by compression is recorded as unstable.  Compression renames
exactly the unstable nodes and keeps sorted order, so the kernel reads the
stable/unstable split and the sorted result tree off its one renaming;
`classify`, the gap-rule definition of stability, stays the reference that
`check_history_tree` and the tests apply.  The marks name nodes, and one
exploration of the tree graph serves every build.  The exploration only
discovers trees and edges: each build's census (the largest tree, and the
transient off-table names, which are the fresh children of height >= n)
is read off the reachable trees, and both builds end in one tail that
assembles the automaton.  The DRW's states are the start state and then
the distinct DRTW edge targets (a tree with its incoming marks) in edge
order, with no second walk.  A baseline build indexes its Rabin pairs by
those names.  A canonical build is the same build with its pair indices
relabeled through the (height, flag) identifier table, which merges names
that can never share a tree and so lowers the number of pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

from .automata import (
    DRTW,
    DRW,
    BuildStats,
    Edge,
    NBW,
    PairIndex,
    RabinPair,
    RabinPairSet,
    Symbol,
    TransitionAnnotation,
    image,
)
from .errors import CapacityError, InputError
from .trees import (
    IdentifierTable,
    NodeName,
    ROOT,
    classify,
    compress,
    height,
    is_prefix_closed,
    name_str,
)

MODES = ("baseline", "canonical")

DEFAULT_MAX_STATES = 100_000


@dataclass(frozen=True)
class HistoryTree:
    """Immutable labeled tree payload; the empty tree is the rejecting sink.

    `entries` holds (name, label) pairs sorted by name, each label a mask
    over `states`, the automaton's state tuple, which only rendering reads.
    """

    entries: Tuple[Tuple[NodeName, int], ...]
    states: Tuple[str, ...] = field(default=(), compare=False, repr=False)

    @cached_property
    def names(self) -> FrozenSet[NodeName]:
        return frozenset(n for n, _ in self.entries)

    @cached_property
    def fresh(self) -> Tuple[NodeName, ...]:
        """Each node's fresh youngest child, in entry order: the name one
        past its last child.  Every step spawns these, whatever the letter.
        Sorted names are preorder, so the last child seen is the youngest."""
        degrees: Dict[NodeName, int] = {}
        for name, _ in self.entries:
            if name:
                degrees[name[:-1]] = name[-1]
        return tuple(name + (degrees.get(name, 0) + 1,) for name, _ in self.entries)

    @property
    def is_sink(self) -> bool:
        return not self.entries

    @property
    def node_count(self) -> int:
        return len(self.entries)

    def label_text(self, label: int) -> str:
        """A label as its state names, sorted as strings, in braces."""
        return "{" + ",".join(sorted(q for i, q in enumerate(self.states) if label >> i & 1)) + "}"

    def render(self, table: Optional[IdentifierTable] = None) -> str:
        """Stable one-line rendering used for state names and DOT labels;
        with a table, each node also shows its identifier."""
        if self.is_sink:
            return "sink"
        parts = []
        for name, label in self.entries:
            text = f"{name_str(name)}:{self.label_text(label)}"
            if table is not None:
                text += f"{table.lookup(name)}"
            parts.append(text)
        return " ".join(parts)


@dataclass(frozen=True)
class EnrichedHistoryTree:
    """A tree payload plus the marks of the transition that entered it."""

    tree: HistoryTree
    incoming: TransitionAnnotation

    def render(self, table: Optional[IdentifierTable] = None) -> str:
        plus = ",".join(str(i) for i in sorted(self.incoming.accepting))
        minus = ",".join(str(i) for i in sorted(self.incoming.unstable))
        return f"{self.tree.render(table)} [+{{{plus}}} -{{{minus}}}]"


@dataclass(frozen=True)
class StepTrace:
    """Intermediate trees of one successor computation, for inspection.
    `spawned` holds the tree's own names and its `fresh` children."""

    symbol: Symbol
    spawned: Dict[NodeName, int]  # labels are state masks; names in sorted order
    deduped: Dict[NodeName, int]
    nonempty: Dict[NodeName, int]
    pruned: Dict[NodeName, int]
    accepting: FrozenSet[NodeName]
    unstable: FrozenSet[NodeName]
    renaming: Dict[NodeName, NodeName]
    result: HistoryTree
    marks: TransitionAnnotation  # indexed by node name


def relabel(marks: TransitionAnnotation, table: Optional[IdentifierTable]) -> TransitionAnnotation:
    """Re-index name-indexed marks by the identifiers of `table`; without a
    table the names stay the pair indices."""
    if table is None:
        return marks
    lookup = table.lookup
    return TransitionAnnotation(
        frozenset(map(lookup, marks.accepting)),
        frozenset(map(lookup, marks.unstable)),
        frozenset(map(lookup, marks.stable)),
    )


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}; expected one of {MODES}")


class Determinizer:
    """Bundles one input automaton with a mode and mark semantics; all
    methods are pure with respect to trees.  The mode is the default
    labeling of the builds."""

    def __init__(
        self,
        nbw: NBW,
        mode: str = "canonical",
        strict_marks: bool = False,
        max_states: int = DEFAULT_MAX_STATES,
    ):
        _check_mode(mode)
        nbw.require_valid()
        self.nbw = nbw
        self.mode = mode
        self.strict_marks = strict_marks
        self.max_states = max_states
        self.n = len(nbw.states)

    @cached_property
    def table(self) -> IdentifierTable:
        return IdentifierTable(max(self.n, 1))

    def _table_for(self, mode: str) -> Optional[IdentifierTable]:
        """The table that indexes pairs in `mode`; None when node names
        are the indices."""
        _check_mode(mode)
        return self.table if mode == "canonical" else None

    def initial_tree(self) -> HistoryTree:
        start = self.nbw.mask(self.nbw.initial)
        return HistoryTree(((ROOT, start),) if start else (), self.nbw.states)

    def successor_trace(self, tree: HistoryTree, symbol: Symbol) -> StepTrace:
        if symbol not in self.nbw.alphabet:
            raise InputError(f"symbol {symbol!r} not in alphabet")
        rows = self.nbw.rows[symbol]

        # Spawn: every node advances its label by one symbol and gains its
        # fresh youngest child holding the final states among successors.
        advanced = [(name, image(label, rows)) for name, label in tree.entries]
        final = self.nbw.final_mask
        fresh = [(child, label & final) for child, (_, label) in zip(tree.fresh, advanced)]
        spawned = dict(sorted(advanced + fresh))

        # Dedup: a state claimed by an older sibling (pre-dedup label) is
        # removed from every younger sibling's whole subtree.  In preorder a
        # parent precedes its subtree and older siblings precede younger
        # ones, so `poison[parent]` has grown by the older siblings' labels
        # by the time a child is reached.
        deduped: Dict[NodeName, int] = {}
        poison: Dict[NodeName, int] = {}
        for name, label in spawned.items():
            inherited = 0
            if name:
                inherited = poison[name[:-1]]
                poison[name[:-1]] = inherited | label
            poison[name] = inherited
            deduped[name] = label & ~inherited

        # Drop nodes whose label emptied (their subtrees empty with them).
        nonempty = {n: l for n, l in deduped.items() if l}

        # Collapse: a node whose children's labels add up to its own loses
        # the whole subtree below it and counts as accepting.
        kid_union: Dict[NodeName, int] = {}
        for name, label in nonempty.items():
            if name:
                kid_union[name[:-1]] = kid_union.get(name[:-1], 0) | label
        covered = {n for n, union in kid_union.items() if union == nonempty[n]}
        # A node survives when its parent survives uncovered.
        pruned: Dict[NodeName, int] = {}
        for name, label in nonempty.items():
            if not name or (name[:-1] in pruned and name[:-1] not in covered):
                pruned[name] = label
        accepting = frozenset(covered.intersection(pruned))

        # Compress sibling gaps.  The renamed nodes are exactly the unstable
        # ones, and renaming keeps sorted order, so the result is sorted.
        renaming = compress(pruned)
        unstable = frozenset(n for n, m in renaming.items() if n != m)
        stable = frozenset(pruned).difference(unstable)
        result = HistoryTree(tuple((renaming[n], l) for n, l in pruned.items()), self.nbw.states)
        minus = unstable - accepting if self.strict_marks else unstable
        marks = TransitionAnnotation(accepting & stable, minus, stable)
        return StepTrace(
            symbol=symbol,
            spawned=spawned,
            deduped=deduped,
            nonempty=nonempty,
            pruned=pruned,
            accepting=accepting,
            unstable=unstable,
            renaming=renaming,
            result=result,
            marks=marks,
        )

    def successor(self, tree: HistoryTree, symbol: Symbol) -> Tuple[HistoryTree, TransitionAnnotation]:
        """One step with its marks indexed as the engine's Rabin pairs."""
        trace = self.successor_trace(tree, symbol)
        return trace.result, relabel(trace.marks, self._table_for(self.mode))

    # -- automaton construction --------------------------------------------

    @cached_property
    def _graph(self):
        """The reachable tree graph with name-indexed marks, explored
        breadth-first once per engine: (trees, transitions).  Deterministic
        numbering: discovery order with the alphabet in declared order."""
        start = self.initial_tree()
        trees = [start]
        index = {start: 0}
        transitions: Dict[Tuple[int, Symbol], Edge] = {}
        for sid, tree in enumerate(trees):
            for symbol in self.nbw.alphabet:
                trace = self.successor_trace(tree, symbol)
                tid = index.get(trace.result)
                if tid is None:
                    if len(trees) >= self.max_states:
                        # The census covers the trees stepped so far, this one included.
                        partial = self._stats(self.mode, len(trees), len(transitions), 0, trees[: sid + 1])
                        raise CapacityError(f"state limit {self.max_states} exceeded", partial=partial)
                    tid = len(trees)
                    trees.append(trace.result)
                    index[trace.result] = tid
                transitions[(sid, symbol)] = (tid, trace.marks)
        return tuple(trees), transitions

    def _stats(self, mode, states, transitions, pairs, trees) -> BuildStats:
        """A build's census, its tree fields read off `trees`.  A tree's own
        names have height below n, so only fresh children are off-table."""
        off_table = {name for tree in trees for name in tree.fresh if height(name) >= self.n}
        largest = max(tree.node_count for tree in trees)
        return BuildStats(mode, self.strict_marks, states, transitions, pairs,
                          max_tree_nodes=largest, off_table_intermediate_names=len(off_table))

    def _automaton(self, cls, mode, table, payloads, transitions, acceptance):
        """The one tail of both builds: the census and the automaton."""
        stats = self._stats(mode, len(payloads), len(transitions), len(acceptance.pairs), self._graph[0])
        return cls(
            payloads=tuple(payloads),
            alphabet=self.nbw.alphabet,
            initial=0,
            transitions=transitions,
            acceptance=acceptance,
            stats=stats,
            table=table,
        )

    def _relabeled(self, mode: Optional[str]):
        """A build's mode (default: the engine's), the table that indexes
        its pairs (None for node names) and the tree graph's edges with
        their marks relabeled by it.  Equal marks share one relabeled
        annotation, which keeps a canonical build's memory near the
        graph's own."""
        mode = mode or self.mode
        table = self._table_for(mode)
        edges = self._graph[1]
        relabeled = {marks: relabel(marks, table) for marks in {marks for _, marks in edges.values()}}
        return mode, table, {key: (dst, relabeled[marks]) for key, (dst, marks) in edges.items()}

    def build_drtw(self, mode: Optional[str] = None) -> DRTW:
        """The DRTW with pairs indexed as `mode` (default: the engine's)."""
        mode, table, transitions = self._relabeled(mode)
        acceptance = assemble_pairs(transitions, strict_marks=self.strict_marks)
        return self._automaton(DRTW, mode, table, self._graph[0], transitions, acceptance)

    def build_drw(self, mode: Optional[str] = None) -> DRW:
        """Split each tree of the DRTW by the annotation of the edge that
        entered it.  A DRW state is a (tree id, incoming annotation) pair
        whose edge on a symbol is its tree's edge on that symbol, so the
        states are the start state and then the distinct edge targets in
        edge order (tree id, then alphabet): breadth-first order, with no
        successor computed and no second walk."""
        mode, table, tree_edges = self._relabeled(mode)
        trees = self._graph[0]
        # Nodes of the initial tree count as stably present at time zero,
        # so re-entering the same tree through a quiet transition merges
        # with the start state.
        start = (0, relabel(TransitionAnnotation(stable=trees[0].names), table))
        states = list(dict.fromkeys([start, *tree_edges.values()]))
        if len(states) > self.max_states:
            partial = self._stats(mode, self.max_states, 0, 0, trees)
            raise CapacityError(f"state limit {self.max_states} exceeded", partial=partial)
        index = {state: sid for sid, state in enumerate(states)}
        transitions: Dict[Tuple[int, Symbol], Edge] = {}
        for sid, (tree_id, _) in enumerate(states):
            for symbol in self.nbw.alphabet:
                target = tree_edges[(tree_id, symbol)]
                transitions[(sid, symbol)] = (index[target], target[1])
        acceptance = assemble_state_pairs([ann for _, ann in states], strict_marks=self.strict_marks)
        payloads = [EnrichedHistoryTree(trees[t], ann) for t, ann in states]
        return self._automaton(DRW, mode, table, payloads, transitions, acceptance)


# -- pair assembly ----------------------------------------------------------


def _assemble(kind: str, marks: Mapping[Hashable, TransitionAnnotation], strict_marks: bool) -> RabinPairSet:
    """Rabin pairs over the keys of `marks`, one per index that some key
    marks accepting; see assemble_pairs for the rejecting rule."""
    # One pass: per index, the keys marking it accepting, unstable and
    # stably carrying it.
    accepting: Dict[PairIndex, Set[Hashable]] = {}
    unstable: Dict[PairIndex, Set[Hashable]] = {}
    carrying: Dict[PairIndex, Set[Hashable]] = {}
    for key, ann in marks.items():
        for by_index, indices in (
            (accepting, ann.accepting),
            (unstable, ann.unstable),
            (carrying, ann.stable),
        ):
            for idx in indices:
                by_index.setdefault(idx, set()).add(key)
    keys = frozenset(marks)
    pairs = []
    for idx in sorted(accepting):
        rej = unstable.get(idx, set())
        if not strict_marks:
            # Every key but those stably carrying idx without marking it unstable.
            rej = keys - (carrying.get(idx, set()) - rej)
        pairs.append(RabinPair(index=idx, accepting=frozenset(accepting[idx]), rejecting=frozenset(rej)))
    return RabinPairSet(kind=kind, pairs=tuple(pairs))


def assemble_pairs(
    transitions: Mapping[Tuple[int, Symbol], Edge],
    *,
    strict_marks: bool = False,
) -> RabinPairSet:
    """Rabin pairs over transitions: one pair per index that is marked
    accepting on some transition.

    A pair's accepting set holds the transitions marked accepting at that
    index.  Its rejecting set holds the transitions marked unstable there
    and, unless strict_marks, every transition through which no stable
    node carries the index: a node that vanished, or re-entered the tree
    only by renaming, cannot witness progress.
    """
    return _assemble("transition", {key: ann for key, (_, ann) in transitions.items()}, strict_marks)


def assemble_state_pairs(
    incoming: Sequence[TransitionAnnotation],
    *,
    strict_marks: bool = False,
) -> RabinPairSet:
    """State-based variant: marks and stable carriers are read off each
    state's incoming annotation."""
    return _assemble("state", dict(enumerate(incoming)), strict_marks)


# -- validation --------------------------------------------------------------


def check_history_tree(tree: HistoryTree, nbw: NBW, table: Optional[IdentifierTable] = None) -> List[str]:
    """Every violated tree invariant, empty when the payload is sound.
    With a table, the tree's identifiers must also be distinct."""
    problems: List[str] = []
    names = tree.names
    n = len(nbw.states)
    if not is_prefix_closed(names):
        problems.append("name set not prefix closed")
    parts = classify(names)
    if parts.imbalanced:
        problems.append(f"not order closed: imbalanced {sorted(parts.imbalanced)}")
    if len(names) > n:
        problems.append(f"{len(names)} nodes exceeds state count {n}")
    # Per parent, in sibling order: the union of its children's labels and
    # how many children overlap an older sibling.
    kid_union: Dict[NodeName, int] = {}
    overlaps: Dict[NodeName, int] = {}
    for name, label in tree.entries:
        if name:
            seen = kid_union.get(name[:-1], 0)
            overlaps[name[:-1]] = overlaps.get(name[:-1], 0) + bool(label & seen)
            kid_union[name[:-1]] = seen | label
    for name, label in tree.entries:
        if height(name) >= max(n, 1):
            problems.append(f"node {name_str(name)} outside the capacity-{n} full tree")
        if not label:
            problems.append(f"empty label at {name_str(name)}")
        if label >> n:
            problems.append(f"label at {name_str(name)} mentions unknown states")
        problems.extend([f"sibling labels overlap below {name_str(name)}"] * overlaps.get(name, 0))
        union = kid_union.get(name)
        if union is not None and (union | label != label or union == label):
            problems.append(f"children of {name_str(name)} do not form a strict subset")
    if table is not None and len({table.lookup(name) for name in names}) != len(names):
        problems.append("identifiers not injective")
    return problems


# -- spec-level convenience wrappers ----------------------------------------


def build_drtw(
    nbw: NBW,
    mode: str = "canonical",
    *,
    strict_marks: bool = False,
    max_states: int = DEFAULT_MAX_STATES,
) -> DRTW:
    return Determinizer(nbw, mode, strict_marks, max_states).build_drtw()


def build_drw(
    nbw: NBW,
    mode: str = "canonical",
    *,
    strict_marks: bool = False,
    max_states: int = DEFAULT_MAX_STATES,
) -> DRW:
    return Determinizer(nbw, mode, strict_marks, max_states).build_drw()
