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
sibling gaps).  A node whose children covered it is recorded as accepting
for that transition; a node displaced by compression is recorded as
unstable.  Only the labels depend on the letter: the spawned names (each
node and its fresh youngest child, one past its last child), their
preorder and their parents depend on the tree's shape, its name tuple,
alone.  The kernel therefore steps a tree on every letter at once, and
the engine keeps one `_Skeleton` per shape: the spawned names sorted,
which is preorder because a fresh child sorts right after its parent's
subtree, their parents and packed sibling indices, each entry's own
position and its fresh child's, the fresh names of height >= n and the
node count.  Reachable trees share few shapes (Michel m=5 has 2,163
trees of 6 shapes), so that work is done once per shape and a tree's
step is label arithmetic only.  Labels are state masks in the automaton's
encoding; a packed label gives letter j a lane of n+1 bits, the state
mask in its n low bits and a guard bit on top that a label never sets.
Adding a fill of n ones per lane carries into exactly the guard bits of
the nonempty lanes, so `(x + fill) & guards` tests every lane of x for
emptiness at once, and "children's union equals the label" is that test
on their XOR.  Node sets are guard-bit masks: lane j's guard bit is set
when the node is in the set on letter j.  The engine packs the lanes
once: the letter index, each state's successor rows packed across the
letters, the final, ones, fill and guard masks, and each letter's shift
and guard bit.

Spawn reads one packed `image` per node, over per-state successor rows
packed across the letters, from the engine's memo keyed by label mask;
dedup, the nonempty test, collapse and prune are bitwise passes over
the skeleton's positions (a parent precedes its subtree, and older
siblings precede younger ones), run once per tree.  So are the new
sibling indices of compression, as a per-lane count of surviving older
siblings, and stability: a survivor is stable when its count gives back
its own index and its parent is stable.  The phases end by decoding
every lane: its survivors renamed and split into stable and unstable,
which gives the result tree and the marks.  `Determinizer` keeps the
phases of the tree it stepped last.  The exploration reads every lane of
a tree's one step, and `successor_trace` is the per-letter view: it picks
its letter's lane as a `StepTrace`, the step's outputs, its letter,
result tree and marks.  `classify`, the gap-rule definition of
stability, stays the reference that `check_history_tree` applies;
`tests/test_kernel.py` holds the five-phase step, one letter at a time
on dicts, as the specification, and decodes the intermediate phases
there.

Most steps reach a tree or a mark set the engine has seen before, so the
engine interns both.  A `HistoryTree` is packed: its shape, the sorted
name tuple, and its labels tuple.  The engine keeps one record per
shape, which holds the shape's one name tuple, shared by all of the
engine's trees of that shape, its trees keyed by labels tuple, and its
skeleton; and one `TransitionAnnotation` per distinct (accepting,
unstable, stable) name tuple.  A step that reaches a known value builds
no new tree or frozenset.  The decode pass gathers each lane's result
as a name list and a label list and interns it through its shape's
record, and interns its marks, so a lane holds the engine's values,
which the exploration numbers and `successor_trace` returns.  Interned
trees are known sound; any other tree is checked with
`check_history_tree` before its first step, so a malformed tree raises
InputError instead of a wrong successor.  Past the step every table is
keyed on ints: the exploration numbers its trees and marks in discovery
order, and its edges are sliced into per-letter rows of target and mark
numbers.  Pair assembly computes one acceptance signature per mark
number.

The exploration's product is the baseline DRTW: the reachable tree graph,
built once per engine, with its Rabin pairs indexed by node names.  It
only discovers trees and edges, and keeps each distinct skeleton once,
read off each tree's step: the census (the largest tree, and the
transient off-table names, which are the fresh children of height >= n)
is read off those skeletons.  The other builds are translations of it.
The canonical DRTW relabels its marks through the (height, flag)
identifier table, which merges names that can never share a tree and so
lowers the number of pairs: each distinct mark is relabeled once and
equal relabeled marks get one number, while the trees and target rows
are the baseline's own.  A DRW is a DRTW split by incoming mark: its
states are the start state and then the distinct DRTW edge targets (a
tree with its incoming mark, keyed by one int) in edge order, with no
second walk; a state's payload is the engine's tree.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from itertools import chain
from typing import Collection, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .automata import (
    DRTW,
    DRW,
    BuildStats,
    NBW,
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
    height,
    is_prefix_closed,
    name_str,
)

# Imported but not called here, kept because the benchmark's traced run
# wraps it by this module's name.
from .trees import compress

MODES = ("baseline", "canonical")

DEFAULT_MAX_STATES = 100_000


class HistoryTree:
    """Immutable labeled tree payload; the empty tree is the rejecting sink.

    A tree is two tuples: `shape`, its names sorted, and `labels`, each
    name's label in that order, a mask over `states`, the automaton's state
    tuple, which only rendering reads.  `entries` pairs them as (name,
    label) tuples.  Equality and hashing take the shape and the labels, not
    `states`.  The engine's trees of one shape share one `shape` tuple (see
    `Determinizer`), so a tree of k nodes costs its own object and a
    k-tuple of small ints.
    """

    __slots__ = ("shape", "labels", "states")

    shape: Tuple[NodeName, ...]
    labels: Tuple[int, ...]
    states: Tuple[str, ...]

    def __init__(self, entries: Iterable[Tuple[NodeName, int]], states: Tuple[str, ...] = ()):
        entries = tuple(entries)
        _set_shape(self, tuple(name for name, _ in entries))
        _set_labels(self, tuple(label for _, label in entries))
        _set_states(self, states)

    @classmethod
    def _packed(cls, shape: Tuple[NodeName, ...], labels: Tuple[int, ...], states: Tuple[str, ...]) -> "HistoryTree":
        """The tree of these tuples, which it keeps as they are."""
        tree = _new(cls)
        _set_shape(tree, shape)
        _set_labels(tree, labels)
        _set_states(tree, states)
        return tree

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: a HistoryTree is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: a HistoryTree is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.labels == other.labels and self.shape == other.shape

    def __hash__(self) -> int:
        return hash((self.shape, self.labels))

    def __repr__(self) -> str:
        return f"HistoryTree(entries={self.entries!r})"

    def __reduce__(self):
        return HistoryTree, (self.entries, self.states)

    @property
    def entries(self) -> Tuple[Tuple[NodeName, int], ...]:
        return tuple(zip(self.shape, self.labels))

    @property
    def names(self) -> FrozenSet[NodeName]:
        return frozenset(self.shape)

    @property
    def is_sink(self) -> bool:
        return not self.shape

    @property
    def node_count(self) -> int:
        return len(self.shape)

    def label_text(self, label: int) -> str:
        """A label as its state names, sorted as strings, in braces."""
        return "{" + ",".join(sorted(q for i, q in enumerate(self.states) if label >> i & 1)) + "}"

    def render(self, table: Optional[IdentifierTable] = None, texts: Optional[Dict] = None) -> str:
        """Stable one-line rendering used for state names and DOT labels;
        with a table, each node also shows its identifier.  `texts` is a
        memo for trees over the same states and table: it keeps each
        distinct entry's text, and on a miss each distinct label's text
        (keyed by mask) and name's text with its identifier (keyed by
        name), so each is rendered once."""
        if not self.shape:
            return "sink"
        if texts is None:
            texts = {}
        parts = []
        for entry in zip(self.shape, self.labels):
            text = texts.get(entry)
            if text is None:
                name, label = entry
                label_text = texts.get(label)
                if label_text is None:
                    label_text = texts[label] = self.label_text(label)
                name_text = texts.get(name)
                if name_text is None:
                    name_text = texts[name] = (name_str(name), "" if table is None else f"{table.lookup(name)}")
                text = texts[entry] = f"{name_text[0]}:{label_text}{name_text[1]}"
            parts.append(text)
        return " ".join(parts)


# The slots' own setters, which `HistoryTree.__setattr__` refuses to be.
_new = object.__new__
_set_shape = HistoryTree.shape.__set__
_set_labels = HistoryTree.labels.__set__
_set_states = HistoryTree.states.__set__


# A step's name-indexed marks as sorted name tuples: (accepting, unstable,
# stable).  Survivors are decoded in preorder, which is sorted name order,
# so equal mark sets give equal tuples.
_MarkNames = Tuple[Tuple[NodeName, ...], Tuple[NodeName, ...], Tuple[NodeName, ...]]


class _Skeleton:
    """What a step of a tree depends on by the tree's shape (its name
    tuple) alone, whatever its labels and the letter.  Position p is the
    p-th spawned name, `names[p]`: the tree's own names and each one's
    fresh youngest child, one past its last child, in sorted order.  Sorted
    names are preorder (a parent precedes its subtree, older siblings
    precede younger ones), and a fresh child sorts right after its
    parent's subtree.  Entry i of the tree sits at position `slots[i]` and
    its fresh child at `fresh[i]`.  `below` holds every position but the
    root's, in preorder, as (position, parent position, name, sibling
    index packed into every lane); in a sound tree a spawned name's index
    is at most n, so it fits a lane.  `off_table` holds the fresh names of
    height >= n, the only spawned names outside the identifier table, and
    `node_count` the tree's size."""

    __slots__ = ("names", "slots", "fresh", "below", "off_table", "node_count")

    def __init__(self, names: Tuple[NodeName, ...], engine: "Determinizer"):
        degrees: Dict[NodeName, int] = {}
        for name in names:
            if name:
                degrees[name[:-1]] = name[-1]  # sorted names: the last child seen is the youngest
        children = [name + (degrees.get(name, 0) + 1,) for name in names]
        self.names = spawned = sorted(names + tuple(children))
        position = {name: p for p, name in enumerate(spawned)}
        self.slots = [position[name] for name in names]
        self.fresh = [position[child] for child in children]
        ones = engine._ones
        self.below = [(p, position[name[:-1]], name, name[-1] * ones) for p, name in enumerate(spawned) if name]
        self.off_table = frozenset(child for child in children if height(child) >= engine.n)
        self.node_count = len(names)


class _Shape:
    """The engine's record of one tree shape: `names`, the name tuple that
    every engine tree of the shape holds as its `shape`, `trees`, those
    trees keyed by their labels tuple, and `skeleton`, the shape's step
    work."""

    __slots__ = ("names", "trees", "skeleton")

    def __init__(self, names: Tuple[NodeName, ...], engine: "Determinizer"):
        self.names = names
        self.trees: Dict[Tuple[int, ...], HistoryTree] = {}
        self.skeleton = _Skeleton(names, engine)

    def tree(self, labels: Tuple[int, ...], states: Tuple[str, ...]) -> HistoryTree:
        """The record's one tree with these labels, added when new."""
        tree = self.trees.get(labels)
        if tree is None:
            tree = self.trees[labels] = HistoryTree._packed(self.names, labels, states)
        return tree


class _Phases:
    """One tree's step on every letter at once, over its shape's skeleton:
    spawn, dedup, collapse and prune as bitwise passes over packed labels,
    then each letter's lane decoded.  Position p of each pass's list is the
    skeleton's p-th spawned name; labels are packed across the engine's
    lanes, and node sets are guard-bit masks (the guard bit of lane j set
    when the node is in the set on letter j).  Only the outputs are kept:
    `lanes` holds per letter the result tree and the name-indexed marks,
    both the engine's interned values."""

    __slots__ = ("tree", "skeleton", "lanes")

    def __init__(self, tree: HistoryTree, skeleton: _Skeleton, labels: Sequence[int], engine: "Determinizer"):
        self.tree = tree
        self.skeleton = skeleton
        strict_marks, rows, final, fill, guards, n = (
            engine.strict_marks, engine._rows, engine._final, engine._fill, engine._guards, engine.n)
        names = skeleton.names
        size = len(names)
        # Spawn: every node advances its label on every letter, and its
        # fresh youngest child holds the final states among the successors.
        # The engine keeps each label's packed image.
        images = engine._images
        deduped = [0] * size
        for label, slot, child in zip(labels, skeleton.slots, skeleton.fresh):
            advanced = images.get(label)
            if advanced is None:
                advanced = images[label] = image(label, rows)
            deduped[slot] = advanced
            deduped[child] = advanced & final

        # Dedup, in place: a state an older sibling held before dedup leaves
        # every younger sibling's subtree, lane by lane.  Preorder reads each
        # position's spawned label before overwriting it.  The root keeps its
        # label.
        poison = [0] * size
        kids = [0] * size  # union of the children's deduped labels
        for p, q, _, _ in skeleton.below:
            inherited = poison[p] = poison[q]
            label = deduped[p]
            poison[q] = inherited | label
            deduped[p] = label = label & ~inherited
            kids[q] |= label

        # Per lane: drop empty nodes, keep a node when its parent survives
        # uncovered, and collapse the survivors whose children's labels add
        # up to their own.  Compression gives a survivor the sibling index
        # one past its surviving older siblings; it is stable when that
        # index is its own and its parent is stable.  The root survives
        # stably on its nonempty lanes.  `survivors` holds, in preorder,
        # every node that survives on some letter: (position, pruned,
        # stable, accepting, unstable mark, name, packed label, parent
        # position, packed new sibling index).
        through = [0] * size  # lanes where the node survives uncovered
        stable = [0] * size
        count = [0] * size  # per parent: its surviving children so far
        survivors = []
        if size:
            label = deduped[0]
            live = stable[0] = (label + fill) & guards
            cover = live & ~((kids[0] ^ label) + fill)
            through[0] = live ^ cover
            if live:
                survivors.append((0, live, live, cover, 0, ROOT, label, -1, 0))
        for p, q, name, index in skeleton.below:
            label = deduped[p]
            live = (label + fill) & through[q]
            if not live:
                continue
            # Surviving siblings have disjoint nonempty labels, so a lane
            # counts at most n of them.
            rank = count[q] = count[q] + (live >> n)
            kept = live & stable[q] & ~((rank ^ index) + fill)
            cover = live & ~((kids[p] ^ label) + fill)
            through[p] = live ^ cover
            stable[p] = kept
            minus = live & ~kept & ~cover if strict_marks else live & ~kept
            survivors.append((p, live, kept, cover, minus, name, label, q, rank))

        # Decode each lane: rename its survivors and split them into stable
        # and unstable, which gives the result tree's names and labels and
        # the marks, each looked up in the engine's interned values and
        # added when new.  A result keeps its shape record's name tuple, so
        # the renamed names live only as long as the lookup.
        shapes, annotations, states = engine._shapes, engine._marks, engine.nbw.states
        self.lanes = decoded = []
        mask = (1 << n) - 1  # a lane's label; also fits its sibling counts, at most n
        for shift, guard in engine._lane_bits:
            result_names: List[NodeName] = []
            result_labels: List[int] = []
            stable_names: List[NodeName] = []
            plus: List[NodeName] = []
            minus_names: List[NodeName] = []
            renamed: Dict[int, NodeName] = {}
            for p, live, kept, accepting, unstable, name, label, q, rank in survivors:
                if not live & guard:
                    continue
                if kept & guard:
                    stable_names.append(name)
                    if accepting & guard:
                        plus.append(name)
                else:
                    if unstable & guard:
                        minus_names.append(name)
                    # The root is always stable, so an unstable node has a parent.
                    name = renamed[p] = renamed.get(q, names[q]) + (rank >> shift & mask,)
                result_names.append(name)
                result_labels.append(label >> shift & mask)
            shape = tuple(result_names)
            record = shapes.get(shape)
            if record is None:
                record = engine._shape(shape)
            result = record.tree(tuple(result_labels), states)
            marked = (tuple(plus), tuple(minus_names), tuple(stable_names))
            marks = annotations.get(marked)
            if marks is None:
                marks = annotations[marked] = TransitionAnnotation(*map(frozenset, marked))
            decoded.append((result, marks))


class StepTrace(NamedTuple):
    """One successor step of a tree on a letter: the letter, the result
    tree and the marks, indexed by node name, all the step's outputs.  Two
    traces are equal when their fields are."""

    symbol: Symbol
    result: HistoryTree
    marks: TransitionAnnotation


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
    labeling of the builds; each labeling's DRTW is built once per engine,
    the canonical one from the baseline one.  The engine packs the letters
    into lanes once, beside its one state count `n`.  `_step` steps a tree
    on every letter at once; the exploration reads every lane of that step,
    and `successor_trace` one.  The engine keeps the packed phases of the
    tree it stepped last, matched by identity, so stepping one tree on each
    letter in turn computes them once, and each label's packed image,
    keyed by mask.  It interns its values: one `_Shape` record per tree
    shape, keyed by name tuple, which holds the shape's trees by labels
    tuple, each sharing the record's name tuple, and the shape's
    `_Skeleton`, so trees of one shape share their label-free work; and
    one `TransitionAnnotation` per distinct mark set.  A step that reaches
    a known tree or mark set builds no new one.  A tree it did not produce
    is checked once before its first step."""

    def __init__(
        self,
        nbw: NBW,
        mode: str = "canonical",
        strict_marks: bool = False,
        max_states: int = DEFAULT_MAX_STATES,
    ):
        _check_mode(mode)
        if max_states < 1:
            raise InputError(f"state limit must be at least 1 (got {max_states})")
        self.nbw = nbw
        self.mode = mode
        self.strict_marks = strict_marks
        self.max_states = max_states
        self.n = n = len(nbw.states)
        # The lanes: letter j owns bits j*(n+1) .. j*(n+1) + n - 1 of a packed
        # label, and bit j*(n+1) + n is its guard bit, always clear in a label,
        # so `(x + _fill) & _guards` marks the nonempty lanes of x.
        shifts = [j * (n + 1) for j in range(len(nbw.alphabet))]
        self._index = {symbol: j for j, symbol in enumerate(nbw.alphabet)}  # letter -> lane
        # Per state, its successor rows packed across the letters.
        self._rows = tuple(sum(nbw.rows[symbol][i] << shift for symbol, shift in zip(nbw.alphabet, shifts))
                           for i in range(n))
        self._ones = ones = sum(1 << shift for shift in shifts)  # bit 0 of every lane
        self._final = nbw.final_mask * ones  # the final states in every lane
        self._fill = ((1 << n) - 1) * ones  # each lane's n low bits
        self._guards = ones << n
        # Per letter, its lane's shift and guard bit, which the decode pass reads.
        self._lane_bits = tuple((shift, 1 << (shift + n)) for shift in shifts)
        self._last_phases: Optional[_Phases] = None
        # One record per tree shape, keyed by its name tuple, which holds
        # every tree of that shape known sound; and every mark set met.
        self._shapes: Dict[Tuple[NodeName, ...], _Shape] = {}
        self._marks: Dict[_MarkNames, TransitionAnnotation] = {}
        # Each label stepped, by mask, and its successors packed across the letters.
        self._images: Dict[int, int] = {}

    @cached_property
    def table(self) -> IdentifierTable:
        return IdentifierTable(max(self.n, 1))

    def _shape(self, names: Tuple[NodeName, ...]) -> _Shape:
        """The engine's one record of the trees with these names."""
        record = self._shapes.get(names)
        if record is None:
            record = self._shapes[names] = _Shape(names, self)
        return record

    def initial_tree(self) -> HistoryTree:
        start = self.nbw.initial_mask
        shape, labels = ((ROOT,), (start,)) if start else ((), ())
        return self._shape(shape).tree(labels, self.nbw.states)

    def _step(self, tree: HistoryTree) -> _Phases:
        """The step of `tree` on every letter at once: its phases, one lane
        per letter, kept as the engine's `_last_phases` and reused while
        the same tree is stepped again.  The step reads the tree's labels
        and the skeleton of its shape's record.  A tree the engine has not
        met is checked first, and an unsound one raises InputError listing
        its problems; a sound one becomes known, in its shape's record,
        with the record's name tuple."""
        phases = self._last_phases
        if phases is None or phases.tree is not tree:
            labels = tree.labels
            record = self._shapes.get(tree.shape)
            if record is None or labels not in record.trees:
                problems = check_history_tree(tree, self.nbw)
                if problems:
                    raise InputError("not a history tree of this automaton: " + "; ".join(problems))
                record = self._shape(tree.shape)
                record.tree(labels, self.nbw.states)
            phases = self._last_phases = _Phases(tree, record.skeleton, labels, self)
        return phases

    def successor_trace(self, tree: HistoryTree, symbol: Symbol) -> StepTrace:
        """One step of `tree` on `symbol`: the result and marks of its
        letter's lane of the tree's step (`_step`), the per-letter view of
        that step.  An unknown letter, or a tree the engine has not met
        that is unsound, raises InputError."""
        lane = self._index.get(symbol)
        if lane is None:
            raise InputError(f"symbol {symbol!r} not in alphabet")
        return StepTrace(symbol, *self._step(tree).lanes[lane])

    # -- automaton construction --------------------------------------------

    @cached_property
    def _baseline(self) -> DRTW:
        """The baseline DRTW, whose pair indices are node names: the
        reachable tree graph, explored breadth-first once per engine.
        Deterministic numbering: discovery order with the alphabet in
        declared order, for trees and marks alike.  Each tree is stepped
        once, on every letter (`_step`), and the exploration reads every
        lane of that step in letter order.  The engine interns its trees
        and marks, so the exploration indexes both by identity, and its
        edges, found in (tree id, letter) order, are sliced into one target
        and one mark row per letter.  Each tree's skeleton is read off its
        step, and the census walks each distinct skeleton once; a step over
        no letter has no lanes and still has a skeleton.  Past the state limit
        it raises CapacityError with baseline statistics of the trees met
        so far."""
        start = self.initial_tree()
        trees = [start]
        shapes: Dict[_Skeleton, None] = {}  # each skeleton met, in first-met order
        index = {id(start): 0}  # id of an engine tree -> its number
        targets: List[int] = []
        marks: List[int] = []
        annotations: List[TransitionAnnotation] = []
        numbers: Dict[int, int] = {}  # id of an engine annotation -> its number
        step, strict = self._step, self.strict_marks
        for tree in trees:
            phases = step(tree)
            for result, mark in phases.lanes:
                tid = index.get(id(result))
                if tid is None:
                    if len(trees) >= self.max_states:
                        # The census covers the trees stepped so far, this one included.
                        shapes[phases.skeleton] = None
                        partial = BuildStats("baseline", strict, len(trees), len(targets), 0, *self._census(shapes))
                        raise CapacityError(f"state limit {self.max_states} exceeded", partial=partial)
                    tid = index[id(result)] = len(trees)
                    trees.append(result)
                mid = numbers.get(id(mark))
                if mid is None:
                    mid = numbers[id(mark)] = len(annotations)
                    annotations.append(mark)
                targets.append(tid)
                marks.append(mid)
            shapes[phases.skeleton] = None
        alphabet = self.nbw.alphabet
        k = len(alphabet)
        acceptance = assemble_pairs(annotations, strict_marks=strict)
        stats = BuildStats("baseline", strict, len(trees), len(targets), len(acceptance.indices), *self._census(shapes))
        return DRTW(tuple(trees), alphabet, 0, tuple(tuple(targets[j::k]) for j in range(k)),
                    tuple(tuple(marks[j::k]) for j in range(k)), tuple(annotations), acceptance, stats)

    def _census(self, shapes: Collection[_Skeleton]) -> Tuple[int, int]:
        """The largest tree and the number of off-table names among the
        trees of these distinct skeletons.  A tree's own names have height
        below n, so only fresh children are off-table, and trees of one
        shape spawn the same fresh children.  Only steps spawn names, so no
        letter means none."""
        off_table = set().union(*(shape.off_table for shape in shapes)) if self.nbw.alphabet else ()
        return max(shape.node_count for shape in shapes), len(off_table)

    @cached_property
    def _canonical(self) -> DRTW:
        """The baseline DRTW with its pair indices relabeled through the
        (height, flag) identifier table, which merges names that can never
        share a tree and so lowers the number of pairs.  Each baseline mark
        is relabeled once, and relabeled marks that are equal get one
        number and one annotation, in first-seen order.  The states, trees
        and target rows are the baseline's own."""
        table = self.table
        d = self._baseline
        numbers: Dict[TransitionAnnotation, int] = {}
        renumber = [numbers.setdefault(relabel(marks, table), len(numbers)) for marks in d.annotations]
        marks = tuple(tuple(map(renumber.__getitem__, row)) for row in d.marks)
        annotations = tuple(numbers)
        acceptance = assemble_pairs(annotations, strict_marks=self.strict_marks)
        stats = replace(d.stats, mode="canonical", pairs=len(acceptance.indices))
        return DRTW(d.payloads, d.alphabet, 0, d.targets, marks, annotations, acceptance, stats, table)

    def build_drtw(self, mode: Optional[str] = None) -> DRTW:
        """The engine's DRTW with pairs indexed as `mode` (default: the
        engine's): `_baseline` by node names, `_canonical` by the
        identifier table.  Each is built once per engine, so a repeated
        call returns the same automaton.  A graph past the state limit
        raises CapacityError with this build's partial statistics."""
        mode = mode or self.mode
        _check_mode(mode)
        try:
            return self._canonical if mode == "canonical" else self._baseline
        except CapacityError as error:
            error.partial = replace(error.partial, mode=mode)
            raise

    def build_drw(self, mode: Optional[str] = None) -> DRW:
        """The DRTW of `mode` with each state split by the mark of the edge
        that entered it, read off the DRTW's rows alone.  The DRTW's marks
        keep their numbers.  A DRW state is a tree id and a mark number,
        keyed by the int tid * count + mid over `count` marks, whose edge
        on a letter is its tree's edge on that letter, so the states are
        the start state and then the distinct edge targets in edge order
        (tree id, then letter): breadth-first order, with no successor
        computed.  A state's payload is its tree and its one mark is the
        one that entered it."""
        d = self.build_drtw(mode)
        # Nodes of the initial tree count as stably present at time zero,
        # so re-entering the same tree through a quiet transition merges
        # with the start state.  Its key is its mark number, as its tree id is 0.
        numbers = dict(zip(d.annotations, range(len(d.annotations))))
        start = numbers.setdefault(relabel(TransitionAnnotation(stable=d.payloads[0].names), d.table), len(numbers))
        count = len(numbers)
        keys = [[tid * count + mid for tid, mid in zip(targets, marks)] for targets, marks in zip(d.targets, d.marks)]
        index = dict.fromkeys([start, *chain.from_iterable(zip(*keys))])  # key -> DRW state number
        if len(index) > self.max_states:
            partial = replace(d.stats, states=self.max_states, transitions=0, pairs=0)
            raise CapacityError(f"state limit {self.max_states} exceeded", partial=partial)
        states = list(index)
        index.update(zip(states, range(len(states))))
        tids = [key // count for key in states]
        entered = [list(map(index.__getitem__, row)) for row in keys]  # per letter, each tree's edge's DRW state
        targets = tuple(tuple(map(row.__getitem__, tids)) for row in entered)
        marks = (tuple([key % count for key in states]),)
        annotations = tuple(numbers)
        acceptance = assemble_pairs(annotations, strict_marks=self.strict_marks)
        stats = replace(d.stats, states=len(states), transitions=len(states) * len(d.alphabet))
        payloads = tuple(map(d.payloads.__getitem__, tids))
        return DRW(payloads, d.alphabet, 0, targets, marks, annotations, acceptance, stats, d.table)


# -- pair assembly ----------------------------------------------------------


def assemble_pairs(annotations: Sequence[TransitionAnnotation], *, strict_marks: bool = False) -> RabinPairSet:
    """The Rabin condition whose mark m carries `annotations[m]`: one pair
    per index that some mark marks accepting, and each mark's signature.
    A mark is an edge's own annotation on a DRTW and a state's incoming
    annotation on a DRW; the rule is the same, and the automaton that
    holds the condition says which.

    A pair's accepting set holds the marks that are accepting at that
    index.  Its rejecting set holds the marks that are unstable there
    and, unless strict_marks, every mark through which no stable node
    carries the index: a node that vanished, or re-entered the tree only
    by renaming, cannot witness progress.
    """
    indices = tuple(sorted({idx for ann in annotations for idx in ann.accepting}))
    signatures = []
    for ann in annotations:
        signature = 0
        for i, idx in enumerate(indices):
            if idx in ann.accepting:
                signature |= 2 << 2 * i
            # Strict marks reject only where idx is unstable; otherwise every
            # mark but those stably carrying idx without marking it unstable.
            if idx in ann.unstable or (not strict_marks and idx not in ann.stable):
                signature |= 1 << 2 * i
        signatures.append(signature)
    return RabinPairSet(indices, tuple(signatures))


# A second name for the same function, kept because the benchmark's traced
# run wraps it by this name.
assemble_state_pairs = assemble_pairs


# -- validation --------------------------------------------------------------


def check_history_tree(tree: HistoryTree, nbw: NBW, table: Optional[IdentifierTable] = None) -> List[str]:
    """Every violated tree invariant, empty when the payload is sound.
    With a table, the tree's identifiers must also be distinct."""
    problems: List[str] = []
    names = tree.names
    n = len(nbw.states)
    order = [name for name, _ in tree.entries]
    if any(first >= second for first, second in zip(order, order[1:])):
        problems.append("entries not in strictly increasing name order")
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
