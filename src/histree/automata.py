"""Core automaton values: Buchi input, deterministic Rabin output, Rabin
acceptance signatures and lasso words.

All values are valid and immutable once made, and safe to share between
threads: an NBW, a Rabin automaton, a pair set or a lasso word that
breaks its invariants is refused by its constructor with an InputError,
so no consumer checks it again.  Symbols and Buchi states are opaque
strings; states of the deterministic outputs are dense integers indexing
a payload table.  A set of Buchi states is an int mask whose bit i stands
for `NBW.states[i]`; the NBW owns that encoding and its per-symbol
successor rows.  A deterministic Rabin automaton's transitions are int
rows too: per letter, each state's successor, and mark numbers on its
edges or states.  A build has many edges but few distinct marks, so each
mark's annotation and acceptance signature is held once.  A Rabin
condition is the same value wherever its marks sit; the automaton's
class says where: on edges for a DRTW, on states for a DRW.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import ClassVar, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .errors import InputError

Symbol = str
State = str

Transition = Tuple[State, Symbol, State]

# Pair indices are hashable values owned by the caller.
PairIndex = Hashable


@dataclass(frozen=True)
class NBW:
    """A nondeterministic Buchi word automaton over an explicit alphabet.
    It is valid once made: the constructor raises InputError listing every
    problem `validate_nbw` finds, so its states and symbols are distinct
    strings and every transition is a triple that, like every initial and
    final state, names declared states and symbols."""

    states: Tuple[State, ...]
    alphabet: Tuple[Symbol, ...]
    initial: FrozenSet[State]
    transitions: FrozenSet[Transition]
    finals: FrozenSet[State]

    def __post_init__(self):
        problems = validate_nbw(self)
        if problems:
            raise InputError("invalid automaton: " + "; ".join(problems))

    @classmethod
    def make(
        cls,
        states: Iterable[State],
        alphabet: Iterable[Symbol],
        transitions: Iterable[Transition],
        initial: Iterable[State],
        finals: Iterable[State],
    ) -> "NBW":
        """The automaton of these parts.  A transition is a tuple or a list
        of names; any other value, a string among them, or one holding a
        name that cannot be hashed is refused with InputError, as the
        constructor refuses every other problem."""
        # The readers pass plain tuples, which the first try holds as they are.
        triples = list(transitions)
        try:
            held = frozenset(triples)
        except TypeError:  # a list, or a name that cannot be hashed
            held = None
        if held is None or not set(map(type, held)) <= {tuple}:
            # A list or a tuple subclass becomes a plain tuple; any other value is refused.
            triples = [tuple(t) if isinstance(t, (tuple, list)) else t for t in triples]
            problems = _unheld_transitions(triples)
            if problems:
                raise InputError("invalid automaton: " + "; ".join(problems))
            held = frozenset(triples)
        return cls(
            states=tuple(states),
            alphabet=tuple(alphabet),
            initial=frozenset(initial),
            transitions=held,
            finals=frozenset(finals),
        )

    @cached_property
    def index(self) -> Mapping[State, int]:
        """Each state's bit position: bit i stands for states[i]."""
        return {q: i for i, q in enumerate(self.states)}

    def mask(self, states: Iterable[State]) -> int:
        """The mask of a set of state names."""
        out = 0
        for q in states:
            out |= 1 << self.index[q]
        return out

    @cached_property
    def rows(self) -> Mapping[Symbol, Tuple[int, ...]]:
        """Per symbol, the successor mask of each state in state order."""
        rows = {sym: [0] * len(self.states) for sym in self.alphabet}
        for src, sym, dst in self.transitions:
            rows[sym][self.index[src]] |= 1 << self.index[dst]
        return {sym: tuple(row) for sym, row in rows.items()}

    @cached_property
    def initial_mask(self) -> int:
        return self.mask(self.initial)

    @cached_property
    def final_mask(self) -> int:
        return self.mask(self.finals)


def image(mask: int, rows: Sequence[int]) -> int:
    """The union of the rows of the set bits of `mask`: with an NBW's rows
    for a symbol, the successors of a set of states."""
    out = 0
    while mask:
        low = mask & -mask  # the lowest set bit
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def bits(mask: int) -> List[int]:
    """The positions of the set bits of `mask`, ascending: for an NBW's
    encoding, the indices of a set's states in state order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _unheld_transitions(transitions: Sequence[object]) -> List[str]:
    """Why `NBW.make` cannot hold these transitions in a set: the ones that
    are not tuples, and the names that cannot be hashed."""
    problems: List[str] = []
    for t in transitions:
        if type(t) is not tuple:
            problems.append(f"transition {t!r}: not a (source, symbol, target) triple")
            continue
        for name in t:
            try:
                hash(name)
            except TypeError:
                problems.append(f"transition ({','.join(map(str, t))}): name {name!r} is not a string")
    return problems


def validate_nbw(a: NBW) -> List[str]:
    """Every invariant violation with its location; empty means valid."""
    problems: List[str] = []
    states = set(a.states)
    alphabet = set(a.alphabet)
    if len(states) != len(a.states):
        problems.append("duplicate state ids in state list")
    if len(alphabet) != len(a.alphabet):
        problems.append("duplicate symbols in alphabet")
    if any(not s for s in a.alphabet):
        problems.append("empty symbol token in alphabet")
    problems.extend(f"state {q!r} is not a string" for q in a.states if not isinstance(q, str))
    problems.extend(f"symbol {s!r} is not a string" for s in a.alphabet if not isinstance(s, str))
    # Names of any type are listed in the order of their texts, which sort.
    for t in sorted(a.transitions, key=lambda t: tuple(map(str, t))):
        where = f"transition ({','.join(map(str, t))})"
        if len(t) != 3:
            problems.append(f"{where}: not a (source, symbol, target) triple")
            continue
        src, sym, dst = t
        if src not in states:
            problems.append(f"{where}: source state {src} not declared")
        if dst not in states:
            problems.append(f"{where}: target state {dst} not declared")
        if sym not in alphabet:
            problems.append(f"{where}: symbol {sym} not in alphabet")
    for q in sorted(a.initial - states, key=str):
        problems.append(f"initial state {q} not declared")
    for q in sorted(a.finals - states, key=str):
        problems.append(f"final state {q} not declared")
    return problems


@dataclass(frozen=True)
class RabinPairSet:
    """A Rabin condition.  Pair i has index `indices[i]`.
    `signatures[m]` holds the acceptance sets of whatever carries mark
    number m, as an int: bit 2i is set when it is in pair i's rejecting
    (Fin) set, bit 2i+1 when it is in pair i's accepting (Inf) set.  The
    condition does not say what carries a mark; the automaton holding it
    does (`_Rabin.acceptance_kind`), so one value serves a DRTW and a DRW
    alike."""

    indices: Tuple[PairIndex, ...]
    signatures: Tuple[int, ...]

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise InputError("duplicate Rabin pair indices")
        sets = 2 * len(self.indices)
        if any(not 0 <= signature < 1 << sets for signature in set(self.signatures)):
            raise InputError(f"acceptance set out of range for {len(self.indices)} pairs (sets below {sets})")


def rabin_accepts(signature: int) -> bool:
    """Whether a loop whose targets' signatures OR to `signature` satisfies
    some pair: the pair's Inf bit is set and its Fin bit is clear."""
    while signature > 0:
        if signature & 3 == 2:
            return True
        signature >>= 2
    return False


@dataclass(frozen=True)
class LassoWord:
    """The ultimately periodic word prefix . period^omega."""

    prefix: Tuple[Symbol, ...]
    period: Tuple[Symbol, ...]

    def __post_init__(self):
        if not self.period:
            raise InputError("lasso period must be non-empty")

    def __str__(self) -> str:
        u = "".join(self.prefix) or "ε"
        return f"{u}({''.join(self.period)})^ω"


@dataclass(frozen=True)
class TransitionAnnotation:
    """Per-transition marks: indices recorded as accepting and as unstable,
    plus the indices that survived the step stably (present before the
    rewrite and not displaced by it).  A pair's witness must stay stably
    present, so its rejecting set collects every transition whose stable
    set misses the index; a vanished or freshly renamed-in node does not
    count as a witness."""

    accepting: FrozenSet[PairIndex] = frozenset()
    unstable: FrozenSet[PairIndex] = frozenset()
    stable: FrozenSet[PairIndex] = frozenset()

    @property
    def empty(self) -> bool:
        return not self.accepting and not self.unstable


EMPTY_ANNOTATION = TransitionAnnotation()


@dataclass(frozen=True)
class BuildStats:
    """Construction census exposed by the determinization builders."""

    mode: str
    strict_marks: bool
    states: int
    transitions: int
    pairs: int
    max_tree_nodes: int
    off_table_intermediate_names: int

    def to_text(self) -> str:
        return (
            f"mode={self.mode}\n"
            f"strict_marks={int(self.strict_marks)}\n"
            f"states={self.states}\n"
            f"transitions={self.transitions}\n"
            f"pairs={self.pairs}\n"
            f"max_tree_nodes={self.max_tree_nodes}\n"
            f"off_table_intermediate_names={self.off_table_intermediate_names}\n"
        )


@dataclass(frozen=True)
class _Rabin:
    """A deterministic Rabin automaton.  States are dense integers;
    `payloads[i]` carries the tree behind state i.  `targets[j][i]` is
    state i's successor on `alphabet[j]`, so the transition function is
    total and every edge targets a state.  Marks are numbers:
    `annotations[m]` holds mark m's node marks and
    `acceptance.signatures[m]` its acceptance sets.  A DRTW has a mark row
    per letter, `marks[j][i]` marking state i's edge on letter j; a DRW has
    one row, `marks[0][i]` marking state i, its incoming mark.  Each
    subclass names where its marks sit in `acceptance_kind`, the one
    owner of that fact: the writers, the oracle and the DOT view ask the
    automaton, not its pair set.  A DRTW never equals a DRW because
    dataclass equality compares classes."""

    payloads: Tuple[object, ...]
    alphabet: Tuple[Symbol, ...]
    initial: int
    targets: Tuple[Tuple[int, ...], ...]
    marks: Tuple[Tuple[int, ...], ...]
    annotations: Tuple[TransitionAnnotation, ...]
    acceptance: RabinPairSet
    stats: BuildStats = field(compare=False, default=None)
    table: object = field(compare=False, default=None)  # identifiers shown in state labels

    acceptance_kind: ClassVar[str]

    def __post_init__(self):
        n = len(self.payloads)
        if not 0 <= self.initial < n:
            raise InputError(f"initial state {self.initial} out of range")
        on_edges = self.acceptance_kind == "transition"
        _check_rows("target", self.targets, self.alphabet, n, n)
        _check_rows("mark", self.marks, self.alphabet if on_edges else ("incoming",), n, len(self.annotations))
        if len(self.acceptance.signatures) != len(self.annotations):
            raise InputError(f"{len(self.acceptance.signatures)} acceptance signatures "
                             f"for {len(self.annotations)} marks")

    def state_labels(self) -> Iterator[str]:
        """Every state as HOA names and DOT labels show it, in state order
        and one at a time, so no list of every label is held: a tree
        payload rendered with the identifier table, on a DRW followed by
        its incoming marks ` [+{accepting} -{unstable}]`, and any other
        payload as plain text.  The trees share one memo of label texts,
        so each distinct label is rendered once per call, and each mark's
        text is rendered once per mark number."""
        texts: Dict[int, str] = {}
        incoming = repeat("")
        if self.acceptance_kind == "state":
            suffixes = [" [+{%s} -{%s}]" % tuple(",".join(map(str, sorted(s))) for s in (ann.accepting, ann.unstable))
                        for ann in self.annotations]
            incoming = map(suffixes.__getitem__, self.marks[0])
        for payload, marks in zip(self.payloads, incoming):
            yield payload.render(self.table, texts) + marks if hasattr(payload, "render") else str(payload)


def _check_rows(what: str, rows, names: Sequence[str], n: int, bound: int) -> None:
    """Refuse unless `rows` holds one row per name (a letter, or the DRW's
    one mark row), each with one entry per state, every entry in
    range(bound)."""
    if len(rows) != len(names):
        raise InputError(f"{len(rows)} {what} rows, expected {len(names)}")
    for row, name in zip(rows, names):
        if len(row) != n:
            raise InputError(f"{what} row {name!r} has {len(row)} entries for {n} states")
        low, high = min(row), max(row)
        if low < 0 or high >= bound:
            bad = low if low < 0 else high
            raise InputError(f"transition on {name!r} targets state {bad}, out of range" if what == "target"
                             else f"mark number {bad} in row {name!r}, out of range for {bound} marks")


class DRTW(_Rabin):
    """Deterministic Rabin automaton with acceptance on transitions."""

    acceptance_kind = "transition"


class DRW(_Rabin):
    """Deterministic Rabin automaton with acceptance on states.  A built
    DRW's payloads are the engine's trees, one state per tree and incoming
    mark, and `marks[0]` holds that mark."""

    acceptance_kind = "state"
