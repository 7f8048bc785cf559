"""Core automaton values: Buchi input, deterministic Rabin output, Rabin
pair evaluation and lasso words.

All values are immutable after construction and safe to share between
threads.  Symbols and Buchi states are opaque strings; states of the
deterministic outputs are dense integers indexing a payload table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Tuple

from .errors import InputError

Symbol = str
State = str

Transition = Tuple[State, Symbol, State]

# Mark targets: (state id, symbol) for transition acceptance, state id for
# state acceptance.  Pair indices are hashable values owned by the caller.
PairIndex = Hashable
EdgeTarget = Tuple[int, Symbol]


@dataclass(frozen=True)
class NBW:
    """A nondeterministic Buchi word automaton over an explicit alphabet."""

    states: Tuple[State, ...]
    alphabet: Tuple[Symbol, ...]
    initial: FrozenSet[State]
    transitions: FrozenSet[Transition]
    finals: FrozenSet[State]

    @classmethod
    def make(
        cls,
        states: Iterable[State],
        alphabet: Iterable[Symbol],
        transitions: Iterable[Transition],
        initial: Iterable[State],
        finals: Iterable[State],
    ) -> "NBW":
        return cls(
            states=tuple(states),
            alphabet=tuple(alphabet),
            initial=frozenset(initial),
            transitions=frozenset(tuple(t) for t in transitions),
            finals=frozenset(finals),
        )

    @cached_property
    def _post(self) -> Mapping[Tuple[State, Symbol], FrozenSet[State]]:
        table: Dict[Tuple[State, Symbol], set] = {}
        for src, sym, dst in self.transitions:
            table.setdefault((src, sym), set()).add(dst)
        return {key: frozenset(val) for key, val in table.items()}

    def post(self, state: State, symbol: Symbol) -> FrozenSet[State]:
        return self._post.get((state, symbol), frozenset())


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
    for src, sym, dst in sorted(a.transitions):
        if src not in states:
            problems.append(f"transition ({src},{sym},{dst}): source state {src} not declared")
        if dst not in states:
            problems.append(f"transition ({src},{sym},{dst}): target state {dst} not declared")
        if sym not in alphabet:
            problems.append(f"transition ({src},{sym},{dst}): symbol {sym} not in alphabet")
    for q in sorted(a.initial - states):
        problems.append(f"initial state {q} not declared")
    for q in sorted(a.finals - states):
        problems.append(f"final state {q} not declared")
    return problems


def post_set(a: NBW, sources: Iterable[State], symbol: Symbol) -> FrozenSet[State]:
    """All states reachable from `sources` by one `symbol` transition."""
    sources = frozenset(sources)
    if symbol not in a.alphabet:
        raise InputError(f"symbol {symbol!r} not in alphabet")
    unknown = sources - set(a.states)
    if unknown:
        raise InputError(f"unknown states: {sorted(unknown)}")
    out: set = set()
    for q in sources:
        out |= a.post(q, symbol)
    return frozenset(out)


@dataclass(frozen=True)
class RabinPair:
    index: PairIndex
    accepting: FrozenSet  # visit infinitely often
    rejecting: FrozenSet  # visit only finitely often


@dataclass(frozen=True)
class RabinPairSet:
    """An indexed family of Rabin pairs over transitions or states."""

    kind: str  # "transition" | "state"
    pairs: Tuple[RabinPair, ...]

    def __post_init__(self):
        if self.kind not in ("transition", "state"):
            raise InputError(f"bad acceptance kind {self.kind!r}")
        indices = [p.index for p in self.pairs]
        if len(set(indices)) != len(indices):
            raise InputError("duplicate Rabin pair indices")


def _check_targets(kind: str, targets: Iterable) -> None:
    for t in targets:
        if kind == "transition":
            ok = isinstance(t, tuple) and len(t) == 2 and isinstance(t[0], int)
        else:
            ok = isinstance(t, int)
        if not ok:
            raise InputError(f"mark target {t!r} does not match acceptance kind {kind!r}")


def rabin_loop_accepts(acc: RabinPairSet, inf_set: Iterable) -> bool:
    """Whether a loop with infinity set `inf_set` satisfies some pair:
    the pair's accepting set is hit and its rejecting set is avoided."""
    inf = frozenset(inf_set)
    _check_targets(acc.kind, inf)
    return any(p.accepting & inf and not (p.rejecting & inf) for p in acc.pairs)


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

Edge = Tuple[int, TransitionAnnotation]  # (target state, annotation)


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
class DRTW:
    """Deterministic Rabin automaton with acceptance on transitions.

    States are dense integers; `payloads[i]` carries the tree behind state
    i.  The transition map is total over states x alphabet.
    """

    payloads: Tuple[object, ...]
    alphabet: Tuple[Symbol, ...]
    initial: int
    transitions: Mapping[Tuple[int, Symbol], Edge]
    acceptance: RabinPairSet
    stats: BuildStats = field(compare=False, default=None)
    table: object = field(compare=False, default=None)  # identifiers shown in state labels

    def __post_init__(self):
        _check_total(self)
        if self.acceptance.kind != "transition":
            raise InputError("DRTW acceptance must be transition based")


@dataclass(frozen=True)
class DRW:
    """Deterministic Rabin automaton with acceptance on states; payloads
    are trees enriched with the incoming transition's marks."""

    payloads: Tuple[object, ...]
    alphabet: Tuple[Symbol, ...]
    initial: int
    transitions: Mapping[Tuple[int, Symbol], Edge]
    acceptance: RabinPairSet
    stats: BuildStats = field(compare=False, default=None)
    table: object = field(compare=False, default=None)  # identifiers shown in state labels

    def __post_init__(self):
        _check_total(self)
        if self.acceptance.kind != "state":
            raise InputError("DRW acceptance must be state based")


def _check_total(d) -> None:
    n = len(d.payloads)
    if not 0 <= d.initial < n:
        raise InputError(f"initial state {d.initial} out of range")
    for i in range(n):
        for sym in d.alphabet:
            if (i, sym) not in d.transitions:
                raise InputError(f"transition map not total: missing ({i},{sym})")
