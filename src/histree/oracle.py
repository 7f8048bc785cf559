"""Independent brute-force ground truth: lasso-word membership for the
Buchi input and the deterministic Rabin outputs, bounded differential
equivalence, the tree census and identifier bound reports.

Membership for the nondeterministic input works over transition profiles:
for a finite word, a matrix over state pairs whose entries say whether the
word admits no path, a path, or a path through a final state.  A path
counts as visiting a final state when any state after its first is final,
so single-symbol profiles mark final targets and composition never double
counts endpoints.  Profile rows are state masks in the NBW's encoding:
a single-symbol profile is the NBW's successor rows for that symbol, and
composition takes `image`s of rows, the same union the successor kernel
uses to advance a tree label.  A period's accepting states come from one
reflexive-transitive closure of its profile's rows (Warshall's loop).
Periods share profiles, since the NBW's transition monoid is small, so
`_period_masks` walks the distinct profiles: each is extended by each
letter once and closed at most once, and a power v^j takes v's states
unclosed.

`bounded_equiv` scans every lasso up to the bounds, but a lasso's two
verdicts depend only on the NBW states and the deterministic state its
prefix reaches, and on its period.  So the scan walks prefixes one letter
at a time in enumeration order, and evaluates the periods only of the
first prefix to reach each (states, state) pair.  Of those it compares
only the periods that read an omega-word not compared earlier in that
order (Calbrix, Nivat & Podelski): never a power v^j, j >= 2, which reads
as v, and after a prefix u.x never a period v.x, since u.x.(v.x)^omega
is the lasso u.(x.v)^omega with the shorter prefix.  `nbw_lasso_member`
and `det_lasso_member` stay as the per-lasso entry points and share the
scan's period and loop helpers.

What the scan derives from one automaton alone is kept on that automaton
object, as its cached properties are, and goes when it goes; nothing is
kept at module level or keyed by value.  The NBW keeps the table of the
periods the scan compares, each with its letters and accepting states,
for the longest period bound asked of it so far, so the three targets of
one `histree verify` job build it once and a shorter bound reads a prefix
of it.  The walks of the deterministic automaton read its per-letter
target and mark rows and its per-mark signatures in place.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import comb
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from .automata import DRTW, DRW, LassoWord, NBW, Symbol, image, rabin_accepts
from .errors import CapacityError, HistreeError, InputError
from .trees import IdentifierTable, NodeName

NONE, PATH, FINAL = 0, 1, 2

TREE_CAP = 6  # largest n the tree census enumerates
IDENTIFIER_BOUND_CAP = 12
LASSO_CAP = 1_000_000  # most lassos one bounded_equiv call may enumerate
LASSO_LENGTH_CAP = 100  # longest prefix or period one bounded_equiv call may enumerate


class _Images(dict):
    """`image(mask, rows)` by mask, each computed on first use.  Profile
    rows recur across periods, so `_period_masks` keeps one for each
    letter's reach rows and one for its final rows."""

    def __init__(self, rows: Sequence[int]):
        super().__init__()
        self.rows = rows

    def __missing__(self, mask: int) -> int:
        out = self[mask] = image(mask, self.rows)
        return out


class TransitionProfile(NamedTuple):
    """Reachability matrix for one finite word, encoded as bitmask rows:
    bit q of reach[p] means some path p -> q, of final[p] that some such
    path passes a final state (counted at path targets)."""

    reach: Tuple[int, ...]
    final: Tuple[int, ...]

    def entry(self, p: int, q: int) -> int:
        if self.final[p] >> q & 1:
            return FINAL
        if self.reach[p] >> q & 1:
            return PATH
        return NONE

    @staticmethod
    def identity(size: int) -> "TransitionProfile":
        return TransitionProfile(tuple(1 << p for p in range(size)), (0,) * size)

    def compose(self, other: "TransitionProfile") -> "TransitionProfile":
        return self.extend(_Images(other.reach), _Images(other.final))

    def extend(self, to_reach: Dict[int, int], to_final: Dict[int, int]) -> "TransitionProfile":
        """This profile followed by a word's, given as the maps from a row
        to its images under that word's reach and final rows."""
        # final[p] is a subset of reach[p], so to_reach[final[p]] adds
        # exactly the paths that passed a final state before the word.
        return TransitionProfile(
            tuple([to_reach[r] for r in self.reach]),
            tuple([to_final[r] | to_reach[f] for r, f in zip(self.reach, self.final)]),
        )


def symbol_profile(a: NBW, symbol: Symbol) -> TransitionProfile:
    reach = a.rows[symbol]
    return TransitionProfile(reach, tuple(row & a.final_mask for row in reach))


def word_profile(a: NBW, word: Sequence[Symbol]) -> TransitionProfile:
    profile = TransitionProfile.identity(len(a.states))
    for sym in word:
        if sym not in a.alphabet:
            raise InputError(f"symbol {sym!r} not in alphabet")
        profile = profile.compose(symbol_profile(a, sym))
    return profile


def _accepting_states(period_profile: TransitionProfile) -> int:
    """The mask of states from which period^omega has an accepting run:
    those that reach, over zero or more whole periods, a state on a
    period-level cycle passing a final state.

    `star` closes the one-period relation reflexively and transitively by
    Warshall's loop.  Its invariant: after the rounds for states below k,
    bit q of star[p] is set exactly when zero or more whole periods lead
    p -> q with every intermediate boundary state below k.  State q is on
    such a cycle when star leads q -> r, one period passing a final state
    leads r -> s, and star leads s -> q."""
    reach, final = period_profile
    star = [row | 1 << p for p, row in enumerate(reach)]
    for k in range(len(star)):
        row_k, bit = star[k], 1 << k
        star = [row | row_k if row & bit else row for row in star]
    cycles = sum(1 << q for q, row in enumerate(star) if image(image(row, final), star) >> q & 1)
    return sum(1 << p for p, row in enumerate(star) if row & cycles)


def nbw_lasso_member(a: NBW, w: LassoWord) -> bool:
    """Whether some run on prefix . period^omega visits finals infinitely
    often: a state reached on the prefix must accept period^omega."""
    prefix_profile = word_profile(a, w.prefix)
    after_prefix = image(a.initial_mask, prefix_profile.reach)
    return bool(after_prefix & _accepting_states(word_profile(a, w.period)))


def _mark_rows(d: Union[DRTW, DRW]) -> Sequence[Sequence[int]]:
    """Per letter, the mark a loop walk reads on each state's step: the
    edge's on a DRTW.  A DRW marks states, and a step reads the entered
    state's mark; but a closed loop enters the same states it leaves, so
    the OR of a loop's signatures is the same read off the states it
    leaves, and the DRW's one mark row serves every letter, with no copy."""
    return d.marks if d.acceptance_kind == "transition" else d.marks * len(d.alphabet)


def _loop_accepts(d: Union[DRTW, DRW], marks: Sequence[Sequence[int]], state: int, period: Sequence[int]) -> bool:
    """Whether period^omega read from `state` is accepted, over d's target
    rows, its `_mark_rows` and a period of letter indices: iterate the
    period until a period-boundary state repeats, then evaluate the Rabin
    pairs on the OR of the signatures seen inside the detected loop."""
    targets, signatures = d.targets, d.acceptance.signatures
    seen: Dict[int, int] = {state: 0}
    lap_signatures: List[int] = []
    # A row has one entry per state, so a boundary state repeats within that many laps plus one.
    for lap in range(len(targets[0]) + 1):
        signature = 0
        for k in period:
            signature |= signatures[marks[k][state]]
            state = targets[k][state]
        lap_signatures.append(signature)
        if state in seen:
            for earlier in lap_signatures[seen[state]:]:
                signature |= earlier
            return rabin_accepts(signature)
        seen[state] = lap + 1
    raise HistreeError("period boundary failed to repeat within the state count")


def det_lasso_member(d: Union[DRTW, DRW], w: LassoWord) -> bool:
    """Simulate the deterministic automaton on the prefix, then on the
    period until its loop closes."""
    letter = {sym: k for k, sym in enumerate(d.alphabet)}
    for sym in w.prefix + w.period:
        if sym not in letter:
            raise InputError(f"symbol {sym!r} not in alphabet")
    state = d.initial
    for sym in w.prefix:
        state = d.targets[letter[sym]][state]
    return _loop_accepts(d, _mark_rows(d), state, [letter[sym] for sym in w.period])


@dataclass(frozen=True)
class Counterexample:
    prefix: Tuple[Symbol, ...]
    period: Tuple[Symbol, ...]
    nbw_accepts: bool
    det_accepts: bool


@dataclass(frozen=True)
class EquivReport:
    """Outcome of a bounded differential scan.  `tested` counts the lassos
    covered in enumeration order; `evaluated` counts the lassos of each
    (states, state) pair's first prefix, the rest reusing the verdicts of
    an earlier prefix.  It counts every period of such a prefix, also
    those the scan skips because they re-read an earlier lasso's
    omega-word (see `bounded_equiv`)."""

    tested: int
    counterexample: Optional[Counterexample]
    seconds: float
    evaluated: int = field(default=0, compare=False)

    @property
    def equivalent(self) -> bool:
        return self.counterexample is None

    def to_text(self) -> str:
        lines = [f"tested={self.tested}", f"seconds={self.seconds:.3f}"]
        if self.counterexample is None:
            lines.append("counterexample=none")
        else:
            c = self.counterexample
            lines.append(
                "counterexample="
                f"u:{','.join(c.prefix) or '-'};v:{','.join(c.period)};"
                f"nbw:{int(c.nbw_accepts)};det:{int(c.det_accepts)}"
            )
        return "\n".join(lines) + "\n"


def _periods(alphabet: Sequence[Symbol], max_v: int):
    """Every period of length 1..max_v, shortest first, then in declared
    alphabet order."""
    for v_len in range(1, max_v + 1):
        yield from product(alphabet, repeat=v_len)


def lassos_upto(alphabet: Sequence[Symbol], max_u: int, max_v: int):
    """All lassos with prefix length <= max_u and period length 1..max_v,
    shortest first, symbols in declared alphabet order."""
    for u_len in range(max_u + 1):
        for prefix in product(alphabet, repeat=u_len):
            for period in _periods(alphabet, max_v):
                yield LassoWord(prefix, period)


def lasso_count(letters: int, max_u: int, max_v: int) -> int:
    """How many lassos lassos_upto yields over `letters` symbols:
    (sum of letters**u for u <= max_u) * (sum of letters**v for 1 <= v <= max_v).
    Exact up to 2**64; any larger count comes out as at least 2**64."""

    def powers(lo: int, hi: int) -> int:
        if letters == 1:
            return max(hi - lo + 1, 0)
        # Past e = 64 a term is 0, or alone exceeds 2**64.
        return sum(letters**e for e in range(lo, min(hi, 64) + 1))

    return powers(0, max_u) * powers(1, max_v)


def _power_roots(width: int, max_v: int) -> List[int]:
    """For each period in `_periods` order over `width` letters, the index
    of its primitive root: its own, unless it is a power v^j, j >= 2.  In
    bijective base `width`, rank(v^j) = rank(v^(j-1)) * width^|v| + rank(v)
    (see `_shortlex_rank`), so the powers of each primitive v are marked
    from its index alone, before the walk reaches them."""
    roots = list(range(lasso_count(width, 0, max_v)))
    first = 0  # the index of the first period of length d
    for d in range(1, max_v // 2 + 1):
        block = width**d
        for i in range(first, first + block):
            if roots[i] == i:
                rank = power = i + 1
                for _ in range(2, max_v // d + 1):
                    power = power * block + rank
                    roots[power - 1] = i
        first += block
    return roots


def _period_masks(a: NBW, max_v: int, roots: Sequence[int]) -> Tuple[int, ...]:
    """`_accepting_states` of every period, in `_periods` order, from a
    walk over the NBW's distinct transition profiles; `roots` is
    `_power_roots` over the NBW's letters and `max_v`.  The walk goes one
    period length at a time, which is `_periods` order.  A profile gets an
    id when first met, and each (id, letter) is extended once, through the
    `_Images` that letter keeps for the whole walk.  A period that is no
    power is closed through its profile's id, so each distinct profile is
    closed at most once.  A power v^j is extended, for its extensions, but
    takes v's mask, since (v^j)^omega is v^omega."""
    images = [(_Images(p.reach), _Images(p.final)) for p in (symbol_profile(a, sym) for sym in a.alphabet)]
    profiles = [TransitionProfile.identity(len(a.states))]
    ids = {profiles[0]: 0}
    successors: List[Optional[List[int]]] = [None]  # per id, its extensions' ids by letter
    closed: Dict[int, int] = {}  # per closed id, its mask
    masks: List[int] = []

    def extend(pid: int) -> List[int]:
        row = successors[pid] = []
        for letter in images:
            profile = profiles[pid].extend(*letter)
            row.append(ids.setdefault(profile, len(profiles)))
            if row[-1] == len(profiles):
                profiles.append(profile)
                successors.append(None)
        return row

    level = [0]
    for _ in range(max_v):
        level = [nid for pid in level for nid in successors[pid] or extend(pid)]
        for pid in level:
            root = roots[len(masks)]
            if root < len(masks):  # a power: its root's mask
                masks.append(masks[root])
            else:
                if pid not in closed:
                    closed[pid] = _accepting_states(profiles[pid])
                masks.append(closed[pid])
    return tuple(masks)


_COMPARED_PERIODS = "_oracle_compared_periods"  # the instance dict key that keeps them

ComparedPeriod = Tuple[int, Tuple[int, ...], int]  # index, letter indices, accepting-state mask


def _compared_periods(a: NBW, max_v: int) -> Sequence[ComparedPeriod]:
    """The periods `bounded_equiv` compares, every one that is no power,
    in `_periods` order: (index, letter indices, `_period_masks` entry).
    The table is computed once per automaton object for the longest bound
    asked so far and kept in its instance dict, where its cached
    properties live.  Periods come shortest first, so a shorter bound
    reads a prefix of the kept table."""
    kept_v, table = a.__dict__.get(_COMPARED_PERIODS, (0, ()))
    if kept_v < max_v:
        width = len(a.alphabet)
        roots = _power_roots(width, max_v)
        masks = _period_masks(a, max_v, roots)
        table = tuple(
            (i, period, masks[i]) for i, period in enumerate(_periods(range(width), max_v)) if roots[i] == i
        )
        a.__dict__[_COMPARED_PERIODS] = (max_v, table)
    elif kept_v > max_v:
        table = table[: bisect_left(table, (lasso_count(len(a.alphabet), 0, max_v),))]
    return table


def _shortlex_rank(word: Sequence[int], letters: int) -> int:
    """How many words precede `word`, a tuple of letter indices, in the
    order lassos_upto enumerates prefixes: its value in bijective base
    `letters`.  A non-empty word's index among `_periods` is one less."""
    rank = 0
    for k in word:
        rank = rank * letters + k + 1
    return rank


def bounded_equiv(a: NBW, d: Union[DRTW, DRW], max_u: int, max_v: int) -> EquivReport:
    """Compare acceptance of every bounded lasso; the first disagreement
    in enumeration order is reported, so results are deterministic.
    Bounds past LASSO_LENGTH_CAP letters, or that would enumerate more
    than LASSO_CAP lassos, raise CapacityError before any is tested.

    Both verdicts of a lasso depend only on the NBW states and the
    deterministic state reached after its prefix, and on its period.  So
    the scan walks prefixes one letter at a time in enumeration order and
    evaluates the periods of each distinct (states, state) pair once.  A
    repeated pair agreed on every period when first seen, and so do all
    its extensions, whose pairs were seen too; the walk does not extend it.

    Nor does a pair compare a period that re-reads an omega-word compared,
    and so agreed on, earlier in enumeration order: a power v^j, j >= 2,
    reads as v, and after a prefix u.x, a period v.x reads u.(x.v)^omega,
    whose prefix is shorter.  Period i ends in letter i % width, since
    each length's block of periods starts at a multiple of width.  A
    disagreement is therefore first met where the per-lasso scan meets
    it, and `evaluated` counts the skipped periods as it did the rest."""
    if tuple(a.alphabet) != tuple(d.alphabet):
        raise InputError("automata to compare must share one alphabet")
    if max_u < 0 or max_v < 1:
        raise InputError(f"lasso bounds need max_u >= 0 and max_v >= 1 (got {max_u}, {max_v})")
    if max(max_u, max_v) > LASSO_LENGTH_CAP:
        raise CapacityError(
            f"lasso bounds max_u={max_u}, max_v={max_v} exceed {LASSO_LENGTH_CAP} letters"
        )
    total = lasso_count(len(a.alphabet), max_u, max_v)
    if total > LASSO_CAP:
        raise CapacityError(
            f"lasso bounds max_u={max_u}, max_v={max_v} over {len(a.alphabet)} letters "
            f"exceed {LASSO_CAP} lassos"
        )
    start = time.monotonic()
    compared = _compared_periods(a, max_v)
    width = len(a.alphabet)
    letters = range(width)
    periods = lasso_count(width, 0, max_v)
    nbw_rows = [a.rows[sym] for sym in a.alphabet]
    marks, targets = _mark_rows(d), d.targets
    seen: Set[Tuple[int, int]] = set()
    evaluated = 0
    level = [((), a.initial_mask, d.initial)]
    for u_len in range(max_u + 1):
        extended = []
        for prefix, states, state in level:
            if (states, state) in seen:
                continue
            seen.add((states, state))
            last = prefix[-1] if prefix else -1  # period i ends in letter i % width
            for i, period, accepts in compared:
                if i % width == last:
                    continue
                expected = bool(states & accepts)
                got = _loop_accepts(d, marks, state, period)
                if expected != got:
                    return EquivReport(
                        _shortlex_rank(prefix, width) * periods + i + 1,
                        Counterexample(
                            tuple(a.alphabet[k] for k in prefix),
                            tuple(a.alphabet[k] for k in period),
                            expected,
                            got,
                        ),
                        time.monotonic() - start,
                        evaluated + i + 1,
                    )
            evaluated += periods
            if u_len < max_u:
                extended.extend(
                    (prefix + (k,), image(states, nbw_rows[k]), targets[k][state]) for k in letters
                )
        level = extended
    return EquivReport(total, None, time.monotonic() - start, evaluated)


# -- tree census -------------------------------------------------------------

Shape = Tuple["Shape", ...]  # a node is the tuple of its child shapes


@lru_cache(maxsize=None)
def _forests(m: int) -> Tuple[Shape, ...]:
    """Every ordered forest of m nodes: a first tree of k nodes, a root
    over a forest of k-1, then a forest of the other m-k.  A k-node tree's
    shape is the forest of its root's children, one of `_forests(k-1)`."""
    if m == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for k in range(1, m + 1)
        for first in _forests(k - 1)
        for rest in _forests(m - k)
    )


def _shape_names(shape: Shape, base: NodeName = ()) -> List[NodeName]:
    names = [base]
    for i, kid in enumerate(shape, start=1):
        names.extend(_shape_names(kid, base + (i,)))
    return names


def _check_census_size(n: int) -> None:
    if n > TREE_CAP:
        raise CapacityError(f"tree enumeration capped at n <= {TREE_CAP} (got {n})")
    if n < 1:
        raise InputError("census requires n >= 1")


def _shapes_upto(n: int):
    """Every order-closed tree shape with at most n nodes, within the
    enumeration cap."""
    _check_census_size(n)
    for k in range(1, n + 1):
        yield from _forests(k - 1)


def enumerate_history_trees(n: int) -> int:
    """hist(n): labeled order-closed trees over an n-state automaton,
    counted by recurrence.  T(k) counts the trees whose root label is one
    fixed k-set: the children's labels cover r < k of its states.  F(r)
    counts the ordered forests whose root labels partition one fixed
    r-set: the first tree takes j of them, the rest the other r - j."""
    _check_census_size(n)
    trees, forests = [0], [1]  # T(0) is never read; F(0) = 1, the empty forest
    for k in range(1, n + 1):
        trees.append(sum(comb(k, r) * forests[r] for r in range(k)))
        forests.append(sum(comb(k, j) * trees[j] * forests[k - j] for j in range(1, k + 1)))
    return sum(comb(n, k) * trees[k] for k in range(1, n + 1))


def check_identifiers_injective(n: int) -> None:
    """Raise HistreeError unless the capacity-n identifiers are distinct
    within every order-closed tree of at most n nodes, the condition that
    lets identifiers stand in for node names as pair indices."""
    table = IdentifierTable(n)
    for shape in _shapes_upto(n):
        idents = [table.lookup(name) for name in _shape_names(shape)]
        if len(set(idents)) != len(idents):
            raise HistreeError(f"identifier collision inside an order-closed tree: {shape}")


# -- identifier bound report --------------------------------------------------


def _ceil_half(k: int) -> int:
    return -(-k // 2)


@dataclass(frozen=True)
class IdentifierBoundsReport:
    n: int
    flags_used: int
    flags_by_height: Dict[int, int]
    identifiers_used: int
    flag_budget: int  # asserted upper bound on distinct flags
    identifier_budget: int  # reported against, never asserted

    def to_text(self) -> str:
        lines = [
            f"n={self.n}",
            f"flags_used={self.flags_used}",
            f"flag_budget={self.flag_budget}",
            f"identifiers_used={self.identifiers_used}",
            f"identifier_budget={self.identifier_budget}",
        ]
        for h in sorted(self.flags_by_height):
            lines.append(f"flags_at_height_{h}={self.flags_by_height[h]}")
        return "\n".join(lines) + "\n"


def verify_identifier_bounds(n: int) -> IdentifierBoundsReport:
    """Build the capacity-n identifier table and check its flag counts
    against the proven budgets; the total identifier count is reported
    against the headline budget but not asserted (their per-height sums
    disagree, see the report consumers)."""
    if n > IDENTIFIER_BOUND_CAP:
        raise CapacityError(f"identifier bound check capped at n <= {IDENTIFIER_BOUND_CAP}")
    if n < 1:
        raise InputError("identifier bound check requires n >= 1")
    table = IdentifierTable(n)
    # Identifiers are (height, flag) pairs: one per flag at each height.
    by_height = {h: len(flags) for h, flags in sorted(table.flags_by_height().items())}
    flags_used = len(table.flags_used())
    flag_budget = 2 ** max(_ceil_half(n - 1) - 1, 0)
    if n >= 2 and flags_used > flag_budget:
        raise HistreeError(f"{flags_used} flags exceed the budget {flag_budget} for n={n}")
    for h in range(1, n):
        per_height_budget = min(2 ** (h - 1), 2 ** (n - h - 1))
        if by_height.get(h, 0) > per_height_budget:
            raise HistreeError(
                f"{by_height[h]} flags at height {h} exceed {per_height_budget} for n={n}"
            )
    return IdentifierBoundsReport(
        n=n,
        flags_used=flags_used,
        flags_by_height=by_height,
        identifiers_used=sum(by_height.values()),
        flag_budget=flag_budget,
        identifier_budget=2 ** _ceil_half(n - 1),
    )
