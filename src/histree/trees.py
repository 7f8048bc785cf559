"""Ordered-tree combinatorics: node names, heights, chains, stability,
compression, full trees and the (height, flag) identifier tables.

A tree node is named by the sequence of sibling indices on the path from
the root, each index >= 1; the root is the empty sequence.  A set of names
is a tree when it is prefix-closed, and it is order-closed when sibling
indices additionally have no gaps (every tau.i with i >= 2 has tau.(i-1)
present).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Set, Tuple

from .errors import CapacityError, InputError

NodeName = Tuple[int, ...]

ROOT: NodeName = ()

TABLE_CAP = 20  # largest n whose whole identifier table may be listed


def name_str(name: NodeName) -> str:
    """Render a node name as dotted components; the root renders as 'ε'."""
    return "ε" if not name else ".".join(str(c) for c in name)


def parse_name(text: str) -> NodeName:
    """Inverse of name_str; accepts 'ε', 'eps' or dotted positive integers."""
    text = text.strip()
    if text in ("ε", "eps", ""):
        return ()
    try:
        parts = tuple(int(p) for p in text.split("."))
    except ValueError:
        raise InputError(f"bad node name {text!r}") from None
    if any(p < 1 for p in parts):
        raise InputError(f"bad node name {text!r}: components must be >= 1")
    return parts


def height(name: NodeName) -> int:
    """Height of a node: the sum of its sibling indices (0 for the root)."""
    return sum(name)


def precedes(first: NodeName, second: NodeName) -> bool:
    """Strict order: first must occur in every order-closed tree that
    contains second.

    Holds exactly when first is a proper prefix of second, or such a
    proper prefix extended by one sibling index smaller than the index
    second continues with.
    """
    if len(first) > len(second):
        return False
    if len(first) == len(second):
        # Same length: only a smaller last sibling under the same parent.
        return bool(first) and first[:-1] == second[:-1] and first[-1] < second[-1]
    if first == second[: len(first)]:
        return True  # proper prefix
    head, last = first[:-1], first[-1]
    return head == second[: len(first) - 1] and last < second[len(first) - 1]


def chain(name: NodeName) -> FrozenSet[NodeName]:
    """All names that strictly precede `name`; its size equals height(name)."""
    out: Set[NodeName] = set()
    for m in range(len(name)):
        prefix = name[:m]
        out.add(prefix)
        out.update(prefix + (s,) for s in range(1, name[m]))
    return frozenset(out)


def closed_chain(name: NodeName) -> FrozenSet[NodeName]:
    """chain(name) together with the name itself."""
    return chain(name) | {name}


def can_co_occur(first: NodeName, second: NodeName, n: int) -> bool:
    """Whether both names fit together in one order-closed tree of <= n nodes."""
    return len(closed_chain(first) | closed_chain(second)) <= n


def is_prefix_closed(names: Iterable[NodeName]) -> bool:
    name_set = set(names)
    return all(name[:-1] in name_set for name in name_set if name)


@dataclass(frozen=True)
class TreeClasses:
    """Partition of a tree's nodes by order-closedness damage."""

    imbalanced: FrozenSet[NodeName]
    unstable: FrozenSet[NodeName]  # imbalanced, younger siblings, descendants
    stable: FrozenSet[NodeName]


def classify(names: Iterable[NodeName]) -> TreeClasses:
    """Split a prefix-closed name set into stable and unstable nodes.

    A node tau.i is imbalanced when i >= 2 and tau.(i-1) is missing.  Every
    sibling of an imbalanced node with an index at least as large, and all
    descendants of those, are unstable; the rest are stable.  One pass in
    sorted order (preorder): a parent's first gap and its own verdict are
    known before the children they destabilize.
    """
    name_set = frozenset(names)
    imbalanced: Set[NodeName] = set()
    unstable: Set[NodeName] = set()
    first_gap: Dict[NodeName, int] = {}  # parent -> smallest imbalanced child index
    for name in sorted(name_set - {ROOT}):
        parent, i = name[:-1], name[-1]
        if i >= 2 and parent + (i - 1,) not in name_set:
            imbalanced.add(name)
            first_gap.setdefault(parent, i)
        if parent in unstable or i >= first_gap.get(parent, i + 1):
            unstable.add(name)
    return TreeClasses(frozenset(imbalanced), frozenset(unstable), name_set - unstable)


def is_order_closed(names: Iterable[NodeName]) -> bool:
    """Whether no sibling index skips its predecessor."""
    name_set = set(names)
    return all(n[-1] == 1 or n[:-1] + (n[-1] - 1,) in name_set for n in name_set if n)


def compress(names: Iterable[NodeName]) -> Dict[NodeName, NodeName]:
    """Renaming that closes sibling gaps, restoring order-closedness.

    The root maps to itself and tau.i maps to comp(tau).j where j counts
    the present older siblings of tau.i plus one.  Repeated names count
    once.  One pass over the names in sorted order, which is preorder,
    keeping a running child count per parent.  The renaming preserves
    lexicographic order, and the renamed names (those mapped to a different
    name) are exactly the unstable nodes of `classify`.  The packed
    successor kernel renames survivors itself; this function serves the
    tests' reference step, which checks the kernel against it.
    """
    out: Dict[NodeName, NodeName] = {}
    kids: Dict[NodeName, int] = {}
    for name in sorted(set(names)):
        if not name:
            out[name] = name
            continue
        parent = name[:-1]
        j = kids[parent] = kids.get(parent, 0) + 1
        out[name] = out[parent] + (j,)
    return out


def full_tree(n: int) -> FrozenSet[NodeName]:
    """The tree of every name that can occur in an order-closed tree with
    at most n nodes; it has exactly 2**(n-1) nodes.

    Built by repeated doubling: the (k+1)-node-capacity tree adds one new
    rightmost child to every node of the k-capacity tree.
    """
    if n < 1:
        raise InputError("full_tree requires n >= 1")
    degree: Dict[NodeName, int] = {ROOT: 0}  # name -> number of children
    for _ in range(n - 1):
        for name, kids in list(degree.items()):
            degree[name] = kids + 1
            degree[name + (kids + 1,)] = 0
    return frozenset(degree)


class Identifier(NamedTuple):
    """A (height, flag) pair naming a tree position across trees."""

    height: int
    flag: int

    def __str__(self) -> str:
        return f"({self.height},{self.flag})"


class IdentifierTable:
    """(height, flag) identifiers for the names of full_tree(n), computed
    one name at a time.

    The flags are those of a greedy scan: visit full_tree(n) in spine order
    (leaves left to right, each contributing the not-yet-seen part of its
    closed chain, ordered by height) and give each name the smallest flag
    not held by an earlier same-height name that could share an
    order-closed tree of <= n nodes with it.  Two same-height names that
    can co-occur therefore get distinct flags, which makes (height, flag)
    unique within any one tree.  Three facts turn the scan into a closed
    form:

    1. Within one height, spine order is lexicographic order.  A closed
       chain has exactly one node at each height 0..h, so sorting a spine
       by height leaves no ties, and a name x of height h first appears in
       the spine of the leaf x + (1,) * (n-1-h).
    2. Conflict is an equivalence.  Two names of height h can co-occur
       exactly when their closed chains share the node at height
       k = 2h+1-n; when k <= 0 they always can.
    3. So the greedy flag is a rank: 1 plus the number of lexicographically
       smaller height-h names whose chain passes through x's node at
       height k.  Each such class has min(2**(h-1), 2**(n-1-h)) names.

    `lookup` computes that rank (see `_flag`) and memoizes it.  Names of
    height >= n lie outside full_tree(n) (transient names produced
    mid-transition); their chains are longer than n, so they conflict with
    nothing and get flag 1.  The whole-table views look up every spine
    name first; they are capped at n <= TABLE_CAP, while `lookup` is not.
    """

    def __init__(self, n: int):
        if n < 1:
            raise InputError("identifier table requires n >= 1")
        self.n = n
        self._assigned: Dict[NodeName, Identifier] = {}

    @cached_property
    def spine_order(self) -> List[NodeName]:
        """All nodes of full_tree(n) in spine order: by fact 1, sorted by
        the leaf whose spine a name of height h first appears in (the name
        extended by n-1-h ones), then by height.  There are 2**(n-1) of
        them, so n is capped at TABLE_CAP."""
        n = self.n
        if n > TABLE_CAP:
            raise CapacityError(f"whole identifier table capped at n <= {TABLE_CAP} (got {n})")
        return sorted(full_tree(n), key=lambda x: (x + (1,) * (n - 1 - height(x)), height(x)))

    def lookup(self, name: NodeName) -> Identifier:
        got = self._assigned.get(name)
        if got is None:
            got = self._assigned[name] = Identifier(height(name), _flag(name, self.n))
        return got

    def _identifiers(self) -> Iterable[Identifier]:
        """Every identifier assigned so far, once every spine name has one."""
        for name in self.spine_order:
            self.lookup(name)
        return self._assigned.values()

    def flags_used(self) -> Set[int]:
        return {ident.flag for ident in self._identifiers()}

    def flags_by_height(self) -> Dict[int, Set[int]]:
        out: Dict[int, Set[int]] = {}
        for ident in self._identifiers():
            out.setdefault(ident.height, set()).add(ident.flag)
        return out

    def dump_text(self) -> str:
        """One line per node in spine order: name TAB height TAB flag."""
        lines = []
        for name in self.spine_order:
            ident = self.lookup(name)
            lines.append(f"{name_str(name)}\t{ident.height}\t{ident.flag}")
        return "\n".join(lines) + "\n"


def _flag(name: NodeName, n: int) -> int:
    """The greedy flag of `name` in the capacity-n table, as a rank.

    The names of height h whose chain passes through the node z at height
    k = 2h+1-n are z's path extended to height h.  Write z as p + (c,):
    the members are p + (c + d,) + rest with d >= 0, and reading each as
    the composition (d + 1,) + rest of M = h-k+1 keeps their order.  For
    k <= 0 the class is every composition of M = h.  The lexicographic
    rank of a composition of M is the (M-1)-bit number with a 1 for every
    gap between units that is not a cut between parts.
    """
    h = height(name)
    k = 2 * h + 1 - n
    if h == 0 or k > h:
        return 1
    comp = name
    if k > 0:
        below = 0  # height of the prefix before component i
        for i, part in enumerate(name):
            if below + part >= k:
                comp = (below + part - k + 1,) + name[i + 1 :]
                break
            below += part
    total = sum(comp)
    rank = (1 << (total - 1)) - 1
    cut = 0
    for part in comp[:-1]:
        cut += part
        rank -= 1 << (total - 1 - cut)
    return rank + 1
