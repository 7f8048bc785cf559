"""Graphviz DOT rendering for automata and tree payloads."""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from .automata import DRTW, DRW, NBW, TransitionAnnotation, bits
from .determinize import HistoryTree
from .errors import InputError
from .trees import IdentifierTable, name_str


def _q(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return '"' + escaped + '"'


def _marks(ann: TransitionAnnotation) -> str:
    parts = [f"⊕{i}" for i in sorted(ann.accepting)]
    parts += [f"⊖{i}" for i in sorted(ann.unstable)]
    return " ".join(parts)


def emit_dot(
    obj: Union[NBW, DRTW, DRW, HistoryTree],
    table: Optional[IdentifierTable] = None,
) -> str:
    """DOT text for an automaton or a tree; a tree's nodes show their
    identifiers in `table` when one is given."""
    if isinstance(obj, NBW):
        return _nbw_dot(obj)
    if isinstance(obj, (DRTW, DRW)):
        return _rabin_dot(obj)
    if isinstance(obj, HistoryTree):
        return _tree_dot(obj, table)
    raise InputError(f"cannot render {type(obj).__name__} as DOT")


def _nbw_dot(a: NBW) -> str:
    a.require_valid()
    lines = ["digraph nbw {", "  rankdir=LR;"]
    for i, q in enumerate(a.states):
        shape = "doublecircle" if a.final_mask >> i & 1 else "circle"
        lines.append(f"  n{i} [label={_q(q)} shape={shape}];")
    for k, i in enumerate(bits(a.mask(a.initial))):
        lines.append(f"  init{k} [shape=point];")
        lines.append(f"  init{k} -> n{i};")
    # One edge per (source, target) pair, labeled by its symbols sorted as strings.
    for i in range(len(a.states)):
        merged: Dict[int, List[str]] = {}
        for sym in sorted(a.alphabet):
            for j in bits(a.rows[sym][i]):
                merged.setdefault(j, []).append(sym)
        for j in sorted(merged):
            lines.append(f"  n{i} -> n{j} [label={_q(','.join(merged[j]))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _rabin_dot(d: Union[DRTW, DRW]) -> str:
    lines = ["digraph rabin {", "  rankdir=LR;"]
    for sid, (payload, label) in enumerate(zip(d.payloads, d.state_labels())):
        sinkish = isinstance(payload, HistoryTree) and payload.is_sink
        style = " style=dashed" if sinkish else ""
        lines.append(f"  n{sid} [label={_q(label)} shape=box{style}];")
    lines.append("  init [shape=point];")
    lines.append(f"  init -> n{d.initial};")
    # A DRTW edge shows its own mark's annotation, a DRW edge its target's.
    on_edges = d.acceptance_kind == "transition"
    for sid in range(len(d.payloads)):
        for j, sym in enumerate(d.alphabet):
            dst = d.targets[j][sid]
            ann = d.annotations[d.marks[j][sid] if on_edges else d.marks[0][dst]]
            label = sym if ann.empty else f"{sym} {_marks(ann)}"
            lines.append(f"  n{sid} -> n{dst} [label={_q(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tree_dot(tree: HistoryTree, table: Optional[IdentifierTable]) -> str:
    lines = ["digraph tree {"]
    if tree.is_sink:
        lines.append('  sink [label="sink" shape=box style=dashed];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    order = {name: k for k, (name, _) in enumerate(tree.entries)}
    for name, label in tree.entries:
        text = f"{name_str(name)}\n{tree.label_text(label)}"
        if table is not None:
            text += f" {table.lookup(name)}"
        lines.append(f"  n{order[name]} [label={_q(text)} shape=ellipse];")
    for name, _ in tree.entries:
        if name:
            lines.append(f"  n{order[name[:-1]]} -> n{order[name]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
