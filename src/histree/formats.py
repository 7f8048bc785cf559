"""Text formats: a HOA v1 subset for automata interchange and a JSON-lines
native format for diffable fixtures.

The HOA subset covers plain-alphabet automata only: one atomic proposition
per symbol, an alias per symbol expanding to the one-hot conjunction, and
edges labeled by exactly one alias reference.  Arbitrary propositional
label expressions are rejected on purpose.  Supported acceptance: Buchi on
states (input) and Rabin on transitions or states (output).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .automata import (
    DRTW,
    DRW,
    EMPTY_ANNOTATION,
    NBW,
    RabinPairSet,
    bits,
)
from .errors import InputError, ParseError


class UnsupportedAcceptanceError(InputError):
    """The document declares an acceptance condition outside the subset."""


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<marker>--BODY--|--END--)
    | (?P<header>[a-zA-Z_][0-9a-zA-Z_-]*:)
    | (?P<alias>@[0-9a-zA-Z_-]+)
    | (?P<int>[0-9]+)
    | (?P<ident>[a-zA-Z_][0-9a-zA-Z_-]*)
    | (?P<punct>[\[\]{}()&|!])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    return tokens


def _unquote(raw: str) -> str:
    return raw[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


class _TokenStream:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect_kind: Optional[str] = None, what: str = "token") -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", "", 1, 1)
            raise ParseError(f"unexpected end of input, expected {what}", last.line, last.col)
        if expect_kind is not None and tok.kind != expect_kind:
            raise ParseError(f"expected {what}, found {tok.value!r}", tok.line, tok.col)
        self.pos += 1
        return tok


# -- HOA parsing --------------------------------------------------------------

_IGNORED_HEADERS = {"name:", "tool:"}
_ONCE_HEADERS = {"States:", "AP:", "acc-name:", "Acceptance:"}  # a repeat would override the first


@dataclass
class _HoaDocument:
    state_count: int
    start: List[_Token]
    aps: List[str]
    aliases: Dict[str, int]  # alias name (without @) -> symbol index
    acc_name: Optional[List[_Token]]
    acceptance: Optional[List[_Token]]
    properties: List[str]
    states: List[Tuple[int, Optional[str], Tuple[int, ...]]]
    edges: Dict[int, List[Tuple[int, int, Tuple[int, ...]]]]  # src -> (sym, dst, sig)


def _parse_alias_expr(stream: _TokenStream, ap_count: int) -> int:
    """One-hot conjunction over all APs; returns the positive AP index."""
    positive: List[int] = []
    seen: set = set()
    first = stream.peek()
    while True:
        tok = stream.peek()
        negated = False
        if tok is not None and tok.value == "!":
            stream.next()
            negated = True
            tok = stream.peek()
        if tok is None or tok.kind != "int":
            where = tok or first
            raise ParseError(
                "alias expressions must be conjunctions of AP literals",
                where.line if where else 1,
                where.col if where else 1,
            )
        stream.next()
        ap = int(tok.value)
        if ap >= ap_count:
            raise ParseError(f"AP {ap} out of range", tok.line, tok.col)
        seen.add(ap)
        if not negated:
            positive.append(ap)
        nxt = stream.peek()
        if nxt is not None and nxt.value == "&":
            stream.next()
            continue
        break
    if len(positive) != 1 or len(seen) != ap_count:
        where = first
        raise ParseError(
            "alias must name exactly one symbol: one positive AP, all others negated",
            where.line,
            where.col,
        )
    return positive[0]


def _parse_hoa_document(text: str) -> _HoaDocument:
    stream = _TokenStream(_tokenize(text))
    head = stream.next("header", "HOA: header")
    if head.value != "HOA:":
        raise ParseError("document must start with HOA: v1", head.line, head.col)
    version = stream.next("ident", "format version")
    if version.value != "v1":
        raise ParseError(f"unsupported HOA version {version.value!r}", version.line, version.col)

    doc = _HoaDocument(-1, [], [], {}, None, None, [], [], {})
    seen = set()
    while True:
        tok = stream.peek()
        if tok is None:
            raise ParseError("missing --BODY--", 1, 1)
        if tok.kind == "marker":
            break
        tok = stream.next("header", "header or --BODY--")
        name = tok.value
        if name in _ONCE_HEADERS:
            if name in seen:
                raise ParseError(f"repeated {name} header", tok.line, tok.col)
            seen.add(name)
        if name == "States:":
            doc.state_count = int(stream.next("int", "state count").value)
        elif name == "Start:":
            doc.start.append(stream.next("int", "start state"))
            trailing = stream.peek()
            if trailing is not None and trailing.value in ("&", "|"):
                raise ParseError(
                    "start conjunctions are not supported", trailing.line, trailing.col
                )
        elif name == "AP:":
            count = int(stream.next("int", "AP count").value)
            doc.aps = [_unquote(stream.next("string", "AP name").value) for _ in range(count)]
        elif name == "Alias:":
            alias_tok = stream.next("alias", "alias name")
            doc.aliases[alias_tok.value[1:]] = _parse_alias_expr(stream, len(doc.aps))
        elif name == "acc-name:":
            doc.acc_name = _collect_args(stream)
        elif name == "Acceptance:":
            doc.acceptance = _collect_args(stream)
        elif name == "properties:":
            doc.properties.extend(t.value for t in _collect_args(stream))
        elif name in _IGNORED_HEADERS:
            _collect_args(stream)
        else:
            raise ParseError(f"unsupported header {name!r}", tok.line, tok.col)

    marker = stream.next("marker", "--BODY--")
    if marker.value != "--BODY--":
        raise ParseError("expected --BODY--", marker.line, marker.col)
    if doc.state_count < 0:
        raise ParseError("missing States: header", marker.line, marker.col)
    for tok in doc.start:
        if int(tok.value) >= doc.state_count:
            raise ParseError(f"start state {tok.value} not declared", tok.line, tok.col)

    current: Optional[int] = None
    while True:
        tok = stream.peek()
        if tok is None:
            raise ParseError("missing --END--", marker.line, marker.col)
        if tok.kind == "marker":
            stream.next()
            if tok.value != "--END--":
                raise ParseError("unexpected --BODY--", tok.line, tok.col)
            break
        if tok.kind == "header" and tok.value == "State:":
            stream.next()
            num_tok = stream.next("int", "state number")
            num = int(num_tok.value)
            if num >= doc.state_count:
                raise ParseError(f"state {num} not declared", num_tok.line, num_tok.col)
            if num in doc.edges:
                raise ParseError(f"state {num} declared twice", num_tok.line, num_tok.col)
            label: Optional[str] = None
            if stream.peek() is not None and stream.peek().kind == "string":
                label = _unquote(stream.next().value)
            sig = _parse_signature(stream)
            doc.states.append((num, label, sig))
            doc.edges.setdefault(num, [])
            current = num
        elif tok.value == "[":
            if current is None:
                raise ParseError("edge before any State:", tok.line, tok.col)
            stream.next()
            label_tok = stream.peek()
            if label_tok is None or label_tok.kind != "alias":
                where = label_tok or tok
                raise ParseError(
                    "propositional label expressions are not supported; "
                    "edges must carry a single @alias",
                    where.line,
                    where.col,
                )
            stream.next()
            alias = label_tok.value[1:]
            if alias not in doc.aliases:
                raise ParseError(f"unknown alias @{alias}", label_tok.line, label_tok.col)
            closing = stream.next("punct", "]")
            if closing.value != "]":
                raise ParseError("expected ]", closing.line, closing.col)
            dst_tok = stream.next("int", "edge target")
            dst = int(dst_tok.value)
            if dst >= doc.state_count:
                raise ParseError(f"state {dst} not declared", dst_tok.line, dst_tok.col)
            sig = _parse_signature(stream)
            doc.edges[current].append((doc.aliases[alias], dst, sig))
        else:
            raise ParseError(f"unexpected token {tok.value!r} in body", tok.line, tok.col)
    return doc


def _collect_args(stream: _TokenStream) -> List[_Token]:
    args: List[_Token] = []
    while True:
        tok = stream.peek()
        if tok is None or tok.kind in ("header", "marker"):
            return args
        args.append(stream.next())


def _parse_signature(stream: _TokenStream) -> Tuple[int, ...]:
    tok = stream.peek()
    if tok is None or tok.value != "{":
        return ()
    stream.next()
    sets: List[int] = []
    while True:
        tok = stream.next(what="acceptance set or }")
        if tok.value == "}":
            return tuple(sets)
        if tok.kind != "int":
            raise ParseError("acceptance signature must list set numbers", tok.line, tok.col)
        sets.append(int(tok.value))


def _acc_tokens_text(tokens: Optional[List[_Token]]) -> str:
    return " ".join(t.value for t in tokens) if tokens else ""


# -- NBW (Buchi) parse / emit -------------------------------------------------


def parse_nbw_hoa(text: str) -> NBW:
    doc = _parse_hoa_document(text)
    acc_name = _acc_tokens_text(doc.acc_name)
    acceptance = _acc_tokens_text(doc.acceptance)
    if acc_name and acc_name != "Buchi":
        raise UnsupportedAcceptanceError(
            f"unsupported acceptance {acc_name!r}: this reader takes Buchi input only"
        )
    if acceptance and acceptance.replace(" ", "") != "1Inf(0)":
        raise UnsupportedAcceptanceError(
            f"unsupported acceptance condition {acceptance!r}: expected 1 Inf(0)"
        )
    if not acc_name and not acceptance:
        raise UnsupportedAcceptanceError("missing acceptance declaration")

    alphabet = _alphabet(doc)
    names = _state_labels(doc)
    finals: List[str] = []
    for num, _, sig in doc.states:
        if any(s != 0 for s in sig):
            raise InputError(f"state {num}: Buchi input uses only acceptance set 0")
        if sig:
            finals.append(names[num])
    transitions = []
    for src, edge_list in doc.edges.items():
        for sym_index, dst, sig in edge_list:
            if sig:
                raise InputError(
                    "transition-based acceptance is not supported on Buchi input"
                )
            transitions.append((names[src], alphabet[sym_index], names[dst]))
    if len(set(names)) != len(names):
        raise InputError("duplicate state names")
    return NBW.make(
        states=names,
        alphabet=alphabet,
        transitions=transitions,
        initial=tuple(names[i] for i in sorted({int(tok.value) for tok in doc.start})),
        finals=finals,
    )


def _alphabet(doc: _HoaDocument) -> Tuple[str, ...]:
    """The symbols in proposition order.  Every alias names one symbol, so
    one alias per proposition, no two naming the same, covers them all."""
    if len(doc.aliases) != len(doc.aps):
        raise InputError("expected exactly one alias per atomic proposition")
    if len(set(doc.aliases.values())) != len(doc.aps):
        raise InputError("two aliases name the same symbol")
    return tuple(doc.aps)


def _state_labels(doc: _HoaDocument) -> List[str]:
    """Each state's label, its number when unnamed, in state order.  Every
    declared state needs a State: block, which is checked before anything
    is sized by the declared count."""
    labels = {num: label if label is not None else str(num) for num, label, _ in doc.states}
    for num in range(doc.state_count):
        if num not in labels:
            raise InputError(f"state {num} has no State: block")
    return [labels[num] for num in range(doc.state_count)]


def _hoa_preamble(state_count: int, starts: Iterable[int], alphabet: Sequence[str]) -> List[str]:
    """The HOA:, States:, Start:, AP: and Alias: lines; alias @si is the
    one-hot conjunction that names symbol i."""
    k = len(alphabet)
    lines = ["HOA: v1", f"States: {state_count}"]
    lines += [f"Start: {i}" for i in starts]
    lines.append(f"AP: {k} " + " ".join(_quote(s) for s in alphabet))
    for i in range(k):
        lines.append(f"Alias: @s{i} " + "&".join(str(j) if j == i else f"!{j}" for j in range(k)))
    return lines


def emit_nbw_hoa(a: NBW) -> str:
    a.require_valid()
    lines = _hoa_preamble(len(a.states), bits(a.mask(a.initial)), a.alphabet)
    lines += ["acc-name: Buchi", "Acceptance: 1 Inf(0)", "--BODY--"]
    for i, q in enumerate(a.states):
        sig = " {0}" if a.final_mask >> i & 1 else ""
        lines.append(f"State: {i} {_quote(q)}{sig}")
        for k, sym in enumerate(a.alphabet):
            lines += [f"[@s{k}] {j}" for j in bits(a.rows[sym][i])]
    lines.append("--END--")
    return "\n".join(lines) + "\n"


# -- Rabin emit / parse --------------------------------------------------------


def _rabin_acceptance_line(pair_count: int) -> str:
    if pair_count == 0:
        return "Acceptance: 0 f"
    cond = " | ".join(f"(Fin({2 * i})&Inf({2 * i + 1}))" for i in range(pair_count))
    return f"Acceptance: {2 * pair_count} {cond}"


def emit_rabin(d: Union[DRTW, DRW]) -> str:
    """HOA text for a deterministic Rabin automaton; pair i owns the
    acceptance sets 2i (Fin, rejecting) and 2i+1 (Inf, accepting).  Output
    is a pure function of the automaton, so emission is byte stable.  It
    builds one string per state and joins them once."""
    on_transitions = d.acceptance.kind == "transition"
    pair_count = len(d.acceptance.indices)
    head = _hoa_preamble(len(d.payloads), [d.initial], d.alphabet)
    head += [f"acc-name: Rabin {pair_count}", _rabin_acceptance_line(pair_count)]
    head += ["properties: deterministic " + ("trans-acc" if on_transitions else "state-acc"), "--BODY--"]
    # A mark's signature has bit s set for each acceptance set s it is in;
    # each mark's text is rendered once.
    texts = [" {" + " ".join(map(str, bits(sig))) + "}" if sig else "" for sig in d.acceptance.signatures]

    parts = ["\n".join(head) + "\n"]
    letters = [f"[@s{k}] " for k in range(len(d.alphabet))]
    targets, marks = d.targets, d.marks
    for sid, label in enumerate(d.state_labels()):
        if on_transitions:
            edges = "".join([f"{letter}{row[sid]}{texts[marked[sid]]}\n"
                             for letter, row, marked in zip(letters, targets, marks)])
            parts.append(f"State: {sid} {_quote(label)}\n{edges}")
        else:
            edges = "".join([f"{letter}{row[sid]}\n" for letter, row in zip(letters, targets)])
            parts.append(f"State: {sid} {_quote(label)}{texts[marks[0][sid]]}\n{edges}")
    parts.append("--END--\n")
    return "".join(parts)


def parse_rabin(text: str) -> Union[DRTW, DRW]:
    """Read back a Rabin document we emitted; payloads become the state
    label strings.  Used to show the format carries full acceptance.
    Marks are numbered by distinct signature in first-seen order, each
    with the empty annotation."""
    doc = _parse_hoa_document(text)
    if not doc.acc_name or doc.acc_name[0].value != "Rabin":
        raise UnsupportedAcceptanceError(f"expected Rabin acceptance, got {_acc_tokens_text(doc.acc_name)!r}")
    if len(doc.acc_name) != 2 or doc.acc_name[1].kind != "int":
        where = doc.acc_name[0]
        raise ParseError("acc-name: Rabin needs one pair count", where.line, where.col)
    pair_count = int(doc.acc_name[1].value)
    _check_rabin_acceptance(doc.acceptance, pair_count)
    if len(doc.start) != 1:
        raise InputError("deterministic automata need exactly one start state")
    alphabet = _alphabet(doc)
    on_transitions = "state-acc" not in doc.properties
    payloads = _state_labels(doc)
    numbers: Dict[int, int] = {}  # signature -> mark number

    def mark(sets: Tuple[int, ...]) -> int:
        # RabinPairSet refuses a set number past the pairs; clamping to the
        # first such number keeps a huge one from building a huge int.
        return numbers.setdefault(sum({1 << min(s, 2 * pair_count) for s in sets}), len(numbers))

    # One mark row per letter on a trans-acc document, one for the states
    # on a state-acc document.
    targets = [[-1] * len(payloads) for _ in alphabet]
    marks = [[0] * len(payloads) for _ in range(len(alphabet) if on_transitions else 1)]
    for src, edge_list in doc.edges.items():
        for sym_index, dst, sig in edge_list:
            if targets[sym_index][src] >= 0:
                raise InputError(f"duplicate edge for state {src} symbol {alphabet[sym_index]!r}")
            targets[sym_index][src] = dst
            if on_transitions:
                marks[sym_index][src] = mark(sig)
            elif sig:
                raise UnsupportedAcceptanceError(f"state {src}: edge acceptance in a state-acc document")
    for num, _, sig in doc.states:
        if not on_transitions:
            marks[0][num] = mark(sig)
        elif sig:
            raise UnsupportedAcceptanceError(f"state {num}: state acceptance in a trans-acc document")
    cls = DRTW if on_transitions else DRW
    acceptance = RabinPairSet(cls.acceptance_kind, tuple(range(pair_count)), tuple(numbers))
    missing = [(row.index(-1), j) for j, row in enumerate(targets) if -1 in row]
    if missing:
        src, j = min(missing)
        raise InputError(f"missing edge for state {src} symbol {alphabet[j]!r}")
    return cls(tuple(payloads), alphabet, int(doc.start[0].value), tuple(map(tuple, targets)),
               tuple(map(tuple, marks)), (EMPTY_ANNOTATION,) * len(numbers), acceptance)


def _check_rabin_acceptance(acceptance: Optional[List[_Token]], pair_count: int) -> None:
    """Refuse any Acceptance: line but the one emit_rabin writes for
    `pair_count` pairs.  A pair takes several tokens, so a count above the
    line's token count is refused before anything is sized by it."""
    found = [t.value for t in acceptance or ()]
    if pair_count <= len(found):
        expected = _tokenize(_rabin_acceptance_line(pair_count))[1:]
        if found == [t.value for t in expected]:
            return
    raise UnsupportedAcceptanceError(f"acceptance {' '.join(found)!r} is not the Rabin condition on {pair_count} pairs")


# -- native JSON-lines ---------------------------------------------------------


def emit_nbw_native(a: NBW) -> str:
    a.require_valid()
    header = {
        "format": "nbw",
        "states": list(a.states),
        "alphabet": list(a.alphabet),
        "initial": [a.states[i] for i in bits(a.mask(a.initial))],
        "finals": [a.states[i] for i in bits(a.final_mask)],
    }
    lines = [json.dumps(header)]
    for i, q in enumerate(a.states):
        for sym in a.alphabet:
            lines += [json.dumps({"from": q, "symbol": sym, "to": a.states[j]}) for j in bits(a.rows[sym][i])]
    return "\n".join(lines) + "\n"


def parse_nbw_native(text: str) -> NBW:
    lines = [l for l in text.splitlines()]
    records = []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            records.append((lineno, json.loads(raw)))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", lineno, exc.colno) from None
        except RecursionError:
            raise ParseError("bad JSON: nested too deeply", lineno, 1) from None
    if not records:
        raise ParseError("empty document", 1, 1)
    header_line, header = records[0]
    if not isinstance(header, dict) or header.get("format") != "nbw":
        raise ParseError('header must set "format": "nbw"', header_line, 1)
    for key in ("states", "alphabet", "initial", "finals"):
        if not isinstance(header.get(key), list):
            raise ParseError(f'header needs a list field "{key}"', header_line, 1)
        if not all(isinstance(item, str) for item in header[key]):
            raise ParseError(f'header field "{key}" must list strings', header_line, 1)
    states = set(header["states"])
    alphabet = set(header["alphabet"])
    transitions = []
    for lineno, record in records[1:]:
        if not isinstance(record, dict) or set(record) != {"from", "symbol", "to"}:
            raise ParseError('transition lines need "from", "symbol", "to"', lineno, 1)
        if not all(isinstance(value, str) for value in record.values()):
            raise ParseError('transition "from", "symbol" and "to" must be strings', lineno, 1)
        if record["from"] not in states or record["to"] not in states:
            raise ParseError("transition endpoint not declared", lineno, 1)
        if record["symbol"] not in alphabet:
            raise ParseError("transition symbol not in alphabet", lineno, 1)
        transitions.append((record["from"], record["symbol"], record["to"]))
    for key in ("initial", "finals"):
        for q in header[key]:
            if q not in states:
                raise ParseError(f"{key} state {q!r} not declared", header_line, 1)
    return NBW.make(
        states=header["states"],
        alphabet=header["alphabet"],
        transitions=transitions,
        initial=header["initial"],
        finals=header["finals"],
    )


def parse_nbw(text: str) -> NBW:
    """Auto-detect the input format: HOA documents start with HOA:,
    native documents with a JSON object."""
    stripped = text.lstrip()
    if stripped.startswith("HOA:"):
        return parse_nbw_hoa(text)
    if stripped.startswith("{"):
        return parse_nbw_native(text)
    raise ParseError("unrecognized format: expected HOA: v1 or a JSON header line", 1, 1)
