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
from itertools import islice
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

# A token is a (kind, value, offset) tuple: the name of the group below that
# matched, the matched text and the offset of its first character.  Line
# and column are computed from the offset only for an error.  Whitespace
# separates tokens and is not one.  A character that starts no token
# starts a `bad` token that runs to the end of the text, so only the last
# token can be bad.
_Token = Tuple[str, str, int]

_TOKEN_RE = re.compile(
    r"""
      (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<marker>--BODY--|--END--)
    | (?P<header>[a-zA-Z_][0-9a-zA-Z_-]*:)
    | (?P<alias>@[0-9a-zA-Z_-]+)
    | (?P<int>[0-9]+)
    | (?P<ident>[a-zA-Z_][0-9a-zA-Z_-]*)
    | (?P<punct>[\[\]{}()&|!])
    | (?P<bad>\S[\s\S]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[_Token]:
    """The tokens of `text`, in one scan; a character that starts no token
    raises ParseError."""
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(text)]
    if tokens and tokens[-1][0] == "bad":
        offset = tokens[-1][2]
        raise ParseError(f"unexpected character {text[offset]!r}", *_position(text, offset))
    return tokens


def _position(text: str, offset: int) -> Tuple[int, int]:
    """The line and column, both from 1, of the character at `offset`."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _unquote(raw: str) -> str:
    return raw[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


class _Reader:
    """One document's tokens, read by index.  An `end` token closes the
    list, at the last token's offset (0 in a document without tokens), so
    reading past the last token finds a kind that no rule takes, and an
    error there is reported at the last token."""

    __slots__ = ("text", "tokens")

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokens = _tokenize(text)
        tokens.append(("end", "", tokens[-1][2] if tokens else 0))

    def error(self, message: str, offset: int) -> ParseError:
        return ParseError(message, *_position(self.text, offset))

    def unexpected(self, i: int, what: str) -> ParseError:
        """The error for token i where `what` was expected."""
        kind, value, offset = self.tokens[i]
        if kind == "end":
            return self.error(f"unexpected end of input, expected {what}", offset)
        return self.error(f"expected {what}, found {value!r}", offset)

    def take(self, i: int, kind: str, what: str) -> _Token:
        """Token i, which must be of `kind`."""
        tok = self.tokens[i]
        if tok[0] != kind:
            raise self.unexpected(i, what)
        return tok


# -- HOA parsing --------------------------------------------------------------

_ONCE_HEADERS = {"States:", "AP:", "acc-name:", "Acceptance:"}  # a repeat would override the first
# Headers whose arguments run to the next header or marker; name: and tool: are ignored.
_ARGS_HEADERS = {"acc-name:", "Acceptance:", "properties:", "name:", "tool:"}
_ARGS_END = ("header", "marker", "end")


@dataclass
class _HoaDocument:
    state_count: int
    start: List[_Token]
    aps: List[str]
    aliases: Dict[str, int]  # alias token (with its @) -> symbol index
    acc_name: Optional[List[_Token]]
    acceptance: Optional[List[_Token]]
    properties: List[str]
    states: List[Tuple[int, Optional[str], Tuple[int, ...]]]
    edges: Dict[int, List[Tuple[int, int, Tuple[int, ...]]]]  # src -> (sym, dst, sig)


def _parse_alias_expr(reader: _Reader, i: int, ap_count: int) -> Tuple[int, int]:
    """The one-hot conjunction over all APs that starts at token i: its
    positive AP index and the index of the token after it."""
    tokens = reader.tokens
    first = tokens[i]
    positive: List[int] = []
    seen: set = set()
    while True:
        kind, value, offset = tokens[i]
        negated = value == "!"
        if negated:
            i += 1
            kind, value, offset = tokens[i]
        if kind != "int":
            where = first if kind == "end" else tokens[i]
            raise reader.error("alias expressions must be conjunctions of AP literals", where[2])
        i += 1
        ap = int(value)
        if ap >= ap_count:
            raise reader.error(f"AP {ap} out of range", offset)
        seen.add(ap)
        if not negated:
            positive.append(ap)
        if tokens[i][1] != "&":
            break
        i += 1
    if len(positive) != 1 or len(seen) != ap_count:
        raise reader.error("alias must name exactly one symbol: one positive AP, all others negated", first[2])
    return positive[0], i


def _parse_hoa_document(text: str) -> _HoaDocument:
    reader = _Reader(text)
    tokens, take, error = reader.tokens, reader.take, reader.error
    head = take(0, "header", "HOA: header")
    if head[1] != "HOA:":
        raise error("document must start with HOA: v1", head[2])
    version = take(1, "ident", "format version")
    if version[1] != "v1":
        raise error(f"unsupported HOA version {version[1]!r}", version[2])

    doc = _HoaDocument(-1, [], [], {}, None, None, [], [], {})
    seen = set()
    i = 2
    while True:
        kind, name, offset = tokens[i]
        if kind == "end":
            raise error("missing --BODY--", offset)
        if kind == "marker":
            break
        if kind != "header":
            raise reader.unexpected(i, "header or --BODY--")
        i += 1
        if name in _ONCE_HEADERS:
            if name in seen:
                raise error(f"repeated {name} header", offset)
            seen.add(name)
        if name == "States:":
            doc.state_count = int(take(i, "int", "state count")[1])
            i += 1
        elif name == "Start:":
            doc.start.append(take(i, "int", "start state"))
            i += 1
            if tokens[i][1] in ("&", "|"):
                raise error("start conjunctions are not supported", tokens[i][2])
        elif name == "AP:":
            count = int(take(i, "int", "AP count")[1])
            doc.aps = [_unquote(take(i + 1 + j, "string", "AP name")[1]) for j in range(count)]
            i += 1 + count
        elif name == "Alias:":
            alias = take(i, "alias", "alias name")[1]
            doc.aliases[alias], i = _parse_alias_expr(reader, i + 1, len(doc.aps))
        elif name in _ARGS_HEADERS:
            start = i
            while tokens[i][0] not in _ARGS_END:
                i += 1
            if name == "acc-name:":
                doc.acc_name = tokens[start:i]
            elif name == "Acceptance:":
                doc.acceptance = tokens[start:i]
            elif name == "properties:":
                doc.properties.extend(value for _, value, _ in tokens[start:i])
        else:
            raise error(f"unsupported header {name!r}", offset)

    marker = tokens[i]
    i += 1
    if marker[1] != "--BODY--":
        raise error("expected --BODY--", marker[2])
    if doc.state_count < 0:
        raise error("missing States: header", marker[2])
    for tok in doc.start:
        if int(tok[1]) >= doc.state_count:
            raise error(f"start state {tok[1]} not declared", tok[2])

    aliases, state_count, edges = doc.aliases, doc.state_count, doc.edges
    out: Optional[List[Tuple[int, int, Tuple[int, ...]]]] = None  # the current state's edges
    while True:
        kind, value, offset = tokens[i]
        if value == "[":
            if out is None:
                raise error("edge before any State:", offset)
            # An error at the end lands on the last token: here the "[".
            kind, alias, where = tokens[i + 1]
            if kind != "alias":
                raise error(
                    "propositional label expressions are not supported; edges must carry a single @alias",
                    where,
                )
            symbol = aliases.get(alias)
            if symbol is None:
                raise error(f"unknown alias {alias}", where)
            if tokens[i + 2][1] != "]":  # other punctuation, or else the error `take` raises
                raise error("expected ]", take(i + 2, "punct", "]")[2])
            kind, value, offset = tokens[i + 3]
            if kind != "int":
                raise reader.unexpected(i + 3, "edge target")
            dst = int(value)
            if dst >= state_count:
                raise error(f"state {dst} not declared", offset)
            i += 4
            sig: Tuple[int, ...] = ()
            if tokens[i][1] == "{":
                sig, i = _parse_signature(reader, i)
            out.append((symbol, dst, sig))
        elif kind == "header" and value == "State:":
            kind, value, offset = take(i + 1, "int", "state number")
            num = int(value)
            if num >= state_count:
                raise error(f"state {num} not declared", offset)
            if num in edges:
                raise error(f"state {num} declared twice", offset)
            i += 2
            label: Optional[str] = None
            if tokens[i][0] == "string":
                label = _unquote(tokens[i][1])
                i += 1
            sig = ()
            if tokens[i][1] == "{":
                sig, i = _parse_signature(reader, i)
            doc.states.append((num, label, sig))
            out = edges[num] = []
        elif kind == "marker":
            if value != "--END--":
                raise error("unexpected --BODY--", offset)
            break
        elif kind == "end":
            raise error("missing --END--", offset)
        else:
            raise error(f"unexpected token {value!r} in body", offset)
    return doc


def _parse_signature(reader: _Reader, i: int) -> Tuple[Tuple[int, ...], int]:
    """The set numbers in the braces that open at token i, and the index of
    the token after the closing brace."""
    tokens = reader.tokens
    sets: List[int] = []
    while True:
        i += 1
        kind, value, offset = tokens[i]
        if value == "}":
            return tuple(sets), i + 1
        if kind != "int":
            if kind == "end":
                raise reader.unexpected(i, "acceptance set or }")
            raise reader.error("acceptance signature must list set numbers", offset)
        sets.append(int(value))


def _acc_tokens_text(tokens: Optional[List[_Token]]) -> str:
    return " ".join(value for _, value, _ in tokens) if tokens else ""


def _argument_values(line: str) -> List[str]:
    """The values of the tokens after the header of `line`, an Acceptance:
    line as the writers emit it."""
    return [value for _, value, _ in _tokenize(line)[1:]]


# -- NBW (Buchi) parse / emit -------------------------------------------------

_BUCHI_ACCEPTANCE = "Acceptance: 1 Inf(0)"
_BUCHI_ACCEPTANCE_VALUES = _argument_values(_BUCHI_ACCEPTANCE)


def parse_nbw_hoa(text: str) -> NBW:
    doc = _parse_hoa_document(text)
    acc_name = _acc_tokens_text(doc.acc_name)
    acceptance = _acc_tokens_text(doc.acceptance)
    if acc_name and acc_name != "Buchi":
        raise UnsupportedAcceptanceError(
            f"unsupported acceptance {acc_name!r}: this reader takes Buchi input only"
        )
    if acceptance and [value for _, value, _ in doc.acceptance] != _BUCHI_ACCEPTANCE_VALUES:
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
        initial=tuple(names[i] for i in sorted({int(value) for _, value, _ in doc.start})),
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
    lines = _hoa_preamble(len(a.states), bits(a.initial_mask), a.alphabet)
    lines += ["acc-name: Buchi", _BUCHI_ACCEPTANCE, "--BODY--"]
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
    is a pure function of the automaton, so emission is byte stable."""
    on_transitions = d.acceptance_kind == "transition"
    pair_count = len(d.acceptance.indices)
    preamble = _hoa_preamble(len(d.payloads), [d.initial], d.alphabet)
    preamble += [f"acc-name: Rabin {pair_count}", _rabin_acceptance_line(pair_count)]
    preamble += ["properties: deterministic " + ("trans-acc" if on_transitions else "state-acc"), "--BODY--"]
    return "".join(["\n".join(preamble) + "\n", *_rabin_body(d), "--END--\n"])


# States per string of `_rabin_body`.
_BODY_BLOCK = 1024


def _rabin_body(d: Union[DRTW, DRW]) -> List[str]:
    """The HOA body, as strings of `_BODY_BLOCK` states each.  One `%`
    format of a per-state template interleaves the letters' columns: each
    letter's row of target numbers, formatted in C, and on a DRTW a C-level
    map of its mark row to the marks' texts.  A block's state strings are
    joined and freed before the next block is formatted, and the labels
    are freed when this returns, before the caller joins the text."""
    # A mark's signature has bit s set for each acceptance set s it is in;
    # each mark's text, with its line end, is rendered once.
    ends = [" {" + " ".join(map(str, bits(sig))) + "}\n" if sig else "\n" for sig in d.acceptance.signatures]
    labels = map(_quote, d.state_labels())
    letters = range(len(d.alphabet))
    if d.acceptance_kind == "transition":
        template = "State: %d %s\n" + "".join(f"[@s{k}] %d%s" for k in letters)
        columns = []
        for row, marked in zip(d.targets, d.marks):
            columns += [row, map(ends.__getitem__, marked)]
        states = zip(range(len(d.payloads)), labels, *columns)
    else:
        template = "State: %d %s%s" + "".join(f"[@s{k}] %d\n" for k in letters)
        states = zip(range(len(d.payloads)), labels, map(ends.__getitem__, d.marks[0]), *d.targets)
    texts = map(template.__mod__, states)
    return list(iter(lambda: "".join(islice(texts, _BODY_BLOCK)), ""))


def parse_rabin(text: str) -> Union[DRTW, DRW]:
    """Read back a Rabin document we emitted; payloads become the state
    label strings.  Used to show the format carries full acceptance.
    Marks are numbered by distinct signature in first-seen order, each
    with the empty annotation."""
    doc = _parse_hoa_document(text)
    if not doc.acc_name or doc.acc_name[0][1] != "Rabin":
        raise UnsupportedAcceptanceError(f"expected Rabin acceptance, got {_acc_tokens_text(doc.acc_name)!r}")
    if len(doc.acc_name) != 2 or doc.acc_name[1][0] != "int":
        raise ParseError("acc-name: Rabin needs one pair count", *_position(text, doc.acc_name[0][2]))
    pair_count = int(doc.acc_name[1][1])
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
    acceptance = RabinPairSet(tuple(range(pair_count)), tuple(numbers))
    missing = [(row.index(-1), j) for j, row in enumerate(targets) if -1 in row]
    if missing:
        src, j = min(missing)
        raise InputError(f"missing edge for state {src} symbol {alphabet[j]!r}")
    return cls(tuple(payloads), alphabet, int(doc.start[0][1]), tuple(map(tuple, targets)),
               tuple(map(tuple, marks)), (EMPTY_ANNOTATION,) * len(numbers), acceptance)


def _check_rabin_acceptance(acceptance: Optional[List[_Token]], pair_count: int) -> None:
    """Refuse any Acceptance: line but the one emit_rabin writes for
    `pair_count` pairs.  A pair takes several tokens, so a count above the
    line's token count is refused before anything is sized by it."""
    found = [value for _, value, _ in acceptance or ()]
    if pair_count <= len(found) and found == _argument_values(_rabin_acceptance_line(pair_count)):
        return
    raise UnsupportedAcceptanceError(f"acceptance {' '.join(found)!r} is not the Rabin condition on {pair_count} pairs")


# -- native JSON-lines ---------------------------------------------------------


def emit_nbw_native(a: NBW) -> str:
    header = {
        "format": "nbw",
        "states": list(a.states),
        "alphabet": list(a.alphabet),
        "initial": [a.states[i] for i in bits(a.initial_mask)],
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
