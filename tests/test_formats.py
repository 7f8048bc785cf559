import json
import re
import time
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from histree.automata import EMPTY_ANNOTATION
from histree.corpus import default_corpus
from histree.determinize import Determinizer, HistoryTree, build_drtw, build_drw
from histree.errors import InputError, ParseError
from histree.fixtures import e1, fixtures
from histree.formats import (
    _BODY_BLOCK,
    UnsupportedAcceptanceError,
    _position,
    _tokenize,
    emit_nbw_hoa,
    emit_nbw_native,
    emit_rabin,
    parse_nbw,
    parse_nbw_hoa,
    parse_nbw_native,
    parse_rabin,
    write_rabin,
)
from histree.oracle import det_lasso_member, lassos_upto
from rabin_edges import edge_map, signature_map

MINIMAL_HOA = """HOA: v1
States: 1
Start: 0
AP: 1 "a"
Alias: @a 0
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0 {0}
[@a] 0
--END--
"""


def test_minimal_document_parses():
    a = parse_nbw(MINIMAL_HOA)
    assert len(a.states) == 1
    assert a.alphabet == ("a",)
    assert a.finals == {"0"}
    assert a.initial == {"0"}


def test_parity_acceptance_rejected():
    doc = MINIMAL_HOA.replace("acc-name: Buchi", "acc-name: parity min even 2").replace(
        "Acceptance: 1 Inf(0)", "Acceptance: 2 Inf(0) | Fin(1)"
    )
    with pytest.raises(UnsupportedAcceptanceError):
        parse_nbw(doc)


def test_missing_acceptance_rejected():
    doc = MINIMAL_HOA.replace("acc-name: Buchi\n", "").replace("Acceptance: 1 Inf(0)\n", "")
    with pytest.raises(UnsupportedAcceptanceError):
        parse_nbw(doc)


MANGLED_BUCHI_ACCEPTANCE = ("1 In f(0)", "1 I n f ( 0 )")


def test_buchi_acceptance_is_compared_token_by_token():
    """The Acceptance: line must have the tokens of the one emit_nbw_hoa
    writes, spaced in any way; a line that splits a token is refused."""
    for spaced in ("1 Inf ( 0 )", "1 Inf(0)", "1Inf(0)"):
        assert parse_nbw_hoa(MINIMAL_HOA.replace("1 Inf(0)", spaced)).finals == {"0"}
    for mangled in MANGLED_BUCHI_ACCEPTANCE:
        found = " ".join(t[1] for t in _tokenize(mangled))
        with pytest.raises(UnsupportedAcceptanceError,
                           match=re.escape(f"unsupported acceptance condition {found!r}: expected 1 Inf(0)")):
            parse_nbw_hoa(MINIMAL_HOA.replace("1 Inf(0)", mangled))


def test_end_of_input_errors_are_reported_at_the_last_token():
    """An error at the end of the document is reported where it stops, at
    its last token, and an alias error inside an expression at its start."""
    with pytest.raises(ParseError, match=r"^3:7: missing --BODY--$"):
        parse_nbw('HOA: v1\nStates: 1\nAP: 1 "a"\n')
    alias_error = "alias expressions must be conjunctions of AP literals"
    with pytest.raises(ParseError, match=f"^4:8: {alias_error}$"):
        parse_nbw('HOA: v1\nStates: 1\nAP: 1 "a"\nAlias: @a\n')
    with pytest.raises(ParseError, match=f"^4:11: {alias_error}$"):
        parse_nbw('HOA: v1\nStates: 1\nAP: 1 "a"\nAlias: @a 0 &\n')


def test_hoa_round_trip_fixtures():
    for name, a in fixtures().items():
        assert parse_nbw(emit_nbw_hoa(a)) == a, name


def test_native_round_trip_fixtures():
    for name, a in fixtures().items():
        assert parse_nbw(emit_nbw_native(a)) == a, name


def test_parse_reports_position():
    broken = MINIMAL_HOA.replace("[@a] 0", "[@a] 7")
    with pytest.raises(ParseError) as err:
        parse_nbw(broken)
    assert "not declared" in str(err.value)
    assert err.value.line == 10

    with pytest.raises(ParseError) as err:
        parse_nbw("HOA: v1\nStates: $\n")
    assert err.value.line == 2


def test_propositional_labels_rejected():
    doc = MINIMAL_HOA.replace("[@a] 0", "[0&!1] 0")
    with pytest.raises(ParseError) as err:
        parse_nbw(doc)
    assert "propositional" in str(err.value)


def test_unknown_alias_rejected():
    doc = MINIMAL_HOA.replace("[@a] 0", "[@zz] 0")
    with pytest.raises(ParseError) as err:
        parse_nbw(doc)
    assert "alias" in str(err.value)


def test_transition_acceptance_input_rejected():
    doc = MINIMAL_HOA.replace("[@a] 0", "[@a] 0 {0}")
    with pytest.raises(InputError):
        parse_nbw(doc)


def test_out_of_range_start_rejected():
    doc = MINIMAL_HOA.replace("Start: 0", "Start: 3")
    with pytest.raises(ParseError) as err:
        parse_nbw(doc)
    assert "start state 3 not declared" in str(err.value)
    assert (err.value.line, err.value.column) == (3, 8)


def test_conjunctive_start_rejected():
    doc = MINIMAL_HOA.replace("Start: 0", "Start: 0 & 0")
    with pytest.raises(ParseError):
        parse_nbw(doc)


def test_start_may_be_absent():
    doc = MINIMAL_HOA.replace("Start: 0\n", "")
    a = parse_nbw(doc)
    assert a.initial == frozenset()


def test_native_error_positions():
    with pytest.raises(ParseError) as err:
        parse_nbw_native('{"format": "nbw"}\n')
    assert err.value.line == 1
    good_header = (
        '{"format": "nbw", "states": ["p"], "alphabet": ["a"],'
        ' "initial": ["p"], "finals": []}\n'
    )
    with pytest.raises(ParseError) as err:
        parse_nbw_native(good_header + '{"from": "p", "symbol": "a", "to": "zz"}\n')
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_nbw_native(good_header + "not json\n")
    # Undeclared initial or final states are reported at the header's own
    # line, which leading blank lines push past line 1.
    for key in ("initial", "finals"):
        header = {"format": "nbw", "states": ["p"], "alphabet": ["a"], "initial": [], "finals": [], key: ["x"]}
        with pytest.raises(ParseError, match=f"^3:1: {key} state 'x' not declared$"):
            parse_nbw_native("\n\n" + json.dumps(header) + "\n")


NON_STRING_DOCUMENTS = [
    '{"format": "nbw", "states": [1, 2], "alphabet": ["a"], "initial": [1], "finals": []}\n',
    '{"format": "nbw", "states": [[1]], "alphabet": ["a"], "initial": [], "finals": []}\n',
    '{"format": "nbw", "states": [true], "alphabet": ["a"], "initial": [1], "finals": []}\n',
]
NON_STRING_IDS = ["int-states", "list-states", "bool-states"]


# Per header, an earlier copy placed above MINIMAL_HOA's own line: if the
# later header won, each document would parse.
REPEATED_HEADERS = {
    "States:": "States: 3\n",
    "AP:": 'AP: 2 "a" "b"\n',
    "acc-name:": "acc-name: Rabin 1\n",
    "Acceptance:": "Acceptance: 2 (Fin(0)&Inf(1))\n",
}


def repeated_header_document(header):
    """MINIMAL_HOA with `header` given twice, and the repeat's line."""
    lines = MINIMAL_HOA.splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith(header))
    lines.insert(at, REPEATED_HEADERS[header])
    return "".join(lines), at + 2


@pytest.mark.parametrize("header", REPEATED_HEADERS)
def test_repeated_header_is_refused_at_the_repeat(header):
    text, line = repeated_header_document(header)
    with pytest.raises(ParseError, match=f"repeated {header} header") as err:
        parse_nbw(text)
    assert (err.value.line, err.value.column) == (line, 1)


@pytest.mark.parametrize("doc", NON_STRING_DOCUMENTS, ids=NON_STRING_IDS)
def test_native_header_items_must_be_strings(doc):
    with pytest.raises(ParseError) as err:
        parse_nbw_native(doc)
    assert err.value.line == 1


def test_native_transition_fields_must_be_strings():
    header = '{"format": "nbw", "states": ["p"], "alphabet": ["a"], "initial": ["p"], "finals": []}\n'
    for record in ('{"from": ["p"], "symbol": "a", "to": "p"}', '{"from": "p", "symbol": {}, "to": "p"}'):
        with pytest.raises(ParseError) as err:
            parse_nbw_native(header + record + "\n")
        assert err.value.line == 2


# A two-state, two-letter Buchi document whose states carry names.
TWO_STATE_HOA = """HOA: v1
States: 2
Start: 0
AP: 2 "a" "b"
Alias: @a 0&!1
Alias: @b !0&1
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0 "p" {0}
[@a] 0
[@b] 1
State: 1 "q"
[@a] 1
[@b] 0
--END--
"""

NATIVE_HEADER = '{"format": "nbw", "states": ["p"], "alphabet": ["a"], "initial": ["p"], "finals": []}\n'


def _e1_rabin(starts):
    return emit_rabin(build_drtw(e1())).replace("Start: 0\n", starts)


# Refusals as each reader words them today: (case, reader, document,
# exception type, message), the message with its line:column where the
# error is a ParseError.
REFUSALS = [
    ("states at end of input", parse_nbw, "HOA: v1\nStates:",
     ParseError, "2:1: unexpected end of input, expected state count"),
    ("alias AP out of range", parse_nbw, MINIMAL_HOA.replace("Alias: @a 0", "Alias: @a 3"),
     ParseError, "5:11: AP 3 out of range"),
    ("alias with two positive APs", parse_nbw, TWO_STATE_HOA.replace("Alias: @b !0&1", "Alias: @b 0&1"),
     ParseError, "6:11: alias must name exactly one symbol: one positive AP, all others negated"),
    ("--END-- in the header", parse_nbw, MINIMAL_HOA.replace("--BODY--", "--END--"),
     ParseError, "8:1: expected --BODY--"),
    ("edge label without ]", parse_nbw, MINIMAL_HOA.replace("[@a] 0", "[@a & 0"),
     ParseError, "10:5: expected ]"),
    ("signature at end of input", parse_nbw, MINIMAL_HOA.split("State:")[0] + "State: 0 {0",
     ParseError, "9:11: unexpected end of input, expected acceptance set or }"),
    ("edge before any State:", parse_nbw, MINIMAL_HOA.replace("--BODY--\n", "--BODY--\n[@a] 0\n"),
     ParseError, "9:1: edge before any State:"),
    ("undeclared State:", parse_nbw, MINIMAL_HOA.replace("State: 0 {0}", "State: 3 {0}"),
     ParseError, "9:8: state 3 not declared"),
    ("repeated State:", parse_nbw, MINIMAL_HOA.replace("--END--", "State: 0\n[@a] 0\n--END--"),
     ParseError, "11:8: state 0 declared twice"),
    ("second --BODY--", parse_nbw, MINIMAL_HOA.replace("--BODY--\n", "--BODY--\n--BODY--\n"),
     ParseError, "9:1: unexpected --BODY--"),
    ("missing --END--", parse_nbw, MINIMAL_HOA.replace("--END--\n", ""),
     ParseError, "10:6: missing --END--"),
    ("missing --END-- after an empty body", parse_nbw, MINIMAL_HOA.split("State:")[0],
     ParseError, "8:1: missing --END--"),
    ("signature naming no set", parse_nbw, MINIMAL_HOA.replace("State: 0 {0}", "State: 0 {a}"),
     ParseError, "9:11: acceptance signature must list set numbers"),
    ("Buchi set 1", parse_nbw, MINIMAL_HOA.replace("State: 0 {0}", "State: 0 {1}"),
     InputError, "state 0: Buchi input uses only acceptance set 0"),
    ("duplicate state names", parse_nbw, TWO_STATE_HOA.replace('"q"', '"p"'),
     InputError, "duplicate state names"),
    ("missing alias", parse_nbw,
     TWO_STATE_HOA.replace("Alias: @b !0&1\n", "").replace("[@b] 1\n", "").replace("[@b] 0\n", ""),
     InputError, "expected exactly one alias per atomic proposition"),
    ("duplicate alias", parse_nbw, TWO_STATE_HOA.replace("Alias: @b !0&1", "Alias: @b 0&!1"),
     InputError, "two aliases name the same symbol"),
    ("Rabin without Start:", parse_rabin, _e1_rabin(""),
     InputError, "deterministic automata need exactly one start state"),
    ("Rabin with two Start:", parse_rabin, _e1_rabin("Start: 0\nStart: 0\n"),
     InputError, "deterministic automata need exactly one start state"),
    ("native empty document", parse_nbw_native, "",
     ParseError, "1:1: empty document"),
    ("native wrong format", parse_nbw_native, '{"format": "dpa"}\n',
     ParseError, '1:1: header must set "format": "nbw"'),
    ("native non-object transition", parse_nbw_native, NATIVE_HEADER + "[1]\n",
     ParseError, '2:1: transition lines need "from", "symbol", "to"'),
    ("native unknown symbol", parse_nbw_native, NATIVE_HEADER + '{"from": "p", "symbol": "b", "to": "p"}\n',
     ParseError, "2:1: transition symbol not in alphabet"),
]


@pytest.mark.parametrize("reader, text, error, message", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_refusals_keep_their_type_message_and_position(reader, text, error, message):
    with pytest.raises(InputError) as err:
        reader(text)
    assert (type(err.value), str(err.value)) == (error, message)


def test_unrecognized_format():
    with pytest.raises(ParseError):
        parse_nbw("digraph {}\n")


def test_emit_rabin_is_byte_stable():
    a = e1()
    first = emit_rabin(build_drtw(a))
    second = emit_rabin(build_drtw(a))
    assert first == second
    assert first.encode() == second.encode()


def test_emit_rabin_zero_pairs():
    from histree.fixtures import no_finals

    text = emit_rabin(build_drtw(no_finals()))
    assert "acc-name: Rabin 0" in text
    assert "Acceptance: 0 f" in text


def test_reparsed_rabin_preserves_verdicts():
    for name in ("e1", "finitely_many_b", "spawn_die_respawn", "branch_union"):
        a = fixtures()[name]
        for build in (build_drtw, build_drw):
            d = build(a)
            back = parse_rabin(emit_rabin(d))
            assert type(back) is type(d)
            for w in lassos_upto(a.alphabet, 3, 3):
                assert det_lasso_member(back, w) == det_lasso_member(d, w), (name, w)


def test_rabin_documents_round_trip_byte_for_byte():
    """Every build's document reads back to an automaton that writes the
    same bytes: its edges survive, and so does each edge's or state's
    signature, though the reader numbers the marks its own way."""
    count = 0
    for a in list(fixtures().values()) + default_corpus(count=40):
        for strict in (False, True):
            engine = Determinizer(a, "canonical", strict_marks=strict)
            for mode in ("canonical", "baseline"):
                for build in (engine.build_drtw, engine.build_drw):
                    d = build(mode)
                    text = emit_rabin(d)
                    back = parse_rabin(text)
                    assert emit_rabin(back) == text
                    assert back.targets == d.targets
                    assert signature_map(back) == signature_map(d)
                    count += 1
    assert count == 8 * 51


class RecordingStream:
    """A text stream that keeps each write, and what `probe` read at it."""

    def __init__(self, probe=lambda: None):
        self.writes, self.probes, self._probe = [], [], probe

    def write(self, text):
        self.writes.append(text)
        self.probes.append(self._probe())
        return len(text)


def test_write_rabin_writes_the_emitted_text():
    """The writer and `emit_rabin` share one path: for every build, the
    writes add up to the emitted text."""
    count = 0
    for a in list(fixtures().values()) + default_corpus(count=40):
        for strict in (False, True):
            engine = Determinizer(a, "canonical", strict_marks=strict)
            for mode in ("canonical", "baseline"):
                for build in (engine.build_drtw, engine.build_drw):
                    d = build(mode)
                    stream = RecordingStream()
                    write_rabin(d, stream)
                    assert "".join(stream.writes) == emit_rabin(d)
                    count += 1
    assert count == 8 * 51


def _michel5_drtw():
    path = Path(__file__).parent / "fixtures" / "michel5.hoa"
    return build_drtw(parse_nbw(path.read_text(encoding="utf-8")))


def test_write_rabin_renders_labels_block_by_block(monkeypatch):
    """Michel m=5's canonical DRTW (2,163 states) reaches the stream in
    five writes: the preamble, three body blocks of at most `_BODY_BLOCK`
    states, and `--END--`.  Each label is rendered as its block is
    formatted, so the first body write comes after `_BODY_BLOCK` renders,
    not after all of them."""
    d = _michel5_drtw()
    assert len(d.payloads) == 2163
    renders = 0
    render = HistoryTree.render

    def counting(self, *args):
        nonlocal renders
        renders += 1
        return render(self, *args)

    monkeypatch.setattr(HistoryTree, "render", counting)
    stream = RecordingStream(lambda: renders)
    write_rabin(d, stream)
    assert [w.count("State: ") for w in stream.writes] == [0, _BODY_BLOCK, _BODY_BLOCK, 2163 - 2 * _BODY_BLOCK, 0]
    assert stream.writes[0].endswith("--BODY--\n") and stream.writes[-1] == "--END--\n"
    assert stream.probes == [0, _BODY_BLOCK, 2 * _BODY_BLOCK, 2163, 2163]
    monkeypatch.undo()
    assert "".join(stream.writes) == emit_rabin(d)


def test_parse_rabin_refuses_sets_past_its_pairs():
    text = emit_rabin(build_drtw(e1()))
    assert "acc-name: Rabin 1\n" in text and "[@s0] 1 {1}\n" in text
    assert signature_map(parse_rabin(text)) == {(1, "a"): 0b10}
    for sets in ("{2}", "{0 1 2}", "{3}", "{100000000000000000000}"):
        with pytest.raises(InputError, match="acceptance set out of range for 1 pairs"):
            parse_rabin(text.replace("[@s0] 1 {1}\n", f"[@s0] 1 {sets}\n"))


TWO_LETTER_RABIN = """HOA: v1
States: 2
Start: 0
AP: 2 "a" "b"
Alias: @s0 0&!1
Alias: @s1 !0&1
acc-name: Rabin 1
Acceptance: 2 (Fin(0)&Inf(1))
properties: deterministic trans-acc
--BODY--
State: 0 "x"
[@s0] 1 {1}
[@s1] 0
State: 1 "y"
[@s1] 1 {0 1}
[@s0] 0 {1}
--END--
"""


def test_parse_rabin_numbers_marks_by_signature():
    """Edges with equal sets share one mark, numbered by first sight with
    the empty annotation; the edges are the document's, in any order."""
    d = parse_rabin(TWO_LETTER_RABIN)
    assert d.targets == ((1, 0), (0, 1))
    assert d.marks == ((0, 0), (1, 2))
    assert d.acceptance.signatures == (0b10, 0, 0b11)
    assert d.annotations == (EMPTY_ANNOTATION,) * 3
    assert signature_map(d) == {(0, "a"): 0b10, (1, "a"): 0b10, (1, "b"): 0b11}
    assert edge_map(d) == {(0, "a"): (1, EMPTY_ANNOTATION), (0, "b"): (0, EMPTY_ANNOTATION),
                           (1, "a"): (0, EMPTY_ANNOTATION), (1, "b"): (1, EMPTY_ANNOTATION)}
    drw = parse_rabin(
        "HOA: v1\nStates: 3\nStart: 0\nAP: 1 \"a\"\nAlias: @s0 0\nacc-name: Rabin 1\n"
        "Acceptance: 2 (Fin(0)&Inf(1))\nproperties: deterministic state-acc\n--BODY--\n"
        "State: 0 {1}\n[@s0] 1\nState: 1\n[@s0] 2\nState: 2 {1}\n[@s0] 0\n--END--\n"
    )
    assert (drw.targets, drw.marks, drw.acceptance.signatures) == (((1, 2, 0),), ((0, 1, 0),), (0b10, 0))
    assert signature_map(drw) == {0: 0b10, 2: 0b10}


def test_parse_rabin_refuses_duplicate_and_missing_edges():
    assert "[@s1] 0\n" in TWO_LETTER_RABIN
    with pytest.raises(InputError, match="^duplicate edge for state 0 symbol 'a'$"):
        parse_rabin(TWO_LETTER_RABIN.replace("[@s1] 0\n", "[@s0] 0\n"))
    with pytest.raises(InputError, match="^missing edge for state 0 symbol 'b'$"):
        parse_rabin(TWO_LETTER_RABIN.replace("[@s1] 0\n", ""))


def test_parse_rabin_requires_rabin():
    with pytest.raises(UnsupportedAcceptanceError):
        parse_rabin(MINIMAL_HOA)


def test_rabin_pair_count_must_be_a_number():
    text = emit_rabin(build_drtw(e1()))
    assert "acc-name: Rabin 1\n" in text
    for bad in ("acc-name: Rabin\n", "acc-name: Rabin x\n"):
        with pytest.raises(ParseError) as err:
            parse_rabin(text.replace("acc-name: Rabin 1\n", bad))
        assert "pair count" in str(err.value)
    # The Acceptance: line must be the condition the pair count names; a
    # huge count is refused before anything is sized by it.
    huge = text.replace("acc-name: Rabin 1\n", "acc-name: Rabin 1000000\n")
    started = time.perf_counter()
    with pytest.raises(UnsupportedAcceptanceError, match="not the Rabin condition on 1000000 pairs"):
        parse_rabin(huge)
    assert time.perf_counter() - started < 1
    line = "Acceptance: 2 (Fin(0)&Inf(1))\n"
    assert line in text
    for bad in ("Acceptance: 2 (Fin(1)&Inf(0))\n", "Acceptance: 2 Fin(0)|Inf(1)\n", "Acceptance: 0 f\n", ""):
        with pytest.raises(UnsupportedAcceptanceError):
            parse_rabin(text.replace(line, bad))


def test_acceptance_marks_in_the_wrong_place_are_refused():
    """Where marks sit follows the properties line; a document whose marks
    sit in the other place is refused, not read as accepting nothing."""
    drtw = emit_rabin(build_drtw(e1()))
    assert "properties: deterministic trans-acc\n" in drtw and "[@s0] 1 {1}\n" in drtw
    relabelled = drtw.replace("trans-acc", "state-acc")
    with pytest.raises(UnsupportedAcceptanceError, match="edge acceptance in a state-acc document"):
        parse_rabin(relabelled)
    drw = emit_rabin(build_drw(e1()))
    assert "properties: deterministic state-acc\n" in drw and "[+{} -{}]\" {0}\n" in drw
    with pytest.raises(UnsupportedAcceptanceError, match="state acceptance in a trans-acc document"):
        parse_rabin(drw.replace("state-acc", "trans-acc"))


def test_acc_name_must_match_exactly():
    buchi = emit_nbw_hoa(e1())
    assert "acc-name: Buchi\n" in buchi
    for bad in ("acc-name: Buchixyz 7\n", "acc-name: Buchi 7\n", "acc-name: generalized-Buchi 1\n"):
        with pytest.raises(UnsupportedAcceptanceError):
            parse_nbw(buchi.replace("acc-name: Buchi\n", bad))
    rabin = emit_rabin(build_drtw(e1()))
    with pytest.raises(UnsupportedAcceptanceError):
        parse_rabin(rabin.replace("acc-name: Rabin 1\n", "acc-name: Rabinxyz 1\n"))
    with pytest.raises(ParseError, match="pair count"):
        parse_rabin(rabin.replace("acc-name: Rabin 1\n", "acc-name: Rabin 1 1\n"))


def test_declared_states_need_blocks_before_anything_is_sized():
    """Both readers check the State: blocks against the States: header
    before sizing anything by it, so a huge header is an InputError."""
    rabin = emit_rabin(build_drtw(fixtures()["single_final_loop"]))
    assert "States: 1\n" in rabin
    for parse, text in ((parse_rabin, rabin), (parse_nbw_hoa, MINIMAL_HOA)):
        huge = text.replace("States: 1\n", "States: 100000000000\n")
        with pytest.raises(InputError, match="^state 1 has no State: block$"):
            parse(huge)


@lru_cache(maxsize=None)
def _documents():
    """Emitted HOA, native and Rabin documents of fixtures and corpus automata."""
    docs = []
    for a in list(fixtures().values()) + default_corpus(count=10):
        docs += [emit_nbw_hoa(a), emit_nbw_native(a)]
        docs += [emit_rabin(build_drtw(a)), emit_rabin(build_drw(a, "baseline"))]
    return tuple(docs)


FUZZ_CHARS = 'HOAStrv:1023789 \n"\\@{}[]()&|!-_xRz'


@st.composite
def mutated_documents(draw):
    """A corpus document with one to three edits.  An edit picks a line,
    half of the time among the headers above --BODY--, and replaces one of
    its space-separated words, or a run of up to three characters at any
    column, with up to three drawn characters."""
    lines = draw(st.sampled_from(_documents())).split("\n")
    headers = lines.index("--BODY--") if "--BODY--" in lines else 1
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, draw(st.sampled_from((headers, len(lines)))) - 1))
        insert = draw(st.text(alphabet=FUZZ_CHARS, max_size=3))
        if draw(st.booleans()):
            words = lines[i].split(" ")
            words[draw(st.integers(0, len(words) - 1))] = insert
            lines[i] = " ".join(words)
        else:
            j = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:j] + insert + lines[i][j + draw(st.integers(0, 3)) :]
    return "\n".join(lines)


# The two crash classes a 20,000-mutation random run found (an undeclared
# start state, a missing or non-numeric Rabin pair count), pinned so that
# every run replays them.
_E1_RABIN = emit_rabin(build_drtw(e1()))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutated_documents())
@example(MINIMAL_HOA.replace("Start: 0", "Start: 3"))
@example(_E1_RABIN.replace("acc-name: Rabin 1", "acc-name: Rabin"))
@example(_E1_RABIN.replace("acc-name: Rabin 1", "acc-name: Rabin x"))
def test_mutated_documents_raise_only_input_errors(text):
    for parse in (parse_nbw, parse_rabin):
        try:
            parse(text)
        except InputError:
            pass


def test_hoa_symbols_with_odd_characters():
    from histree.automata import NBW

    a = NBW.make(("st 1", 'q"2'), ("sym one", "sym\\two"), [("st 1", "sym one", 'q"2')], ("st 1",), ('q"2',))
    assert parse_nbw(emit_nbw_hoa(a)) == a
    assert parse_nbw(emit_nbw_native(a)) == a


def test_nbw_writers_reject_invalid_automata():
    """The writers read the automaton's state encoding, which a duplicated
    state name would make ambiguous, so no writer can be handed one: the
    constructor refuses it."""
    from histree.automata import NBW

    with pytest.raises(InputError, match="^invalid automaton: duplicate state ids in state list$"):
        NBW.make(("p", "p"), ("a",), [("p", "a", "p")], ("p",), ())


def test_specific_parsers_reject_other_format():
    with pytest.raises(ParseError):
        parse_nbw_hoa('{"format": "nbw"}')
    with pytest.raises(ParseError):
        parse_nbw_native(MINIMAL_HOA)


# -- the tokenizer against its reference -----------------------------------

_REFERENCE_TOKEN_RE = re.compile(
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


def reference_tokenize(text):
    """The tokenizer as one anchored match per token, tracking the line and
    column as it goes: the specification of `_tokenize`."""
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append((kind, value, line, pos - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return ("error", str(err), err.line, err.column)


def assert_tokenizers_agree(text):
    got = _tokens_or_error(lambda t: [(kind, value, *_position(t, offset)) for kind, value, offset in _tokenize(t)], text)
    assert got == _tokens_or_error(reference_tokenize, text), text[:200]


TOKENIZER_HAND_CASES = [
    "",
    " \t\r\n ",
    MINIMAL_HOA.replace("\n", "\r\n"),
    MINIMAL_HOA.replace(" ", "\t"),
    MINIMAL_HOA.replace('AP: 1 "a"', 'AP: 1 "a\r\nb\n c"'),
    MINIMAL_HOA.replace('AP: 1 "a"', 'AP: 1 "a\\"\nb"'),
    MINIMAL_HOA + "$",
    MINIMAL_HOA.rstrip("\n") + "\r\n\t~",
    MINIMAL_HOA.replace('"a"', '"a'),
    "HOA: v1\n\n\tStates: 2 $ 3",
    "--BODY-- --END-- --X",
]


def test_tokenizer_matches_the_reference_on_documents_and_hand_cases():
    texts = [path.read_text(encoding="utf-8") for path in sorted((Path(__file__).parent / "fixtures").iterdir())]
    builds = [build(a, mode) for a in fixtures().values() for build in (build_drtw, build_drw)
              for mode in ("canonical", "baseline")]
    texts += [emit_nbw_hoa(a) for a in list(fixtures().values()) + default_corpus()]
    texts += [emit_rabin(d) for d in builds]
    for text in texts + TOKENIZER_HAND_CASES:
        assert_tokenizers_agree(text)
    # A bad last character, an unclosed string, and a bad character after a
    # tab are each reported where they stand.
    errors = [_tokens_or_error(_tokenize, text) for text in TOKENIZER_HAND_CASES]
    assert [e[1:] for e in errors if isinstance(e, tuple)] == [
        ("12:1: unexpected character '$'", 12, 1),
        ("12:2: unexpected character '~'", 12, 2),
        ("4:7: unexpected character '\"'", 4, 7),
        ("3:12: unexpected character '$'", 3, 12),
        ("1:18: unexpected character '-'", 1, 18),
    ]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutated_documents())
def test_tokenizer_matches_the_reference_on_mutated_documents(text):
    assert_tokenizers_agree(text)
