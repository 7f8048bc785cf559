import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from histree.cli import main
from histree.fixtures import e1, spawn_die_respawn
from histree.formats import emit_nbw_hoa, emit_nbw_native, parse_rabin
from test_formats import (
    MANGLED_BUCHI_ACCEPTANCE,
    NON_STRING_DOCUMENTS,
    NON_STRING_IDS,
    REPEATED_HEADERS,
    repeated_header_document,
)


@pytest.fixture()
def e1_file(tmp_path):
    path = tmp_path / "e1.native"
    path.write_text(emit_nbw_native(e1()), encoding="utf-8")
    return str(path)


def test_determinize_writes_hoa(e1_file, capsys):
    assert main(["determinize", "--in", e1_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("HOA: v1")
    d = parse_rabin(out)
    assert len(d.payloads) == 2


def test_determinize_modes_and_outputs(e1_file, capsys):
    for mode in ("baseline", "canonical"):
        for out_kind in ("drtw", "drw"):
            rc = main(["determinize", "--in", e1_file, "--mode", mode, "--out", out_kind])
            assert rc == 0
            text = capsys.readouterr().out
            expected = "state-acc" if out_kind == "drw" else "trans-acc"
            assert expected in text


def test_determinize_reads_hoa_input(tmp_path, capsys):
    path = tmp_path / "e1.hoa"
    path.write_text(emit_nbw_hoa(e1()), encoding="utf-8")
    assert main(["determinize", "--in", str(path)]) == 0
    assert "Rabin" in capsys.readouterr().out


def test_verify_equivalent(e1_file, capsys):
    assert main(["verify", "--in", e1_file, "--max-u", "3", "--max-v", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("counterexample=none") == 3
    assert "target=canonical-drtw" in out


def test_verify_strict_marks_finds_counterexample(tmp_path, capsys):
    path = tmp_path / "sdr.native"
    path.write_text(emit_nbw_native(spawn_die_respawn()), encoding="utf-8")
    rc = main(["verify", "--in", str(path), "--max-u", "4", "--max-v", "4", "--strict-paper-marks"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "counterexample=u:-;v:a,a,b" in out


def _without_timings(text):
    return [line for line in text.splitlines() if not line.startswith("seconds=")]


def test_options_do_not_carry_over_between_calls(tmp_path, capsys):
    """The parser is built once per process, so a flag given to one call
    must not reach the next: in-process calls match separate processes."""
    path = tmp_path / "sdr.native"
    path.write_text(emit_nbw_native(spawn_die_respawn()), encoding="utf-8")
    runs = [["verify", "--in", str(path), "--strict-paper-marks"], ["verify", "--in", str(path)]]
    in_process = []
    for argv in runs:
        rc = main(argv)
        in_process.append((rc, _without_timings(capsys.readouterr().out)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    separate = []
    for argv in runs:
        done = subprocess.run([sys.executable, "-m", "histree.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)
        separate.append((done.returncode, _without_timings(done.stdout)))
    assert [rc for rc, _ in in_process] == [1, 0]
    assert in_process == separate


def test_gen_table_golden(capsys):
    assert main(["gen-table", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "ε\t0\t1"
    assert "1.1.1\t3\t1" in out


def test_gen_table_past_the_cap_exits_2(capsys):
    started = time.monotonic()
    assert main(["gen-table", "--n", "64"]) == 2
    assert time.monotonic() - started < 5
    captured = capsys.readouterr()
    assert "capped at n <= 20" in captured.err
    assert captured.out == ""


def test_targets_explore_once(monkeypatch):
    """The three targets explore one tree graph: each DRTW state's tree is
    stepped once, in discovery order, and no tree twice.  A step counts
    when it builds new phases."""
    from histree.cli import _targets
    from histree.determinize import Determinizer

    stepped = []
    step = Determinizer._step

    def counting(self, tree):
        before = self._last_phases
        phases = step(self, tree)
        if phases is not before:
            stepped.append(tree)
        return phases

    monkeypatch.setattr(Determinizer, "_step", counting)
    for a in (e1(), spawn_die_respawn()):
        stepped.clear()
        targets = dict(_targets(a, strict=False))
        assert list(targets) == ["canonical-drtw", "baseline-drtw", "canonical-drw"]
        drtw = targets["canonical-drtw"]
        assert stepped == list(drtw.payloads)
        assert len(set(stepped)) == len(stepped)
        assert targets["baseline-drtw"].payloads == drtw.payloads
        assert targets["baseline-drtw"].stats.mode == "baseline"


def test_targets_assemble_three_pair_sets(monkeypatch):
    """The three targets assemble the baseline DRTW's pairs, the canonical
    DRTW's and the DRW's, once each: the canonical DRTW is built once."""
    import histree.determinize as determinize
    from histree.cli import _targets

    calls = []
    assemble = determinize.assemble_pairs

    def counting(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(determinize, "assemble_pairs", counting)
    for a in (e1(), spawn_die_respawn()):
        calls.clear()
        assert [label for label, _ in _targets(a, strict=False)] == ["canonical-drtw", "baseline-drtw", "canonical-drw"]
        assert len(calls) == 3


def test_stats_lists_all_targets(e1_file, capsys):
    assert main(["stats", "--in", e1_file]) == 0
    out = capsys.readouterr().out
    assert "target=canonical-drtw" in out
    assert "target=baseline-drtw" in out
    assert "pairs=1" in out
    assert "states=3" in out  # the DRW build


def test_render_writes_dot(e1_file, tmp_path, capsys):
    out_path = tmp_path / "e1.dot"
    assert main(["render", "--in", e1_file, "--dot", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8").startswith("digraph")


def test_missing_file_is_input_error(tmp_path, capsys):
    rc = main(["determinize", "--in", str(tmp_path / "absent.hoa")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_document_is_input_error(tmp_path, capsys):
    path = tmp_path / "junk.hoa"
    path.write_text("HOA: v1\nStates: $$$\n", encoding="utf-8")
    assert main(["determinize", "--in", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_undeclared_start_state_exits_2(tmp_path, capsys):
    path = tmp_path / "start.hoa"
    text = emit_nbw_hoa(e1()).replace("Start: 0", "Start: 3")
    path.write_text(text, encoding="utf-8")
    assert main(["determinize", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert "start state 3 not declared" in captured.err
    assert "Traceback" not in captured.err


def test_unsupported_acceptance_is_input_error(tmp_path, capsys):
    path = tmp_path / "parity.hoa"
    text = emit_nbw_hoa(e1()).replace("acc-name: Buchi", "acc-name: parity min even 2")
    path.write_text(text, encoding="utf-8")
    assert main(["determinize", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "acceptance" in err


@pytest.mark.parametrize("mangled", MANGLED_BUCHI_ACCEPTANCE)
def test_mangled_buchi_acceptance_exits_2(mangled, tmp_path, capsys):
    path = tmp_path / "mangled.hoa"
    text = emit_nbw_hoa(e1()).replace("Acceptance: 1 Inf(0)", "Acceptance: " + mangled)
    path.write_text(text, encoding="utf-8")
    assert main(["determinize", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert "expected 1 Inf(0)" in captured.err
    assert "Traceback" not in captured.err


def test_misspelled_acceptance_name_exits_2(tmp_path, capsys):
    path = tmp_path / "buchixyz.hoa"
    text = emit_nbw_hoa(e1()).replace("acc-name: Buchi", "acc-name: Buchixyz 7")
    path.write_text(text, encoding="utf-8")
    assert main(["determinize", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert "Buchixyz 7" in captured.err
    assert "Traceback" not in captured.err


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.native"
    path.write_bytes(emit_nbw_native(e1()).replace('"p"', '"\u00e9"').encode("latin-1"))
    assert main(["determinize", "--in", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_deeply_nested_native_line_is_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.native"
    depth = 100_000
    path.write_text('{"format": ' + "[" * depth + "]" * depth + "}\n", encoding="utf-8")
    assert main(["determinize", "--in", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_verify_rejects_empty_lasso_bounds(e1_file, capsys):
    for bounds in (["--max-v", "0"], ["--max-u", "-1"]):
        assert main(["verify", "--in", e1_file, *bounds]) == 2
        captured = capsys.readouterr()
        assert "counterexample=none" not in captured.out
        assert "error:" in captured.err


def test_verify_rejects_lasso_bounds_past_the_cap(tmp_path, capsys):
    path = tmp_path / "sdr.native"
    path.write_text(emit_nbw_native(spawn_die_respawn()), encoding="utf-8")
    started = time.monotonic()
    assert main(["verify", "--in", str(path), "--max-u", "30"]) == 2
    assert time.monotonic() - started < 10
    captured = capsys.readouterr()
    assert "counterexample=" not in captured.out
    assert "exceed" in captured.err


def test_verify_rejects_lassos_past_the_length_cap(tmp_path, capsys):
    path = tmp_path / "e1.hoa"
    path.write_text(emit_nbw_hoa(e1()), encoding="utf-8")
    started = time.monotonic()
    assert main(["verify", "--in", str(path), "--max-u", "0", "--max-v", "1000000"]) == 2
    assert time.monotonic() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: lasso bounds max_u=0, max_v=1000000 exceed 100 letters")


def test_render_rejects_invalid_automaton(tmp_path, capsys):
    path = tmp_path / "dup.native"
    path.write_text(
        '{"format": "nbw", "states": ["p", "p"], "alphabet": ["a"], "initial": ["p"], "finals": []}\n',
        encoding="utf-8",
    )
    dot = tmp_path / "out.dot"
    assert main(["render", "--in", str(path), "--dot", str(dot)]) == 2
    assert "invalid automaton: duplicate state ids" in capsys.readouterr().err
    assert not dot.exists()


@pytest.mark.parametrize("command", ["determinize", "verify", "stats"])
@pytest.mark.parametrize("alphabet, problem", [
    (["a", "a"], "duplicate symbols in alphabet"),
    ([""], "empty symbol token in alphabet"),
], ids=["duplicate symbol", "empty symbol"])
def test_invalid_alphabet_exits_2(command, alphabet, problem, tmp_path, capsys):
    path = tmp_path / "alphabet.native"
    header = {"format": "nbw", "states": ["p"], "alphabet": alphabet, "initial": ["p"], "finals": ["p"]}
    edge = {"from": "p", "symbol": alphabet[0], "to": "p"}
    path.write_text(json.dumps(header) + "\n" + json.dumps(edge) + "\n", encoding="utf-8")
    assert main([command, "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: invalid automaton: {problem}\n")


@pytest.mark.parametrize("doc", NON_STRING_DOCUMENTS, ids=NON_STRING_IDS)
def test_non_string_native_items_exit_2(doc, tmp_path, capsys):
    path = tmp_path / "typed.native"
    path.write_text(doc, encoding="utf-8")
    assert main(["verify", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert "must list strings" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("header", REPEATED_HEADERS)
def test_repeated_header_exits_2(header, tmp_path, capsys):
    text, line = repeated_header_document(header)
    path = tmp_path / "repeated.hoa"
    path.write_text(text, encoding="utf-8")
    assert main(["determinize", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {line}:1: repeated {header} header\n"
    assert captured.out == ""


def test_capacity_error_prints_partial_stats(monkeypatch, capsys):
    from histree import cli
    from histree.determinize import Determinizer

    def capped(nbw, mode, strict_marks, max_states):
        return Determinizer(nbw, mode, strict_marks, max_states=3)

    michel4 = str(Path(__file__).parent / "fixtures" / "michel4.hoa")
    monkeypatch.setattr(cli, "Determinizer", capped)
    for command in (["determinize", "--in", michel4], ["stats", "--in", michel4]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: state limit 3 exceeded\nmode=canonical\n")
        assert "states=3\n" in captured.err


def test_max_states_limits_determinize_and_verify(e1_file, capsys):
    """`--max-states N` sets each build's state limit: the default output is
    unchanged, a limit the build fits in changes nothing, and an exceeded
    one exits 2 with the partial statistics on stderr."""
    michel4 = str(Path(__file__).parent / "fixtures" / "michel4.hoa")
    for command in (["determinize", "--in", michel4], ["determinize", "--in", michel4, "--out", "drw"],
                    ["verify", "--in", e1_file]):
        outputs = []
        for argv in (command, [*command, "--max-states", "100000"]):
            assert main(argv) == 0
            out = capsys.readouterr().out
            outputs.append([line for line in out.splitlines() if not line.startswith("seconds=")])
        assert outputs[0] == outputs[1] and len(outputs[0]) > 5
    assert main(["determinize", "--in", michel4, "--max-states", "299"]) == 0
    assert capsys.readouterr().out.count("State: ") == 299
    for command in (["determinize", "--in", michel4, "--max-states", "298"],
                    ["verify", "--in", michel4, "--max-states", "3"]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = command[-1]
        assert captured.err.startswith(f"error: state limit {limit} exceeded\nmode=canonical\n")
        assert f"states={limit}\n" in captured.err


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_max_states_below_one_is_input_error(e1_file, capsys, limit):
    for command in ("determinize", "verify"):
        assert main([command, "--in", e1_file, "--max-states", limit]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: state limit must be at least 1 (got {limit})\n"
