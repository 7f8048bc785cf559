import pytest

from histree.determinize import Determinizer, HistoryTree, build_drtw, build_drw
from histree.dot import emit_dot
from histree.errors import InputError
from histree.fixtures import e1, spawn_die_respawn


def test_initial_tree_rendering(e1_nbw):
    engine = Determinizer(e1_nbw)
    text = emit_dot(engine.initial_tree(), engine.table)
    assert "{p} (0,1)" in text
    assert "(0,1)" not in emit_dot(engine.initial_tree())
    assert text.startswith("digraph")
    assert text.count("{") >= 1


def test_drtw_rendering(e1_nbw):
    text = emit_dot(build_drtw(e1_nbw))
    assert "⊕(1,1)" in text
    assert text.count("shape=box") == 2
    assert "init ->" in text


def test_sink_rendered_distinctly():
    d = build_drtw(spawn_die_respawn())
    assert not any(p.is_sink for p in d.payloads)
    empty = NBW_EMPTY_RUN()
    d = build_drtw(empty)
    text = emit_dot(d)
    assert "style=dashed" in text


def NBW_EMPTY_RUN():
    from histree.automata import NBW

    return NBW.make(("p",), ("a", "b"), [("p", "a", "p")], ("p",), ("p",))


def test_tree_and_enriched_and_nbw_render(e1_nbw):
    drw = build_drw(e1_nbw)
    assert "digraph" in emit_dot(drw)
    assert "digraph" in emit_dot(drw.payloads[0])
    nbw_text = emit_dot(e1_nbw)
    assert "doublecircle" in nbw_text
    sink_tree = HistoryTree(())
    assert "sink" in emit_dot(sink_tree)


def test_tree_edges_join_parent_and_child(e1_nbw):
    """A tree's DOT names its nodes in entry order and draws one edge from
    each parent to each child: e1's two-node tree has the edge n0 -> n1."""
    d = build_drtw(e1_nbw)
    two_nodes = next(t for t in d.payloads if t.node_count == 2)
    assert two_nodes.entries == (((), 3), ((1,), 2))
    assert "  n0 -> n1;\n" in emit_dot(two_nodes)


def test_dot_escapes_quotes():
    from histree.automata import NBW

    a = NBW.make(('s"x',), ("a",), [('s"x', "a", 's"x')], ('s"x',), ())
    text = emit_dot(a)
    assert '\\"' in text


def test_dot_rejects_unknown_values():
    with pytest.raises(InputError):
        emit_dot(42)
