"""Test-side views of a deterministic Rabin automaton's rows in the
per-edge form that the assertions are written in.  Only read here, so
the tests check the rows against facts stated edge by edge.

The name keeps pytest from collecting this module.
"""


def edge_map(d):
    """{(state, symbol): (target, annotation)} for every edge of `d`: a
    DRTW edge carries its own mark's annotation, a DRW edge the mark of
    the state it enters."""
    on_edges = d.acceptance.kind == "transition"
    edges = {}
    for i in range(len(d.payloads)):
        for j, sym in enumerate(d.alphabet):
            target = d.targets[j][i]
            edges[(i, sym)] = (target, d.annotations[d.marks[j][i] if on_edges else d.marks[0][target]])
    return edges


def signature_map(d):
    """The nonzero acceptance signatures by what carries them: an edge
    (state, symbol) of a DRTW, a state of a DRW."""
    signatures = d.acceptance.signatures
    if d.acceptance.kind == "transition":
        return {(i, sym): signatures[d.marks[j][i]]
                for i in range(len(d.payloads)) for j, sym in enumerate(d.alphabet)
                if signatures[d.marks[j][i]]}
    return {i: signatures[mark] for i, mark in enumerate(d.marks[0]) if signatures[mark]}


def incoming(drw):
    """Each DRW state's incoming annotation, the one its mark row gives it."""
    return [drw.annotations[m] for m in drw.marks[0]]
