"""Byte-identity digests of every build of the golden inputs, and of
the inputs themselves as written back out.

`build_digests.txt` has one line per input: its name and one sha256 over
its eight builds (canonical/baseline x drtw/drw x default/strict marks),
each contributing `emit_rabin`, `stats.to_text()` and `emit_dot`.
`nbw_digests.txt` has one line per input: its name and one sha256 over
`emit_nbw_hoa`, `emit_nbw_native` and `emit_dot` of the input automaton.
The inputs are the hand-written fixtures, the default corpus and
`fixtures/michel4.hoa`.  `michel5_digest.txt` holds the build digest of
the benchmark's heaviest input, `fixtures/michel5.hoa` (Michel m=5, 2163
DRTW states), on its own so that the other files keep their inputs.
`pinned_digests.txt` has one line per pinned fixture (`index_n3.hoa` and
`pair_index_n{4,5,6}.hoa`, where canonical relabeling merges pairs and
the DRW splits the most states): its name, its build digest and its
verify digest.  The verify digest covers, for the three targets of
`histree verify` under both mark semantics, `tested`, `counterexample`
and `evaluated` of `bounded_equiv(a, d, 4, 4)`, or the `CapacityError`
message where the lasso cap refuses the bounds.

`tests/test_build_digests.py` compares against the recorded files.  A
change that alters emitted bytes on purpose re-records them with

    PYTHONPATH=src python tests/record_build_digests.py

The name keeps pytest from collecting this script.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Iterator, Sequence, Tuple

from histree.automata import NBW
from histree.cli import _targets
from histree.corpus import default_corpus
from histree.determinize import Determinizer
from histree.dot import emit_dot
from histree.errors import CapacityError
from histree.fixtures import fixtures
from histree.formats import emit_nbw_hoa, emit_nbw_native, emit_rabin, parse_nbw
from histree.oracle import bounded_equiv

FIXTURE_DIR = Path(__file__).parent / "fixtures"
DIGEST_FILE = FIXTURE_DIR / "build_digests.txt"
NBW_DIGEST_FILE = FIXTURE_DIR / "nbw_digests.txt"
MICHEL5_FILE = FIXTURE_DIR / "michel5.hoa"
MICHEL5_DIGEST_FILE = FIXTURE_DIR / "michel5_digest.txt"
PINNED = ("index_n3", "pair_index_n4", "pair_index_n5", "pair_index_n6")
PINNED_DIGEST_FILE = FIXTURE_DIR / "pinned_digests.txt"


def golden_inputs() -> Iterator[Tuple[str, NBW]]:
    for name, a in fixtures().items():
        yield f"fixture:{name}", a
    for i, a in enumerate(default_corpus()):
        yield f"random:{i}", a
    yield "michel4", parse_nbw((FIXTURE_DIR / "michel4.hoa").read_text(encoding="utf-8"))


def build_digest(a: NBW) -> str:
    digest = hashlib.sha256()
    for strict in (False, True):
        engine = Determinizer(a, "canonical", strict_marks=strict)
        for mode in ("canonical", "baseline"):
            for build in (engine.build_drtw, engine.build_drw):
                d = build(mode)
                for text in (emit_rabin(d), d.stats.to_text(), emit_dot(d)):
                    digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def verify_digest(a: NBW, bounds: Sequence[Tuple[int, int]] = ((4, 4),)) -> str:
    """One line per target and (max_u, max_v) in `bounds`, in that order,
    each scan on the same NBW object."""
    digest = hashlib.sha256()
    for strict in (False, True):
        for label, d in _targets(a, strict):
            for max_u, max_v in bounds:
                try:
                    r = bounded_equiv(a, d, max_u, max_v)
                    line = f"{label} {r.tested} {r.counterexample} {r.evaluated}"
                except CapacityError as exc:
                    line = f"{label} {exc}"
                digest.update(f"{line}\n".encode("utf-8"))
    return digest.hexdigest()


def pinned_inputs() -> Iterator[Tuple[str, NBW]]:
    for name in PINNED:
        yield f"pinned:{name}", parse_nbw((FIXTURE_DIR / f"{name}.hoa").read_text(encoding="utf-8"))


def nbw_digest(a: NBW) -> str:
    digest = hashlib.sha256()
    for text in (emit_nbw_hoa(a), emit_nbw_native(a), emit_dot(a)):
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def build_digests() -> Dict[str, str]:
    return {name: build_digest(a) for name, a in golden_inputs()}


def nbw_digests() -> Dict[str, str]:
    return {name: nbw_digest(a) for name, a in golden_inputs()}


def michel5_digests() -> Dict[str, str]:
    return {"michel5": build_digest(parse_nbw(MICHEL5_FILE.read_text(encoding="utf-8")))}


def pinned_digests() -> Dict[str, str]:
    return {name: f"{build_digest(a)} {verify_digest(a)}" for name, a in pinned_inputs()}


def digest_text(digests: Dict[str, str]) -> str:
    return "".join(f"{name} {value}\n" for name, value in digests.items())


if __name__ == "__main__":
    for path, digests in (
        (DIGEST_FILE, build_digests),
        (NBW_DIGEST_FILE, nbw_digests),
        (MICHEL5_DIGEST_FILE, michel5_digests),
        (PINNED_DIGEST_FILE, pinned_digests),
    ):
        path.write_text(digest_text(digests()), encoding="utf-8")
        print(f"wrote {path}")
