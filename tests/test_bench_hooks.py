"""The benchmark's traced run wraps histree functions by name; a name that
no longer resolves is silently left untraced there, so check them here."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, owner_name, attr, _span in spans.TARGETS:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        assert callable(getattr(owner, attr)), (module_name, owner_name, attr)
