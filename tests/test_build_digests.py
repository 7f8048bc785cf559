"""Byte identity of every emitted build against digests recorded before
the change under test; see record_build_digests.py for the inputs and how
to re-record."""

from record_build_digests import DIGEST_FILE, build_digests, digest_text


def test_builds_match_recorded_digests():
    recorded = DIGEST_FILE.read_text(encoding="utf-8").splitlines()
    current = digest_text(build_digests()).splitlines()
    assert [line.split()[0] for line in current] == [line.split()[0] for line in recorded]
    changed = [old.split()[0] for old, new in zip(recorded, current) if old != new]
    assert changed == []
