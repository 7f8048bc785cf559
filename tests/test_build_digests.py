"""Byte identity of every emitted build, and of the input automata written
back out, against digests recorded before the change under test; see
record_build_digests.py for the inputs and how to re-record."""

from record_build_digests import (
    DIGEST_FILE,
    MICHEL5_DIGEST_FILE,
    NBW_DIGEST_FILE,
    PINNED_DIGEST_FILE,
    build_digests,
    digest_text,
    michel5_digests,
    nbw_digests,
    pinned_digests,
)


def _changed(path, digests):
    recorded = path.read_text(encoding="utf-8").splitlines()
    current = digest_text(digests()).splitlines()
    assert [line.split()[0] for line in current] == [line.split()[0] for line in recorded]
    return [old.split()[0] for old, new in zip(recorded, current) if old != new]


def test_builds_match_recorded_digests():
    assert _changed(DIGEST_FILE, build_digests) == []


def test_nbw_writers_match_recorded_digests():
    assert _changed(NBW_DIGEST_FILE, nbw_digests) == []


def test_michel5_builds_match_recorded_digest():
    assert _changed(MICHEL5_DIGEST_FILE, michel5_digests) == []


def test_pinned_fixtures_match_recorded_digests():
    assert _changed(PINNED_DIGEST_FILE, pinned_digests) == []
