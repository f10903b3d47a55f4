"""The output bytes recorded in tests/byte_digests.json stay as recorded.

The cases and their digests are described in tests/record_bytes.py, which
also re-records them where a change means to alter output bytes."""

import json

import pytest

from record_bytes import DIGESTS, SECTIONS, section_digests

RECORDED = json.loads(DIGESTS.read_text())


def test_every_section_is_recorded():
    assert sorted(RECORDED) == sorted(SECTIONS)


@pytest.mark.parametrize("section", SECTIONS)
def test_output_bytes_match_the_recorded_digests(section):
    got, want = section_digests(section), RECORDED[section]
    assert got.keys() == want.keys()
    changed = [case for case in want if got[case] != want[case]]
    assert not changed, f"{len(changed)} of {len(want)} cases changed, first: {changed[:10]}"
