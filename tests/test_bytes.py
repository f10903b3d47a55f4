"""The output bytes recorded in tests/byte_digests.json stay as recorded, and
every argv of perfbench/cli_golden.json keeps the exit code and stdout
recorded there.

The cases and their digests are described in tests/record_bytes.py, which
also re-records them where a change means to alter output bytes."""

import hashlib
import json

import pytest

from record_bytes import DIGESTS, SECTIONS, golden_cases, section_digests

RECORDED = json.loads(DIGESTS.read_text())
GOLDEN = golden_cases()


def _matches_golden(key, rc, stdout):
    """Each argv of perfbench/cli_golden.json prints the bytes recorded for
    it; one recorded without bytes keeps the exit code it was recorded with."""
    case = GOLDEN[key]
    if case["sha256"] is None:
        assert rc == case["recorded_rc"], case["argv"]
    else:
        assert rc == case["rc"], case["argv"]
        assert hashlib.sha256(stdout.encode()).hexdigest() == case["sha256"], case["argv"]


def test_every_section_is_recorded():
    assert sorted(RECORDED) == sorted(SECTIONS)


@pytest.mark.parametrize("section", SECTIONS)
def test_output_bytes_match_the_recorded_digests(section):
    # the cli section is the one replay of the golden argvs, and checks each against its record
    got = section_digests(section, _matches_golden if section == "cli" else None)
    want = RECORDED[section]
    assert got.keys() == want.keys()
    changed = [case for case in want if got[case] != want[case]]
    assert not changed, f"{len(changed)} of {len(want)} cases changed, first: {changed[:10]}"
