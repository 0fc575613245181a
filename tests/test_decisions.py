"""
The pipeline's discrete decisions match the committed fingerprints.

tests/data/decisions.json holds, per case, the selected coarse bins, the
integer fine offsets, the hole-filled mask and digests of those and of the
depth map (see tests/make_decisions.py, which regenerates it). A change
that keeps the maps passes here unchanged; a decision that moves fails with
its case and beam named.
"""
import json

import numpy as np
import pytest

from make_decisions import CASES, DATA, DECISIONS, fingerprint

COMMITTED = json.loads(DATA.read_text())


def test_committed_cases_are_the_generated_cases():
    assert {name: case["config"] for name, case in COMMITTED["cases"].items()} == CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_decisions_match_committed_fingerprints(name):
    want = COMMITTED["cases"][name]
    got = fingerprint(want["config"])
    for key in DECISIONS:
        moved = np.argwhere(np.asarray(got[key]) != np.asarray(want[key]))
        assert not moved.size, f"{name}: {key} differs at (row, col) beams {moved[:8].tolist()}"
    assert got["sha256"] == want["sha256"], f"{name}: digests differ"
