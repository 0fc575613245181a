"""
The pipeline's discrete decisions match the committed fingerprints.

tests/data/decisions.json holds, per case, the selected coarse bins, the
integer fine offsets, the hole-filled mask and digests of those and of the
depth map (see tests/make_decisions.py, which regenerates it). A change
that keeps the maps passes here unchanged; a decision that moves fails with
its case and beam named. Each case runs once per session (generated), shared
by the tests below.
"""
import functools
import json

import numpy as np
import pytest

from make_decisions import CASES, DATA, DECISIONS, fingerprint

COMMITTED = json.loads(DATA.read_text())


@functools.cache
def generated(name: str) -> dict:
    """The fingerprint of case `name` from the current source, as JSON reads it back."""
    return json.loads(json.dumps(fingerprint(CASES[name])))


def test_committed_cases_are_the_generated_cases():
    assert {name: case["config"] for name, case in COMMITTED["cases"].items()} == CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_decisions_match_committed_fingerprints(name):
    want = COMMITTED["cases"][name]
    got = generated(name)
    for key in DECISIONS:
        moved = np.argwhere(np.asarray(got[key]) != np.asarray(want[key]))
        assert not moved.size, f"{name}: {key} differs at (row, col) beams {moved[:8].tolist()}"
    assert got["sha256"] == want["sha256"], f"{name}: digests differ"


def test_committed_file_holds_nothing_a_run_does_not_regenerate():
    # Every field but the numpy version, so no stale provenance can sit in the file.
    assert set(COMMITTED) == {"numpy", "cases"}
    for name, want in COMMITTED["cases"].items():
        got = generated(name)
        assert list(got) == list(want), name
        for key in want:
            assert got[key] == want[key], f"{name}: {key}"
