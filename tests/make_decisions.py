"""
Regenerate tests/data/decisions.json, the committed fingerprints of the
pipeline's discrete decisions, from the current source:

    PYTHONPATH=src python tests/make_decisions.py

Each case stores SHA-256 digests of the selected coarse bins, the fine
offsets as integer indices on the refinement grid (round(fine *
refine_ratio)), the hole-filled mask and the depth-map bytes, plus the
small-int decisions themselves, so that a mismatch names the case and the
beam. The numpy version is provenance only: tests/test_decisions.py compares
every other field with a fresh run.

A change that keeps the maps must leave this file byte-identical. Only a
change that alters the maps, and states so with its evidence, regenerates it.
"""
from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from mmdepth.pipeline import config_from_dict, run_scenario

DATA = Path(__file__).resolve().parent / "data" / "decisions.json"

# The three builtins at the default config and sim seeds 0-2, plus one_wall
# with 2x beam oversampling.
CASES = {
    f"{builtin}/seed{seed}": {"scene": {"builtin": builtin}, "sim": {"seed": seed}}
    for builtin in ("one_wall", "two_walls", "pillar_room")
    for seed in range(3)
}
CASES["one_wall/os2/seed0"] = {"scene": {"builtin": "one_wall"}, "view": {"os_h": 2, "os_v": 2}}

DECISIONS = ("selected", "offsets", "filled")


def fingerprint(config: dict) -> dict:
    """The config, decisions and digests of one run of `config`."""
    cfg = config_from_dict(config)
    art = run_scenario(cfg)
    decisions = {
        "selected": art.selected.astype(np.int64),
        "offsets": np.rint(art.fine_offsets * cfg.estimator.refine_ratio).astype(np.int64),
        "filled": art.filled.astype(np.int64),
    }
    digests = {key: hashlib.sha256(value.tobytes()).hexdigest() for key, value in decisions.items()}
    digests["depth_map"] = hashlib.sha256(art.depth_map.astype("<f8").tobytes()).hexdigest()
    return {
        "config": config,
        "sha256": digests,
        **{key: value.tolist() for key, value in decisions.items()},
    }


def render(cases: dict) -> str:
    """JSON text with each row of a decision matrix on one line."""
    text = json.dumps({"numpy": np.__version__, "cases": cases}, indent=1)
    return re.sub(r"\[\s+([-\d,\s]+?)\s+\]", lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]", text) + "\n"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(render({name: fingerprint(config) for name, config in CASES.items()}))
    print(f"wrote {len(CASES)} cases to {DATA}")
