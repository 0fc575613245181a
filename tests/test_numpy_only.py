"""
The package runs on numpy alone: scipy is a test-side reference, not a
runtime dependency.

A fresh interpreter gets a sys.meta_path finder that refuses scipy and every
scipy submodule. It then imports mmdepth and mmdepth.cli, runs a scenario
through the CLI and runs the single-beam demo; none of them may reach for
scipy.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BLOCKED_RUN = """
import importlib.abc
import runpy
import sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy  # noqa: F401
except ImportError:
    pass
else:
    sys.exit("the finder did not block scipy")

import mmdepth
import mmdepth.cli

code = mmdepth.cli.main(["run", "--scenario", "two_walls", "--out", sys.argv[1]])
if code != 0:
    sys.exit(f"mmdepth run exited {code}")
runpy.run_path(sys.argv[2], run_name="__main__")
leaked = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
if leaked:
    sys.exit(f"scipy modules loaded: {leaked}")
"""


def test_runs_with_scipy_blocked(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    demo = ROOT / "demos" / "03_single_beam_estimation.py"
    done = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUN, str(tmp_path / "run"), str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "run" / "run.json").is_file()
    assert "detected delays [60, 71, 112]" in done.stdout
