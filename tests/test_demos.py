"""
The demos and the package's own exports name only what the package still has.

Each demo is parsed, and every `import mmdepth...` / `from mmdepth...
import name` must resolve. Every `__all__` entry of every mmdepth module
must resolve on its module and, but for the command line's, on the package
root as well. All demos but the parameter sweeps (about 6 s of the
~12 s the six take together) are also run in a temporary directory, so a
changed signature of the calls they make fails here.
"""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmdepth
from mmdepth.codebook import SceneView
from mmdepth.io import read_pgm16
from mmdepth.scene import BUILTIN_SCENES, ground_truth_maps

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(f"mmdepth.{m.name}" for m in pkgutil.iter_modules(mmdepth.__path__))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def mmdepth_imports(path: Path):
    """(module, name or None) for every mmdepth import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "mmdepth":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mmdepth":
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = list(mmdepth_imports(demo))
    assert imports, f"{demo.name} imports nothing from mmdepth"
    missing = []
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            missing.append(f"{module}.{name}")
    assert not missing, f"{demo.name}: unresolved imports {missing}"


def test_modules_found():
    assert {"mmdepth.codebook", "mmdepth.scene", "mmdepth.pipeline"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes {missing}"
    if module != "mmdepth.cli":  # run as `python -m mmdepth.cli`, so the root does not import it
        missing = [name for name in mod.__all__ if getattr(mmdepth, name, None) is not getattr(mod, name)]
        assert not missing, f"{module}.__all__ names missing on mmdepth {missing}"


def run_demo(name: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    demo = ROOT / "demos" / name
    return subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_scene_demo_writes_the_truth_maps(tmp_path):
    done = run_demo("02_scene_and_ground_truth.py", tmp_path)
    assert done.returncode == 0, done.stderr
    view = SceneView()
    for name, builder in BUILTIN_SCENES.items():
        for kind, truth in zip(("range", "depth"), ground_truth_maps(builder(view), view, (144, 256))):
            # write_pgm16's millimetre quantization, with inf for misses
            expect = np.where(np.isfinite(truth), np.clip(np.rint(truth * 1000.0), 0, 65534) / 1000.0, np.inf)
            assert np.array_equal(read_pgm16(tmp_path / "demo_ground_truth" / f"{name}_{kind}.pgm"), expect)


@pytest.mark.parametrize("name", ["01_codebook_and_grid.py", "04_end_to_end_depth_map.py", "06_crlb_benchmark.py"])
def test_demo_runs(name, tmp_path):
    done = run_demo(name, tmp_path)
    assert done.returncode == 0, done.stderr


def test_single_beam_estimation_demo_runs(tmp_path):
    done = run_demo("03_single_beam_estimation.py", tmp_path)
    assert done.returncode == 0, done.stderr
    assert "detected delays [60, 71, 112]" in done.stdout
