"""
The demos import only names the package still has.

Each demo is parsed, not run (together they take tens of seconds), and
every `import mmdepth...` / `from mmdepth... import name` must resolve.
"""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
