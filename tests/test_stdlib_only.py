"""The package imports nothing outside the standard library, and nothing
in it is left for the tests alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "homelog"


def _absolute_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_module_imports_only_stdlib_or_relative():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    outside = [
        f"{path.name}: {name}"
        for path in modules
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_the_command_line_loads_every_module_of_the_package(tmp_path):
    """Importing `homelog.cli` in a fresh interpreter loads exactly the
    package's modules but `__main__`: a module only the tests import
    belongs under tests/."""
    code = "import sys, homelog.cli; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'homelog'))"
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    files = {path.stem for path in PACKAGE.glob("*.py")} - {"__main__"}
    want = {"homelog" if stem == "__init__" else f"homelog.{stem}" for stem in files}
    assert set(run.stdout.split()) == want
