"""The runtime stays standard-library only.

Core claim:
    - every absolute import in src/contextuality/*.py names a top-level
      module of the running Python's standard library, so the package needs
      no installed dependency (tests may use pytest, hypothesis and sympy)
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "contextuality").glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text("utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_only_the_standard_library():
    assert SOURCES
    foreign = {
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not foreign
