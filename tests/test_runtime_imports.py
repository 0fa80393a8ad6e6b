"""The runtime stays standard-library only, and the documented library
surface imports.

Core claims:
    - every absolute import in src/contextuality/*.py names a top-level
      module of the running Python's standard library, so the package needs
      no installed dependency (tests may use pytest, hypothesis and sympy)
    - the README's `## Library` code block runs as written and prints the
      verdict and the false positive its comments name
"""

import ast
import contextlib
import io
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "contextuality").glob("*.py"))


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


def test_the_readme_library_example_runs_as_written():
    readme = (ROOT / "README.md").read_text("utf-8")
    block = re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.M | re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    verdict, sections = out.getvalue().splitlines()
    assert verdict == "Verdict.CONTEXTUAL"
    assert sections == "((0, Section(domain=('a', 'b'), values=('0', '0'))),)"
