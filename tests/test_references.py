"""Every function and class of the package has a caller: each top-level
`def` and `class` in src/tricache is named somewhere outside its own
definition, in the package itself, in the benchmark (perfbench/*.py) or
in the CI workflow.  Code that only the tests reach belongs in tests/."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tricache"
CALLERS = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / ".github" / "workflows" / "tests.yml"]


def definitions():
    """(module path, name, first line, last line) of every top-level def and
    class, the first line counting its decorators."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield pytest.param(path, node.name, first, node.end_lineno, id=f"{path.stem}.{node.name}")


def test_callers_are_present():
    assert len(CALLERS) > 1 and all(path.is_file() for path in CALLERS), CALLERS


@pytest.mark.parametrize("path, name, first, last", list(definitions()))
def test_definition_has_a_caller(path, name, first, last):
    word = re.compile(rf"\b{re.escape(name)}\b")
    for source in sorted(PACKAGE.glob("*.py")) + CALLERS:
        lines = source.read_text().splitlines()
        if source == path:
            lines = lines[:first - 1] + lines[last:]
        if any(map(word.search, lines)):
            return
    pytest.fail(f"{path.name}: {name} is named nowhere outside its definition")
