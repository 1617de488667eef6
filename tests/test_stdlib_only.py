"""The runtime stays stdlib-only: every absolute import in the package names a
standard-library module.  Relative imports stay inside the package."""

import ast
import sys
from pathlib import Path

import tricache

PACKAGE = Path(tricache.__file__).parent


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    foreign = [
        (path.relative_to(PACKAGE).as_posix(), name)
        for path in modules
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
