"""Every import in ``src/qlocker`` is used by the module that makes it.

No linter ships with the test extras, so this is a small ``ast`` check.
``from __future__`` imports are directives, and the package's
``__init__.py`` imports its submodules' names only to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qlocker"


def unused_imports(source: str, reexports: bool = False) -> list[str]:
    """Names bound by an import in ``source`` that nothing else in it reads.

    With ``reexports``, relative ``from . import`` statements are skipped.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (reexports and node.level):
                continue
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import threading\nimport os.path\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: int = os.path.sep\n")
    assert unused_imports(source) == ["field (line 4)", "threading (line 2)"]
    assert unused_imports("from .gates import x\n") == ["x (line 1)"]
    assert unused_imports("from .gates import x\n", reexports=True) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(),
                          reexports=path.name == "__init__.py") == []
