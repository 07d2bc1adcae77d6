"""Every import in ``src/qlocker`` is used by the module that makes it,
and every name the package re-exports is run by it or documented.

No linter ships with the test extras, so these are small ``ast`` and
``symtable`` checks.  ``from __future__`` imports are directives, and the
package's ``__init__.py`` imports its submodules' names only to re-export
them: the ``teleport`` names by a ``from . import`` line, every other name
through its lazy table ``_LAZY`` (public name -> submodule).
"""

import ast
import re
import symtable
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qlocker"
README = PACKAGE.parents[1] / "README.md"


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


def module_reads(source: str) -> set[str]:
    """Names that ``source`` loads where the load resolves to its own
    module-level binding (an import, or a definition or assignment at top
    level) or to an import in the function that loads it.  Any other
    parameter or local of the same name is another binding, so its loads
    do not count."""
    top = symtable.symtable(source, "<module>", "exec")
    bound = {sym.get_name() for sym in top.get_symbols()
             if sym.is_imported() or sym.is_assigned()}
    read = set()
    tables = [top]
    while tables:
        table = tables.pop()
        for sym in table.get_symbols():
            if not sym.is_referenced():
                continue
            # a global load reads a module-level binding; a local one
            # reads an export only through an import in its function
            if (sym.get_name() in bound if table is top or sym.is_global()
                    else sym.is_imported()):
                read.add(sym.get_name())
        tables.extend(table.get_children())
    return read


def exports(init: str) -> list[str]:
    """The names that ``init`` re-exports: those of its relative ``from .
    import`` lines, and the keys of its lazy table ``_LAZY``."""
    tree = ast.parse(init)
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names]
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "_LAZY"
                for target in node.targets):
            names += ast.literal_eval(node.value)
    return names


def unreached_exports(init: str, modules: list[str], readme: str) -> list[str]:
    """Names that ``init`` re-exports (:func:`exports`) which no source in
    ``modules`` reads (:func:`module_reads`) and no inline code span of
    ``readme`` holds."""
    exported = exports(init)
    read = set().union(*map(module_reads, modules))
    documented = set(re.findall(r"`([^`\n]+)`", readme))
    return sorted(name for name in exported
                  if name not in read and name not in documented)


def test_the_check_finds_an_unreached_export():
    init = "from .a import run, shown, spare\n"
    modules = ["def run():\n    pass\ndef spare():\n    spare = run()\n"]
    assert unreached_exports(init, modules, "call `shown`, not shown") == [
        "spare"]
    # a parameter, a local and a comprehension variable named like the
    # export are other bindings, even beside an import of it
    modules += ["def check(spare):\n    return spare\n",
                "from .a import spare\n"
                "def keep(rows):\n    spare = rows\n"
                "    return [spare for spare in spare]\n"]
    assert unreached_exports(init, modules, "call `shown`") == ["spare"]
    # a load of the imported name inside a function reads it
    modules += ["from .a import spare\ndef use():\n    return spare()\n"]
    assert unreached_exports(init, modules, "call `shown`") == []

    # the lazy table's keys are exports too; an import inside a function
    # reads its name where that function loads it, and not otherwise
    init = ('from .a import run\n'
            '_LAZY = {"shown": "b", "spare": "b", "used": "b"}\n')
    modules = ["def run():\n    pass\n"
               "def idle():\n    from .b import spare\n"
               "def go():\n    from .b import used\n    return used(run())\n"]
    assert exports(init) == ["run", "shown", "spare", "used"]
    assert unreached_exports(init, modules, "call `shown`") == ["spare"]
    modules += ["def keep():\n    from .b import spare\n    spare()\n"]
    assert unreached_exports(init, modules, "call `shown`") == []


def test_every_export_is_run_or_documented():
    modules = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    assert unreached_exports((PACKAGE / "__init__.py").read_text(), modules,
                             README.read_text()) == []
