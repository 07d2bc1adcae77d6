"""Count the code lines of ``src/qlocker``.

A code line is a non-blank line that holds a token other than a comment
and is not part of a docstring (the string that opens a module, class or
function body).  Prints one ``count module`` line per module of
``src/qlocker/*.py``, then the total.

    python3 tools/src_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qlocker"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the Python source ``text``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def counts() -> dict[str, int]:
    """The code lines of each module of ``src/qlocker``, by file name."""
    return {path.name: code_lines(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def main() -> int:
    modules = counts()
    for name, count in modules.items():
        print(f"{count:5d} {name}")
    print(f"{sum(modules.values()):5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
