"""Count the logical lines of each ``src/specinv`` module and their total.

Usage (from the repository root)::

    python tools/loc.py [DIR]

A logical line is a physical line that holds code: blank lines, lines
holding only a comment and the lines of docstrings (a string literal that
opens a module, class or function body) are not counted.  DIR defaults to
``src/specinv``; one ``name<TAB>count`` line is printed per ``*.py`` file,
sorted by name, then ``total<TAB>count``.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> int:
    """Logical lines of one module's ``source`` text."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main(argv) -> int:
    root = Path(argv[0] if argv else "src/specinv")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = count_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.stem}\t{n}")
    print(f"total\t{total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
