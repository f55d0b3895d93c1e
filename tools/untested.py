"""Print each ``src/specinv`` statement in a function body that no tier-1 test runs, as ``file:line: text``.

Usage, from the repository root: ``PYTHONPATH=src python tools/untested.py``.  The tests run in this process's
main thread under ``sys.settrace`` (no coverage package needed); a statement ran if its first line did.
"""
import ast
import sys
from pathlib import Path

import pytest

ROOT = Path("src/specinv")


def report(path: Path, hits: set[int]) -> list[str]:
    """``file:line: text`` of each statement in a function body of ``path`` whose first line is not in ``hits``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    functions = [f for f in ast.walk(ast.parse("\n".join(lines))) if isinstance(f, ast.FunctionDef)]
    body = {s.lineno for f in functions for s in ast.walk(f) if isinstance(s, ast.stmt) and s is not f
            and not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))}  # docstrings never run
    return [f"{path}:{n}: {lines[n - 1].strip()}" for n in sorted(body - hits)]


def main() -> int:
    hits, root = {}, str(ROOT.resolve())

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(root):
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
            return trace

    sys.settrace(trace)
    code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    for path in sorted(ROOT.glob("*.py")):
        sys.stdout.writelines(f"{line}\n" for line in report(path, hits.get(str(path.resolve()), set())))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
