import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("untested", Path(__file__).parents[1] / "tools" / "untested.py")
untested = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(untested)

SOURCE = '''"""Module docstring: no statement of a function body."""
LIMIT = 1


def f(x):
    """Docstring: never a line event."""
    if x > LIMIT:
        return x
    raise ValueError(
        "too small"
    )


class C:
    size = 2

    def method(self):
        def inner():
            pass
        return inner
'''


def test_report_lists_each_function_body_statement_whose_first_line_was_not_hit(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    # function-body statements: 7 if, 8 return, 9 raise, 18 def inner, 19 pass, 20 return
    assert untested.report(path, {7, 8, 10, 18, 20}) == [f"{path}:9: raise ValueError(", f"{path}:19: pass"]
    assert untested.report(path, {7, 8, 9, 18, 19, 20}) == []
    assert untested.report(path, set()) == [
        f"{path}:{n}: {text}" for n, text in
        [(7, "if x > LIMIT:"), (8, "return x"), (9, "raise ValueError("), (18, "def inner():"), (19, "pass"),
         (20, "return inner")]
    ]
