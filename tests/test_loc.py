import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("loc", Path(__file__).parents[1] / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
two lines."""
import os  # a trailing comment keeps its line

# a comment line


def f(x):
    """One-line docstring."""
    y = (x +
         1)
    s = """a string that is
    not a docstring"""
    return y, s


class C:
    """Class
    docstring."""

    value = 1
'''


def test_count_lines_skips_blank_comment_and_docstring_lines():
    # import, def, the two lines of y, the two lines of s, return, class, value
    assert loc.count_lines(SOURCE) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n# done\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a\t1\nb\t9\ntotal\t10\n"
