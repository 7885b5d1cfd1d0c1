import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""
import os  # a comment after code

# a comment line


class A:
    """Class docstring."""

    x = """a string that is no docstring,
    on two lines"""

    def f(self):
        \'\'\'Function docstring.\'\'\'
        return (1,
                2)
'''


def test_counts_lines_outside_docstrings_and_comments():
    # import, class, the two lines of x, def and the two lines of return
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_their_sum(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("y = 1\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines()[1:] == ["     7     17  a.py", "     1      1  b.py",
                                                        "     8     18  total"]


def test_prints_both_trees_and_their_difference(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir(), head.mkdir()
    (base / "a.py").write_text(SOURCE)
    (base / "gone.py").write_text("y = 1\nz = 2\n")
    (head / "a.py").write_text(SOURCE + "w = 3\n")
    (head / "new.py").write_text("# a comment\nv = 4\n")
    code_lines.main([str(base), str(head)])
    assert capsys.readouterr().out.splitlines()[2:] == [
        "     7     17      8     18     +1     +1  a.py",
        "     2      2      0      0     -2     -2  gone.py",
        "     0      0      1      2     +1     +2  new.py",
        "     9     19      9     20     +0     +1  total",
    ]
