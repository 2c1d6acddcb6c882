"""tools/code_lines.py counts the lines that hold code: not blank, not
only a comment, not part of a docstring."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Method docstring,
        over two lines."""
        "a second string statement is code"
        text = """a string that is
        no docstring"""
        return (self.size
                * math.pi)


async def fetch():
    """Docstring."""
'''
# import, class, size, def area, the second string, the two lines of the
# text string, the two lines of the return, async def
FIXTURE_LINES = 10


def test_fixture_count():
    assert code_lines.code_lines(FIXTURE) == FIXTURE_LINES


def test_only_docstrings_and_comments():
    assert code_lines.code_lines('"""Doc."""\n# note\n\n') == 0
    assert code_lines.code_lines("") == 0


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\ny = [\n    2]\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [str(FIXTURE_LINES), str(tmp_path / "pkg" / "a.py")],
        ["3", str(tmp_path / "pkg" / "b.py")],
        [str(FIXTURE_LINES + 3), "total"]]
