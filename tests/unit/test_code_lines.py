"""Unit tests for the code-line counter (``tools/code_lines.py``).

A code line carries a token other than a comment; blank lines,
comment-only lines and module, class and function docstrings do not
count, while every line of any other multi-line string does.
"""

import importlib.util
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("code_lines", code_lines)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment-only line
import os  # a trailing comment keeps the line


class Thing:
    """Class docstring."""

    LIMIT = 3

    def method(self):
        """Method docstring,

        with a blank line inside.
        """
        text = """a multi-line string
that is not a docstring
spans three lines"""
        return text


async def fetch():
    \'\'\'Async function docstring.\'\'\'
    return os.sep
'''

# import os / class Thing / LIMIT / def method / text = (3 lines) /
# return text / async def fetch / return os.sep
EXPECTED = 10


def test_counts_code_lines_only():
    assert code_lines.count_code_lines(SOURCE) == EXPECTED


def test_a_string_statement_after_the_docstring_counts():
    source = 'def f():\n    """Doc."""\n    "not a docstring"\n'
    assert code_lines.count_code_lines(source) == 2


def test_paths_report_files_directories_and_total(tmp_path, capsys):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text(SOURCE)
    (package / "sub" / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    (package / "notes.txt").write_text("not python\n")
    counts = code_lines.count_paths([str(package)])
    assert counts == {
        str(package / "a.py"): EXPECTED,
        str(package / "sub" / "b.py"): 2,
        f"{package / 'sub'}/": 2,
        f"{package}/": EXPECTED + 2,
        "total": EXPECTED + 2,
    }
    assert code_lines.main([str(package)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].split() == [str(EXPECTED + 2), "total"]


def test_help_prints_the_usage(capsys):
    for flag in ("-h", "--help"):
        assert code_lines.main([flag]) == 0
        assert "Usage::" in capsys.readouterr().out


def test_a_missing_path_is_named_on_one_line(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    assert code_lines.main([str(tmp_path), str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"code_lines: no such path: {missing}\n"
