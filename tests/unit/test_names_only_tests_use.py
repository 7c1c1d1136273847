"""Unit tests for the gate on names only tests use.

``tools/names_only_tests_use.py`` lists the functions, methods and
classes of ``src/repro`` that no Python file outside ``tests/`` names;
a name in a code span of ``docs/api.md`` counts as used.  It exits 1
when it lists anything, so CI fails on code only tests reach.
"""

import importlib.util
import sys
from pathlib import Path

_TOOL = (
    Path(__file__).resolve().parents[2] / "tools" / "names_only_tests_use.py"
)
_spec = importlib.util.spec_from_file_location("names_only_tests_use", _TOOL)
names_only_tests_use = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("names_only_tests_use", names_only_tests_use)
_spec.loader.exec_module(names_only_tests_use)

MODULE = '''"""A module whose docstring names tested_only."""

__all__ = ["tested_only", "used_from_src", "Box"]


def tested_only():
    """Only a test calls this."""
    return tested_only  # its own body names it


def used_from_src():
    return 1


def documented():
    return 2


def looked_up():
    return 3


class Box:
    def __repr__(self):
        return "Box()"

    def open(self):
        return used_from_src()

    def spare(self):
        return None
'''


def _checkout(root: Path) -> Path:
    package = root / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.mod import tested_only, used_from_src\n"
    )
    (package / "mod.py").write_text(MODULE)
    (package / "user.py").write_text(
        "from repro.mod import Box\n\n"
        "Box().open()\n"
        "handler = getattr(Box, 'looked_up', None)\n"
    )
    (root / "tests").mkdir()
    (root / "tests" / "test_mod.py").write_text(
        "from repro.mod import tested_only\n\n"
        "def test_it():\n"
        "    assert tested_only() is tested_only\n"
    )
    (root / "docs").mkdir()
    (root / "docs" / "api.md").write_text(
        "Call `repro.mod.documented()`; tested_only is prose, not code.\n"
    )
    return root


def test_lists_a_name_only_a_test_uses_and_not_one_src_uses(tmp_path):
    root = _checkout(tmp_path)
    found = [
        qualified for _, _, qualified in names_only_tests_use.report(root)
    ]
    # tested_only: its def, own body, __all__, the re-export, the
    # docstring and api.md prose are no use, and the test does not
    # count.  Box.spare: nothing names it.  used_from_src, documented,
    # looked_up, Box and Box.open are used; __repr__ is a dunder.
    assert found == ["tested_only", "Box.spare"]


def test_main_prints_each_name_and_a_count(tmp_path, capsys):
    root = _checkout(tmp_path)
    assert names_only_tests_use.main(["--root", str(root)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "src/repro/mod.py:6  tested_only",
        "src/repro/mod.py:30  Box.spare",
        "2 definitions named by nothing outside tests/",
    ]


def test_main_exits_1_on_a_test_only_definition(tmp_path, capsys):
    root = _checkout(tmp_path)
    (root / "src" / "repro" / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def tested_only():\n    return used()\n"
    )
    (root / "src" / "repro" / "__init__.py").write_text(
        "from repro.mod import used\n\nused()\n"
    )
    (root / "src" / "repro" / "user.py").write_text("")
    (root / "docs" / "api.md").write_text("")
    assert names_only_tests_use.main(["--root", str(root)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "src/repro/mod.py:5  tested_only",
        "1 definitions named by nothing outside tests/",
    ]


def test_main_exits_0_on_a_clean_tree(tmp_path, capsys):
    root = _checkout(tmp_path)
    (root / "src" / "repro" / "mod.py").write_text(
        "def used():\n    return 1\n"
    )
    (root / "src" / "repro" / "__init__.py").write_text(
        "from repro.mod import used\n\nused()\n"
    )
    (root / "src" / "repro" / "user.py").write_text("")
    (root / "docs" / "api.md").write_text("")
    assert names_only_tests_use.main(["--root", str(root)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 definitions named by nothing outside tests/",
    ]


HOOKS = '''from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class Handler(BaseHTTPRequestHandler):
    def log_message(self, format, *args):
        return None


class Server(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        return None


def handle_error():
    return None


SERVING = (Server, Handler)
'''


def test_standard_library_hooks_are_not_listed(tmp_path):
    root = _checkout(tmp_path)
    (root / "src" / "repro" / "server.py").write_text(HOOKS)
    found = [
        qualified for _, _, qualified in names_only_tests_use.report(root)
    ]
    # The base classes call both methods by name; a module-level
    # function of a hook's name is no hook.
    assert found == ["tested_only", "Box.spare", "handle_error"]


def test_main_refuses_a_root_without_the_package(tmp_path, capsys):
    assert names_only_tests_use.main(["--root", str(tmp_path)]) == 2
    assert "src/repro" in capsys.readouterr().err
