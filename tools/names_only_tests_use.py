#!/usr/bin/env python3
"""Gate on the functions, methods and classes that only tests name.

A definition in the package counts as used when any Python file
outside ``tests/`` names it: as a bare name, as an attribute, or as a
string constant that is exactly the name (``getattr`` keys, ``setattr``
patch targets, scheme tables).  Its own ``def`` or ``class`` line does
not count, nor does its own body (a recursive call, a ``super()``
call), an entry of ``__all__``, an import that only re-exports it, or
a docstring.  A name written in a code span or code block of
``docs/api.md`` counts as used: that file lists the public API.
Dunder methods are called by the interpreter and never listed.  Names
are matched bare, so a method shares its uses with every other
definition of the same name: the report can miss a candidate, but
lists no name that a non-test file uses elsewhere.  Nor does it list
a method named in :data:`STDLIB_HOOKS`, which a standard-library base
class calls by name (an HTTP handler's ``log_message``, a server's
``handle_error``): overriding one is its use.

Usage::

    python tools/names_only_tests_use.py
    python tools/names_only_tests_use.py --root path/to/checkout

Prints one ``path:line  qualified.name`` per listed definition, then a
count.  It exits 1 when it lists any definition and 0 when it lists
none, so CI fails on code that only tests reach: delete it, or list it
in ``docs/api.md`` when it is public API that no caller in the package
happens to use.  It exits 2 when the root holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Sequence, Set, Tuple

#: Directories of the checkout whose Python files are scanned for uses.
USER_DIRS = ("src", "tools", "benchmarks", "examples")
#: The package whose definitions are reported.
PACKAGE = Path("src") / "repro"
#: The file whose code spans list the public API.
API_DOC = Path("docs") / "api.md"

#: Methods a standard-library base class calls by name on a subclass:
#: ``http.server.BaseHTTPRequestHandler.log_message`` and
#: ``socketserver.BaseServer.handle_error``.
STDLIB_HOOKS = frozenset({"log_message", "handle_error"})

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)

Definition = Tuple[str, int, str]  # (path, line, qualified name)
_DEFINES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.Module, path: str) -> Iterator[Definition]:
    """Every function, method and class in ``tree``, qualified by class."""

    def walk(body: Sequence[ast.stmt], prefix: str) -> Iterator[Definition]:
        for node in body:
            if isinstance(node, _DEFINES):
                yield path, node.lineno, prefix + node.name
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(tree.body, "")


def _docstring_nodes(tree: ast.Module) -> Set[int]:
    """ids of the docstring constants of every module, class and function."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + _DEFINES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                first.value, ast.Constant
            ):
                found.add(id(first.value))
    return found


def _all_lists(tree: ast.Module) -> Set[int]:
    """ids of the string constants assigned to ``__all__``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ):
                found.update(id(n) for n in ast.walk(node.value))
    return found


def names_used(tree: ast.Module) -> Set[str]:
    """The names ``tree`` uses: names, attributes and identifier strings.

    A definition's own body naming it is no use of it.
    """
    skip = _docstring_nodes(tree) | _all_lists(tree)
    used: Set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, _DEFINES):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
            and _IDENT.fullmatch(node.value)
        ):
            name = node.value
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return used


def api_doc_names(text: str) -> Set[str]:
    """Identifiers written in the code spans and blocks of a markdown file."""
    return {
        word
        for span in _CODE.findall(text)
        for word in _IDENT.findall(span)
    }


def report(root: Path) -> List[Definition]:
    """Definitions under ``root/src/repro`` that no file outside tests uses."""
    defined: List[Definition] = []
    used: Set[str] = set()
    for top in USER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            used |= names_used(tree)
            rel = path.relative_to(root)
            if rel.parts[: len(PACKAGE.parts)] == PACKAGE.parts:
                defined.extend(definitions(tree, str(rel)))
    api = root / API_DOC
    if api.exists():
        used |= api_doc_names(api.read_text(encoding="utf-8"))
    found = []
    for path, line, qualified in defined:
        name = qualified.rsplit(".", 1)[-1]
        dunder = name.startswith("__") and name.endswith("__")
        hook = name in STDLIB_HOOKS and "." in qualified
        if not dunder and not hook and name not in used:
            found.append((path, line, qualified))
    return found


def main(argv: Sequence[str]) -> int:
    """Print the report for a checkout; 1 when it lists anything."""
    parser = argparse.ArgumentParser(
        prog="names_only_tests_use.py",
        description="List definitions in src/repro that only tests name.",
    )
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parents[1],
        help="checkout to scan (default: the one holding this script)",
    )
    args = parser.parse_args(argv)
    if not (args.root / PACKAGE).is_dir():
        print(f"names_only_tests_use: no {PACKAGE} under {args.root}",
              file=sys.stderr)
        return 2
    unused = report(args.root)
    for path, line, qualified in unused:
        print(f"{path}:{line}  {qualified}")
    print(f"{len(unused)} definitions named by nothing outside tests/")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
