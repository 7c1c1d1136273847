#!/usr/bin/env python3
"""Count code lines: lines that carry a token other than a comment.

Blank lines, comment-only lines and module, class and function
docstrings do not count.  Every other line does, including each line
of a multi-line string that is not a docstring.  This is the "code
lines" figure CHANGES.md and ROADMAP.md report.

Usage::

    python tools/code_lines.py src/repro
    python tools/code_lines.py src/repro/core src/repro/analysis/experiments.py

Prints one count per ``.py`` file, then one per directory (a directory
counts everything below it, down from each directory argument), then
the total over all arguments.  ``-h``/``--help`` prints this text.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, List, Sequence, Set

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (
    ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef,
)


def _docstrings(tree: ast.AST) -> List[ast.expr]:
    """The docstring expressions of every module, class and function."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.append(first.value)
    return found


def count_code_lines(source: str) -> int:
    """Lines of ``source`` carrying a non-comment token outside docstrings."""
    spans = [
        ((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset))
        for doc in _docstrings(ast.parse(source))
    ]
    lines: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(
            start <= tok.start and tok.end <= end for start, end in spans
        ):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_paths(paths: Sequence[str]) -> Dict[str, int]:
    """Counts keyed by file, by directory (trailing ``/``) and ``total``."""
    counts: Dict[str, int] = {}
    total = 0
    for arg in paths:
        root = Path(arg)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            n = count_code_lines(path.read_text(encoding="utf-8"))
            counts[str(path)] = n
            total += n
            if root.is_dir():
                parent = path.parent
                while True:
                    key = f"{parent}/"
                    counts[key] = counts.get(key, 0) + n
                    if parent == root:
                        break
                    parent = parent.parent
    counts["total"] = total
    return counts


def main(argv: Sequence[str]) -> int:
    """Print the counts for ``argv``'s paths; returns the exit code.

    ``-h``/``--help`` prints the usage and returns 0.  No argument
    prints it to stderr and returns 2; a path that does not exist
    returns 2 with one stderr line naming it.
    """
    if "-h" in argv or "--help" in argv:
        print(__doc__.strip())
        return 0
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    missing = [arg for arg in argv if not Path(arg).exists()]
    if missing:
        print(f"code_lines: no such path: {missing[0]}", file=sys.stderr)
        return 2
    counts = count_paths(argv)
    total = counts.pop("total")
    dirs = sorted(k for k in counts if k.endswith("/"))
    files = sorted(k for k in counts if not k.endswith("/"))
    for key in files + dirs:
        print(f"{counts[key]:7d}  {key}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
