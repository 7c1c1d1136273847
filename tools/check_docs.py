#!/usr/bin/env python
"""Docs lint: every flag and dotted path in the docs must exist.

Documentation rots silently: a renamed CLI flag or moved module keeps
its stale mentions in ``docs/*.md`` and ``README.md`` until a reader
trips over them.  This lint closes the loop by extracting every
``--flag`` token and every ``repro.*`` dotted path from the prose and
verifying each against the living code:

* flags must be registered somewhere in the ``repro`` argparse tree
  (all subcommands, recursively), declared by a script under
  ``tools/`` or by the end-to-end benchmark's runner
  (``benchmarks/e2e/run.py``), or belong to the small allowlist of
  third-party tools the docs legitimately mention (pytest-benchmark,
  coverage, pip);
* in a ``repro <command>`` invocation -- an inline code span, or a
  line of a fenced code block with its ``\\`` continuations joined --
  every flag must be one that command (or ``repro obs <sub>``) takes,
  or one of the root parser's observability flags;
* dotted paths must import — ``repro.faultsim.markov`` as a module,
  ``repro.faultsim.markov.solve`` as an attribute of one — with a
  trailing ``*`` accepted as a prefix wildcard over the parent's
  attributes (``repro.perfsim.configs.EXTRA_*``).

Run from the repository root (CI does, right after the docstring
gate)::

    PYTHONPATH=src python tools/check_docs.py

Exit codes: 0 clean, 1 stale references found, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The documentation surface this lint protects.
DEFAULT_DOCS: Tuple[str, ...] = ("README.md", "docs/*.md")

#: Flags owned by third-party tools the docs legitimately reference
#: (pytest/pytest-benchmark/pytest-cov/pytest-timeout, pip).  Anything
#: else must resolve against the repro argparse tree, a tools/ script
#: or one of :data:`EXTRA_SCRIPTS`.
EXTERNAL_FLAGS: Set[str] = {
    "--benchmark-disable",
    "--benchmark-json",
    "--benchmark-only",
    "--cov",
    "--cov-fail-under",
    "--cov-report",
    "--help",
    "--no-build-isolation",
    "--timeout",
}

#: Scripts outside ``tools/`` whose flags the docs quote, relative to
#: the repo root: the end-to-end benchmark's runner.
EXTRA_SCRIPTS: Tuple[str, ...] = ("benchmarks/e2e/run.py",)

#: ``--flag`` tokens: a word boundary, two dashes, then a lowercase
#: flag name.  The lookbehind keeps mid-word dashes (``a--b``) and
#: markdown horizontal rules from matching.
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")

#: ``repro.something[.more]`` dotted paths.  A trailing ``*`` in the
#: source marks a prefix wildcard, handled in :func:`resolve_dotted`.
DOTTED_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")

#: Inline code spans on one line.
INLINE_CODE_RE = re.compile(r"`([^`]+)`")

#: Shell words: a quoted string or a run of other non-space characters.
WORD_RE = re.compile(r"'[^']*'|\"[^\"]*\"|[^\s'\"]+")

#: Words that end a shell command: a pipe, ``&``, ``;``, a redirect or
#: a comment.
COMMAND_END_RE = re.compile(r"(?:\d?>|<|\||&|;|#)")


@lru_cache(maxsize=None)
def collect_command_flags() -> Dict[str, Set[str]]:
    """The ``--flags`` of each parser in the repro argparse tree.

    Keyed by command path: ``""`` for the root parser, then
    ``"reliability"``, ``"obs"``, ``"obs summarize"`` and so on.
    """
    from repro.cli import build_parser

    commands: Dict[str, Set[str]] = {}

    def walk(path: str, parser: argparse.ArgumentParser) -> None:
        flags = commands.setdefault(path, set())
        for action in parser._actions:
            flags.update(
                option for option in action.option_strings
                if option.startswith("--")
            )
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(f"{path} {name}".strip(), sub)

    walk("", build_parser())
    return commands


def collect_cli_flags() -> Set[str]:
    """Every ``--flag`` registered in the repro argparse tree."""
    return set().union(*collect_command_flags().values())


def command_snippets(lines: List[str]) -> Iterator[Tuple[int, str]]:
    """``(line number, text)`` of each place a command may be written.

    Outside fenced code blocks, every inline code span.  Inside one,
    every line, with lines ending in ``\\`` joined to the next and
    numbered by the first.
    """
    in_fence = False
    pending: Optional[Tuple[int, str]] = None
    for lineno, line in enumerate(lines, start=1):
        if line.lstrip().startswith("```"):
            in_fence, pending = not in_fence, None
        elif not in_fence:
            for span in INLINE_CODE_RE.findall(line):
                yield lineno, span
        else:
            start, text = pending or (lineno, "")
            text = f"{text} {line.strip()}"
            if text.endswith("\\"):
                pending = start, text[:-1]
            else:
                pending = None
                yield start, text


def misplaced_flags(
    text: str, commands: Dict[str, Set[str]]
) -> List[Tuple[str, str]]:
    """``(flag, command)`` for each flag a ``repro <command>`` in
    ``text`` is given but does not take.

    The command is the first word after ``repro`` that names one (with
    ``obs``, the next word too); the flags are every ``--flag`` word up
    to the end of that shell command.  The root parser's flags are
    accepted on either side of the command name.
    """
    words = WORD_RE.findall(text)
    found: List[Tuple[str, str]] = []
    for start, word in enumerate(words):
        if word != "repro":
            continue
        command = ""
        flags: List[str] = []
        for arg in words[start + 1:]:
            if COMMAND_END_RE.match(arg) or arg == "repro":
                break
            flag = FLAG_RE.match(arg)
            named = f"{command} {arg}".strip()
            if flag:
                flags.append(flag.group(0))
            elif command in ("", "obs") and named in commands:
                command = named
        if command:
            allowed = commands[command] | commands[""]
            found.extend((f, command) for f in flags if f not in allowed)
    return found


def collect_tool_flags(tools_dir: Optional[Path] = None) -> Set[str]:
    """Every ``--flag`` declared by ``add_argument`` in the scripts.

    The scripts are those of ``tools_dir`` (``tools/`` by default) and
    :data:`EXTRA_SCRIPTS`.  A textual scrape rather than an import:
    the scripts are standalone (some with side-effectful ``__main__``
    blocks), and their ``add_argument("--flag", ...)`` calls are all
    literal.
    """
    tools_dir = tools_dir or (REPO_ROOT / "tools")
    scripts = sorted(tools_dir.glob("*.py"))
    scripts += [REPO_ROOT / name for name in EXTRA_SCRIPTS]
    flags: Set[str] = set()
    for script in scripts:
        text = script.read_text(encoding="utf-8")
        flags.update(
            re.findall(r"add_argument\(\s*['\"](--[a-z0-9-]+)", text)
        )
    return flags


def resolve_dotted(path: str, wildcard: bool = False) -> bool:
    """Whether a ``repro.*`` dotted path exists in the import graph.

    Tries the longest importable module prefix, then follows the
    remaining components with ``getattr``.  With ``wildcard`` the last
    component is a prefix: the parent must expose *some* attribute
    starting with it.
    """
    parts = path.split(".")
    prefix_parts, leaf = (parts[:-1], parts[-1]) if wildcard else (parts, "")
    for i in range(len(prefix_parts), 0, -1):
        module_name = ".".join(prefix_parts[:i])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in prefix_parts[i:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        if wildcard:
            return any(name.startswith(leaf) for name in dir(obj))
        return True
    return False


def expand_docs(patterns: Iterable[str]) -> List[Path]:
    """Resolve doc paths: globs relative to the repo root, or absolute."""
    paths: List[Path] = []
    for pattern in patterns:
        candidate = Path(pattern)
        if candidate.is_absolute():
            if not candidate.is_file():
                raise FileNotFoundError(pattern)
            paths.append(candidate)
            continue
        matches = sorted(REPO_ROOT.glob(pattern))
        if not matches and "*" not in pattern:
            raise FileNotFoundError(pattern)
        paths.extend(matches)
    return paths


def check_file(
    doc: Path, cli_flags: Set[str], tool_flags: Set[str]
) -> List[str]:
    """Lint one markdown file; returns ``path:line: message`` strings."""
    problems: List[str] = []
    known_flags = cli_flags | tool_flags | EXTERNAL_FLAGS
    try:
        rel = doc.relative_to(REPO_ROOT)
    except ValueError:
        rel = doc
    lines = doc.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        for match in FLAG_RE.finditer(line):
            flag = match.group(0)
            if flag not in known_flags:
                problems.append(
                    f"{rel}:{lineno}: unknown flag {flag} (not in the "
                    "repro argparse tree, tools/ scripts, the benchmark "
                    "runner, or the external-tool allowlist)"
                )
        for match in DOTTED_RE.finditer(line):
            path = match.group(0)
            wildcard = line[match.end() : match.end() + 1] == "*"
            if not resolve_dotted(path, wildcard=wildcard):
                suffix = "*" if wildcard else ""
                problems.append(
                    f"{rel}:{lineno}: unresolvable reference "
                    f"{path}{suffix} (does not import)"
                )
    commands = collect_command_flags()
    for lineno, text in command_snippets(lines):
        for flag, command in misplaced_flags(text, commands):
            problems.append(
                f"{rel}:{lineno}: flag {flag} is not an option of "
                f"`repro {command}`"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="check_docs",
        description="verify doc-mentioned flags and repro.* paths exist",
    )
    parser.add_argument(
        "docs", nargs="*", default=list(DEFAULT_DOCS),
        help="doc files or globs relative to the repo root "
             "(default: README.md docs/*.md)",
    )
    args = parser.parse_args(argv)
    try:
        docs = expand_docs(args.docs)
    except FileNotFoundError as exc:
        print(f"no such doc: {exc}", file=sys.stderr)
        return 2
    cli_flags = collect_cli_flags()
    tool_flags = collect_tool_flags()
    problems: List[str] = []
    for doc in docs:
        problems.extend(check_file(doc, cli_flags, tool_flags))
    for problem in problems:
        print(problem)
    checked = len(docs)
    if problems:
        print(
            f"{len(problems)} stale reference(s) across {checked} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"{checked} doc file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
