"""Unit tests for the docs reference lint (``tools/check_docs.py``).

The lint is CI's guarantee that every ``--flag`` and ``repro.*``
dotted path mentioned in the markdown docs exists in the code; these
tests pin the extraction regexes, the argparse/import resolution, and
the exit-code contract, including the wildcard form
``repro.perfsim.configs.EXTRA_*``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", _TOOL)
check_docs = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_docs", check_docs)
_spec.loader.exec_module(check_docs)


@pytest.fixture(scope="module")
def cli_flags():
    return check_docs.collect_cli_flags()


@pytest.fixture(scope="module")
def tool_flags():
    return check_docs.collect_tool_flags()


class TestFlagCollection:
    def test_cli_tree_walk_reaches_subcommands(self, cli_flags):
        # Top-level, reliability-subcommand, sweep-subcommand and
        # obs-sub-subcommand flags all come from one recursive walk.
        for flag in (
            "--log-level",
            "--faultsim-backend",
            "--fit-scales",
            "--metrics",
        ):
            assert flag in cli_flags

    def test_tools_scrape_finds_bench_snapshot_flags(self, tool_flags):
        assert "--tolerance" in tool_flags
        assert "--include-wall" in tool_flags

    def test_scrape_finds_the_benchmark_runner_flags(self, tool_flags):
        # benchmarks/e2e/run.py is scraped beside tools/.
        assert {"--workload", "--seconds", "--trace"} <= tool_flags

    def test_unknown_flag_not_collected(self, cli_flags, tool_flags):
        assert "--definitely-not-a-flag" not in cli_flags | tool_flags


class TestDottedResolution:
    def test_module_path(self):
        assert check_docs.resolve_dotted("repro.faultsim.markov")

    def test_attribute_path(self):
        assert check_docs.resolve_dotted("repro.faultsim.markov.solve")

    def test_missing_attribute(self):
        assert not check_docs.resolve_dotted("repro.faultsim.markov.absent")

    def test_missing_module(self):
        assert not check_docs.resolve_dotted("repro.no_such_module")

    def test_wildcard_prefix(self):
        assert check_docs.resolve_dotted(
            "repro.perfsim.configs.EXTRA_", wildcard=True
        )

    def test_wildcard_without_match(self):
        assert not check_docs.resolve_dotted(
            "repro.perfsim.configs.ZZZ_", wildcard=True
        )


class TestCheckFile:
    def _lint(self, tmp_path, text, cli_flags, tool_flags):
        doc = tmp_path / "doc.md"
        doc.write_text(text, encoding="utf-8")
        return check_docs.check_file(doc, cli_flags, tool_flags)

    def test_clean_doc(self, tmp_path, cli_flags, tool_flags):
        problems = self._lint(
            tmp_path,
            "Run `repro sweep --fit-scales 1 4` or call "
            "`repro.faultsim.markov.sweep` directly.\n",
            cli_flags,
            tool_flags,
        )
        assert problems == []

    def test_stale_flag_reported_with_line(
        self, tmp_path, cli_flags, tool_flags
    ):
        problems = self._lint(
            tmp_path, "ok\npass `--bogus-flag` here\n", cli_flags, tool_flags
        )
        assert len(problems) == 1
        assert ":2:" in problems[0] and "--bogus-flag" in problems[0]

    def test_stale_dotted_path_reported(
        self, tmp_path, cli_flags, tool_flags
    ):
        problems = self._lint(
            tmp_path, "see repro.faultsim.gone()\n", cli_flags, tool_flags
        )
        assert len(problems) == 1
        assert "repro.faultsim.gone" in problems[0]

    def test_wildcard_in_doc_text(self, tmp_path, cli_flags, tool_flags):
        problems = self._lint(
            tmp_path,
            "constants repro.perfsim.configs.EXTRA_* are generated\n",
            cli_flags,
            tool_flags,
        )
        assert problems == []

    def test_markdown_rule_not_a_flag(self, tmp_path, cli_flags, tool_flags):
        # A horizontal rule / em-dash run must not parse as a flag.
        problems = self._lint(tmp_path, "---\ntext --- more\n", cli_flags, tool_flags)
        assert problems == []

    def test_benchmark_command_line_is_clean(
        self, tmp_path, cli_flags, tool_flags
    ):
        problems = self._lint(
            tmp_path,
            "`python3 benchmarks/e2e/run.py --workload fig7_mc "
            "--seconds 20`\n",
            cli_flags,
            tool_flags,
        )
        assert problems == []

    def test_external_flags_allowlisted(self, tmp_path, cli_flags, tool_flags):
        problems = self._lint(
            tmp_path,
            "pytest benchmarks --benchmark-only --benchmark-json out.json\n",
            cli_flags,
            tool_flags,
        )
        assert problems == []


class TestCommandFlags:
    """A flag in a ``repro <command>`` invocation must be that command's."""

    def _lint(self, tmp_path, text, cli_flags, tool_flags):
        doc = tmp_path / "doc.md"
        doc.write_text(text, encoding="utf-8")
        return check_docs.check_file(doc, cli_flags, tool_flags)

    @pytest.mark.parametrize("text, flag, command, line", [
        pytest.param(
            "Rehearse with `repro coordinate --schemes xed --chaos crash=1`.\n",
            "--chaos", "coordinate", 1, id="inline-coordinate-chaos",
        ),
        pytest.param(
            "Workers:\n\n```bash\n"
            "PYTHONPATH=src python -m repro work \\\n"
            "    --coordinator host1:7653 --checkpoint ck/\n```\n",
            "--checkpoint", "work", 4, id="block-work-checkpoint",
        ),
    ])
    def test_flag_of_another_command_reported(
        self, tmp_path, cli_flags, tool_flags, text, flag, command, line
    ):
        (problem,) = self._lint(tmp_path, text, cli_flags, tool_flags)
        assert f":{line}:" in problem
        assert flag in problem and f"`repro {command}`" in problem

    def test_root_and_obs_subcommand_flags_accepted(
        self, tmp_path, cli_flags, tool_flags
    ):
        # The root's flags go before the command, the obs flags after
        # it; `&&` ends the command, so --tolerance is not its flag.
        text = (
            "```bash\n"
            "python -m repro --trace-out t.jsonl reliability \\\n"
            "    --schemes xed --metrics-out m.json && \\\n"
            "    python tools/bench_snapshot.py compare --tolerance 0.5\n"
            "python -m repro obs summarize --trace t.jsonl --top 3\n"
            "```\n"
            "and `repro work --coordinator h:7653 --connect-timeout 5`\n"
        )
        assert self._lint(tmp_path, text, cli_flags, tool_flags) == []


class TestMainExitCodes:
    def test_clean_exit_zero(self, tmp_path, capsys):
        doc = tmp_path / "ok.md"
        doc.write_text("use `--systems` and repro.faultsim\n", encoding="utf-8")
        assert check_docs.main([str(doc)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        doc = tmp_path / "bad.md"
        doc.write_text("use `--not-real`\n", encoding="utf-8")
        assert check_docs.main([str(doc)]) == 1
        captured = capsys.readouterr()
        assert "--not-real" in captured.out
        assert "stale reference" in captured.err

    def test_missing_doc_exit_two(self, tmp_path, capsys):
        assert check_docs.main([str(tmp_path / "absent.md")]) == 2
        assert "no such doc" in capsys.readouterr().err

    def test_repo_docs_are_clean(self):
        # The committed documentation surface itself must lint clean --
        # this is the same invocation CI runs.
        assert check_docs.main([]) == 0
