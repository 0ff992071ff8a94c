"""Whole-program lint tests: the project-rule fixtures, call-graph
determinism, and the CLI surface of linting a directory.

Project fixtures are *directories* under ``lint_fixtures/project/`` — each a
small multi-module tree whose files carry the same ``# lint-path:`` headers
and ``# expect: RLnnn`` markers the per-file fixtures use.  Violation trees
are linted with only the rule under test; clean twins run the full rule set
and must come back empty.
"""

import json
import random
import re
from pathlib import Path

import pytest

from repro.analysis.lint import (
    lint_paths,
    lint_sources,
    make_rule_sets,
    render_json,
    rule_ids,
)
from repro.cli import main as cli_main
from repro.core import ConfigurationError

FIXTURES = Path(__file__).parent / "lint_fixtures" / "project"

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<ids>RL\d{3}(?:\s*,\s*RL\d{3})*)")
_PATH_RE = re.compile(r"^#\s*lint-path:\s*(?P<path>\S+)", re.MULTILINE)

#: rule id -> violation tree (clean twin = s/violation/clean/)
PROJECT_VIOLATION_TREES = {
    "RL101": "rl101_violation",
    "RL102": "rl102_violation",
    "RL104": "rl104_violation",
    "RL105": "rl105_violation",
}

#: the chains the chain-rendering rules must spell out, violation tree ->
#: fragments of the finding message
CHAIN_FRAGMENTS = {
    "RL101": ("dispatch", "drain_trace", "→"),
    "RL102": ("refine", "split_cost", "evaluate_split", "→"),
}


def load_tree(dirname):
    """Return (sources, expected) for one fixture tree.

    ``sources`` is the ``lint_sources`` input — (virtual path, text) per
    file; ``expected`` the sorted (virtual path, line, rule id) markers.
    """
    sources, expected = [], []
    for file in sorted((FIXTURES / dirname).glob("*.py")):
        text = file.read_text(encoding="utf-8")
        match = _PATH_RE.search(text)
        virtual = match.group("path") if match else file.name
        sources.append((virtual, text))
        for number, line in enumerate(text.splitlines(), start=1):
            marker = _EXPECT_RE.search(line)
            if marker:
                for rule_id in marker.group("ids").split(","):
                    expected.append((virtual, number, rule_id.strip()))
    return sources, sorted(expected)


def materialize_tree(dirname, root):
    """Write a fixture tree to disk at each file's ``lint-path``."""
    written = []
    for virtual, text in load_tree(dirname)[0]:
        target = root / virtual
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
        written.append(target)
    return written


class TestProjectRuleFixtures:
    def test_every_project_rule_has_a_fixture_pair(self):
        project_ids = [rid for rid in rule_ids() if rid >= "RL100"]
        assert sorted(PROJECT_VIOLATION_TREES) == project_ids
        for dirname in PROJECT_VIOLATION_TREES.values():
            assert (FIXTURES / dirname).is_dir()
            assert (FIXTURES / dirname.replace("violation", "clean")).is_dir()

    @pytest.mark.parametrize("rule_id", sorted(PROJECT_VIOLATION_TREES))
    def test_violation_tree_fires_at_marked_lines(self, rule_id):
        sources, expected = load_tree(PROJECT_VIOLATION_TREES[rule_id])
        assert expected, f"{rule_id} tree carries no # expect: markers"
        report = lint_sources(sources, rule_ids_filter=[rule_id])
        got = sorted((f.path, f.line, f.rule_id) for f in report.findings)
        assert got == expected

    @pytest.mark.parametrize("rule_id", sorted(CHAIN_FRAGMENTS))
    def test_finding_message_spells_out_the_call_chain(self, rule_id):
        sources, _ = load_tree(PROJECT_VIOLATION_TREES[rule_id])
        report = lint_sources(sources, rule_ids_filter=[rule_id])
        assert report.findings
        message = report.findings[0].message
        for fragment in CHAIN_FRAGMENTS[rule_id]:
            assert fragment in message, f"{rule_id} message lacks {fragment!r}: {message}"

    @pytest.mark.parametrize(
        "dirname",
        sorted(d.replace("violation", "clean") for d in PROJECT_VIOLATION_TREES.values()),
    )
    def test_clean_twin_passes_every_rule(self, dirname):
        sources, expected = load_tree(dirname)
        assert not expected, f"clean twin {dirname} must carry no markers"
        report = lint_sources(sources)
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.ok, f"clean twin {dirname} is not clean:\n{rendered}"

    @pytest.mark.parametrize(
        "dirname",
        sorted(
            name
            for d in PROJECT_VIOLATION_TREES.values()
            for name in (d, d.replace("violation", "clean"))
        ),
    )
    def test_tree_on_disk_lints_like_the_in_memory_tree(self, tmp_path, dirname):
        # read from disk under real paths, a tree resolves its modules and
        # scopes its rules exactly as under its virtual lint-paths; messages
        # that name another file name it by its real path
        materialize_tree(dirname, tmp_path)
        sources, _ = load_tree(dirname)
        on_disk = lint_paths([tmp_path])
        in_memory = lint_sources(sources)
        assert len(on_disk.files) == len(sources)
        prefix = f"{tmp_path}/"
        assert [
            (f.path.removeprefix(prefix), f.line, f.col, f.rule_id, f.message.replace(prefix, ""))
            for f in on_disk.findings
        ] == [(f.path, f.line, f.col, f.rule_id, f.message) for f in in_memory.findings]
        assert len(on_disk.project.functions) == len(in_memory.project.functions)

    def test_project_rules_refuse_to_run_per_file(self):
        with pytest.raises(ConfigurationError, match="whole-program"):
            make_rule_sets(["RL101"], project=False)


class TestDeterminism:
    @pytest.fixture()
    def tree(self, tmp_path):
        root = tmp_path / "tree"
        files = materialize_tree("rl101_violation", root)
        files += materialize_tree("rl102_violation", root)
        return root, files

    def test_cold_warm_and_shuffled_runs_are_byte_identical(self, tree):
        root, files = tree
        first = lint_paths([root])
        second = lint_paths([root])
        shuffled = list(files)
        random.Random(20260808).shuffle(shuffled)
        # the same modules in another order through the one driver loop
        reordered = lint_sources([(str(f), f.read_bytes()) for f in shuffled])
        assert render_json(first) == render_json(second) == render_json(reordered)
        assert first.project is not None and second.project is not None
        assert first.project.edges == second.project.edges
        assert {f.rule_id for f in first.findings} >= {"RL101", "RL102"}


class TestProjectCli:
    @pytest.fixture()
    def violation_dir(self, tmp_path):
        root = tmp_path / "tree"
        materialize_tree("rl101_violation", root)
        return root

    @pytest.fixture()
    def clean_dir(self, tmp_path):
        root = tmp_path / "clean"
        materialize_tree("rl101_clean", root)
        return root

    def test_directories_default_to_project_mode(self, violation_dir, capsys):
        assert cli_main(["lint", str(violation_dir)]) == 1
        assert "RL101" in capsys.readouterr().out

    def test_no_project_disables_the_project_rules(self, violation_dir, capsys):
        # the same tree passed as files runs only the per-file rules
        files = [str(path) for path in sorted(violation_dir.rglob("*.py"))]
        assert cli_main(["lint"] + files) == 0
        assert "clean" in capsys.readouterr().out

    def test_output_writes_json_report_and_keeps_text_on_stdout(
        self, violation_dir, tmp_path, capsys
    ):
        report_path = tmp_path / "report.json"
        code = cli_main(["lint", str(violation_dir), "--output", str(report_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "RL101" in out and not out.startswith("{")
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["clean"] is False
        assert {f["rule"] for f in payload["findings"]} == {"RL101"}

    def test_run_writes_nothing_but_its_output(self, violation_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        before = set(tmp_path.rglob("*"))
        report_path = tmp_path / "report.json"
        assert cli_main(["lint", str(violation_dir), "--output", str(report_path)]) == 1
        assert set(tmp_path.rglob("*")) - before == {report_path}

    @pytest.mark.parametrize(
        "flags",
        [
            ["--project"],
            ["--no-project"],
            ["--graph", "dot"],
            ["--cache", "lint-cache.jsonl"],
            ["--no-cache"],
            ["--format", "json"],
        ],
        ids=["project", "no-project", "graph", "cache", "no-cache", "format"],
    )
    def test_retired_settings_exit_two(self, clean_dir, capsys, flags):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["lint", str(clean_dir)] + flags)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: " + " ".join(flags) in capsys.readouterr().err

    def test_project_rule_on_single_file_exits_two(self, clean_dir, capsys):
        target = clean_dir / "simulation" / "engine.py"
        assert cli_main(["lint", str(target), "--rule", "RL101"]) == 2
        assert "whole-program" in capsys.readouterr().err
