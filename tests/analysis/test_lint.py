"""Fixture tests for the per-file repro-lint rules and the pragma layer.

Every rule has one *violation* fixture — each expected finding marked with a
trailing ``# expect: RLnnn`` comment on the offending line — and one *clean
twin* that does the same job the approved way.  Violation fixtures are linted
with only the rule under test, so the markers name exactly the findings; clean
twins are linted with the full rule set and must come back empty.

A ``# lint-path:`` header comment gives the fixture a virtual path so the
path-scoped rules (allowlists, ``experiments/`` scoping, the engine rule)
behave exactly as they do on the real tree.
"""

import json
import re
from pathlib import Path

import pytest

from repro.analysis.lint import (
    PRAGMA_RULE_ID,
    available_rules,
    lint_paths,
    lint_source,
    make_rules,
    rule_ids,
)
from repro.cli import main as cli_main
from repro.core import ConfigurationError

FIXTURES = Path(__file__).parent / "lint_fixtures"

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<ids>RL\d{3}(?:\s*,\s*RL\d{3})*)")
_PATH_RE = re.compile(r"^#\s*lint-path:\s*(?P<path>\S+)", re.MULTILINE)

#: rule id -> violation fixtures exercising it (clean twin = s/violation/clean/)
VIOLATION_FIXTURES = {
    "RL001": ("rl001_violation.py",),
    "RL002": ("rl002_violation.py",),
    "RL003": ("rl003_violation.py",),
    "RL004": ("rl004_violation.py",),
    "RL006": ("rl006_violation.py",),
    "RL007": ("rl007_violation.py",),
    "RL008": ("rl008_violation.py",),
}


def load_fixture(name):
    """Return (source, virtual path, sorted expected (line, rule) pairs)."""
    source = (FIXTURES / name).read_text(encoding="utf-8")
    match = _PATH_RE.search(source)
    virtual_path = match.group("path") if match else name
    expected = []
    for number, line in enumerate(source.splitlines(), start=1):
        marker = _EXPECT_RE.search(line)
        if marker:
            for rule_id in marker.group("ids").split(","):
                expected.append((number, rule_id.strip()))
    return source, virtual_path, sorted(expected)


def lint_pairs(source, path, rules=None):
    return sorted((f.line, f.rule_id) for f in lint_source(source, path, rules=rules))


class TestRuleFixtures:
    def test_every_rule_has_a_fixture_pair(self):
        # project rules (RL101+) have multi-module fixtures in
        # test_project_lint.py; this map covers exactly the per-file family
        file_ids = [rule.id for rule in available_rules() if rule.scope == "file"]
        assert sorted(VIOLATION_FIXTURES) == sorted(file_ids)
        for fixtures in VIOLATION_FIXTURES.values():
            for name in fixtures:
                assert (FIXTURES / name).is_file()
                assert (FIXTURES / name.replace("violation", "clean")).is_file()

    @pytest.mark.parametrize(
        "rule_id,fixture",
        [(rid, name) for rid, names in VIOLATION_FIXTURES.items() for name in names],
    )
    def test_violation_fixture_fires_at_marked_lines(self, rule_id, fixture):
        source, path, expected = load_fixture(fixture)
        assert expected, f"{fixture} carries no # expect: markers"
        assert all(rid == rule_id for _, rid in expected)
        got = lint_pairs(source, path, rules=make_rules([rule_id]))
        assert got == expected

    @pytest.mark.parametrize(
        "fixture",
        sorted(
            name.replace("violation", "clean")
            for names in VIOLATION_FIXTURES.values()
            for name in names
        ),
    )
    def test_clean_twin_passes_every_rule(self, fixture):
        source, path, expected = load_fixture(fixture)
        assert not expected, f"clean twin {fixture} must carry no markers"
        findings = lint_source(source, path)
        rendered = "\n".join(f.render() for f in findings)
        assert not findings, f"clean twin {fixture} is not clean:\n{rendered}"

    def test_rules_are_path_scoped(self):
        source, _, _ = load_fixture("rl002_violation.py")
        # the slow-path loop is the validated reference inside core/ and tests
        assert lint_pairs(source, "core/problem.py", rules=make_rules(["RL002"])) == []
        assert lint_pairs(source, "tests/test_x.py", rules=make_rules(["RL002"])) == []
        # determinism applies nowhere in the wall-clock helpers module
        source, _, _ = load_fixture("rl001_violation.py")
        assert lint_pairs(source, "utils/timing.py", rules=make_rules(["RL001"])) == []
        engine, _, _ = load_fixture("rl008_violation.py")
        # the engine-purity rule only applies to simulation/engine.py
        assert lint_pairs(engine, "simulation/stream.py", rules=make_rules(["RL008"])) == []

    def test_unknown_rule_filter_raises(self):
        with pytest.raises(ConfigurationError, match="RL999"):
            make_rules(["RL999"])

    def test_syntax_error_becomes_protocol_finding(self):
        findings = lint_source("def broken(:\n", "heuristics/broken.py")
        assert len(findings) == 1
        assert findings[0].rule_id == PRAGMA_RULE_ID
        assert "does not parse" in findings[0].message


class TestPragmas:
    @staticmethod
    def _pragma_line(source):
        return next(
            number
            for number, line in enumerate(source.splitlines(), start=1)
            if "repro-lint" in line
        )

    def test_justified_pragma_suppresses_the_finding(self):
        source, path, _ = load_fixture("pragma_suppressed.py")
        assert lint_source(source, path) == []

    def test_unjustified_pragma_keeps_finding_and_reports_protocol(self):
        source, path, _ = load_fixture("pragma_unjustified.py")
        line = self._pragma_line(source)
        assert lint_pairs(source, path) == sorted([(line, PRAGMA_RULE_ID), (line, "RL006")])

    def test_unknown_rule_in_pragma_is_a_protocol_finding(self):
        source, path, _ = load_fixture("pragma_unknown.py")
        line = self._pragma_line(source)
        assert lint_pairs(source, path) == [(line, PRAGMA_RULE_ID)]

    def test_pragma_only_silences_named_rule_on_its_line(self):
        source, path, _ = load_fixture("pragma_suppressed.py")
        # restricting the run to RL006 must not resurrect the finding
        assert lint_pairs(source, path, rules=make_rules(["RL006"])) == []

    def test_pragma_on_multiline_statement_covers_the_logical_line(self):
        source, path, _ = load_fixture("pragma_multiline.py")
        assert lint_source(source, path) == []
        # the suppressed finding sits *below* the pragma's physical line:
        # stripping the pragma must surface it there, proving the pragma
        # was honoured across the statement, not just on its own line
        pragma_line = self._pragma_line(source)
        stripped = "\n".join(
            line.split("  # repro-lint:")[0] for line in source.splitlines()
        )
        got = lint_pairs(stripped, path)
        assert got == [(pragma_line + 1, "RL001")]


class TestModeFollowsInput:
    @pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.py")))
    def test_directory_run_adds_only_the_project_rules(self, tmp_path, fixture):
        # on disk at its lint-path, a fixture passed as a file gets the
        # per-file rules with the findings of its virtual path; passed as a
        # directory it gets all 11 rules and the same per-file findings
        source, path, _ = load_fixture(fixture)
        target = tmp_path / path
        target.parent.mkdir(parents=True)
        target.write_text(source, encoding="utf-8")
        as_file = lint_paths([target])
        as_directory = lint_paths([tmp_path])
        assert as_file.project is None and as_directory.project is not None
        file_ids = [rule.id for rule in available_rules() if rule.scope == "file"]
        assert list(as_file.rule_ids) == file_ids
        assert list(as_directory.rule_ids) == list(rule_ids())
        assert sorted((f.line, f.rule_id) for f in as_file.findings) == lint_pairs(source, path)
        project_ids = set(rule_ids()) - set(file_ids)
        per_file = [f for f in as_directory.findings if f.rule_id not in project_ids]
        assert per_file == list(as_file.findings)


class TestLintCli:
    @staticmethod
    def _write(tmp_path, fixture):
        source, _, _ = load_fixture(fixture)
        target = tmp_path / fixture
        target.write_text(source, encoding="utf-8")
        return target

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = self._write(tmp_path, "rl006_clean.py")
        assert cli_main(["lint", str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_and_name_the_rule(self, tmp_path, capsys):
        target = self._write(tmp_path, "rl006_violation.py")
        assert cli_main(["lint", str(target)]) == 1
        out = capsys.readouterr().out
        assert "RL006" in out and f"{target}" in out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        target = self._write(tmp_path, "rl006_violation.py")
        report_path = tmp_path / "report.json"
        assert cli_main(["lint", str(target), "--output", str(report_path)]) == 1
        capsys.readouterr()
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["clean"] is False
        assert payload["files_checked"] == 1
        assert {f["rule"] for f in payload["findings"]} == {"RL006"}

    def test_rule_filter_restricts_the_run(self, tmp_path, capsys):
        target = self._write(tmp_path, "rl006_violation.py")
        assert cli_main(["lint", str(target), "--rule", "RL001"]) == 0
        capsys.readouterr()

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        target = self._write(tmp_path, "rl006_clean.py")
        assert cli_main(["lint", str(target), "--rule", "RL999"]) == 2
        assert "RL999" in capsys.readouterr().err

    @pytest.mark.parametrize("rule_id", ["RL005", "RL103"])
    def test_deleted_rule_is_an_unknown_rule(self, tmp_path, capsys, rule_id):
        # RL005 and RL103 were deleted: tier-1 tests catch every violation
        # they caught, so asking for them is a usage error, not a silent pass
        self._write(tmp_path, "rl006_clean.py")
        assert cli_main(["lint", str(tmp_path), "--rule", rule_id]) == 2
        assert rule_id in capsys.readouterr().err
        assert rule_id not in rule_ids()

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert cli_main(["lint", str(tmp_path / "nope.py")]) == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("as_directory", [False, True], ids=["file", "directory"])
    def test_file_that_is_not_utf8_is_a_protocol_finding(self, tmp_path, capsys, as_directory):
        target = tmp_path / "latin1.py"
        target.write_bytes(b'x = "\xff\xfe"\n')
        assert cli_main(["lint", str(tmp_path if as_directory else target)]) == 1
        out = capsys.readouterr().out
        assert f"{target}:1:1: {PRAGMA_RULE_ID} file is not UTF-8 text" in out

    @pytest.mark.parametrize("name", ["empty", "README.md"], ids=["empty-directory", "not-python"])
    def test_run_without_python_files_exits_two(self, tmp_path, capsys, name):
        # a gate pointed at the wrong path must fail, not pass on nothing
        target = tmp_path / name
        if target.suffix:
            target.write_text("# not python\n", encoding="utf-8")
        else:
            target.mkdir()
        assert cli_main(["lint", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert len(err.splitlines()) == 1

    def test_skipped_directory_names_apply_only_below_the_linted_path(self, tmp_path, capsys):
        tree = tmp_path / "build" / "pkg"
        tree.mkdir(parents=True)
        self._write(tree, "rl006_violation.py")
        (tree / "build").mkdir()
        self._write(tree / "build", "rl001_violation.py")
        assert cli_main(["lint", str(tree)]) == 1
        out = capsys.readouterr().out
        assert "RL006" in out and "RL001" not in out

    def test_list_rules_describes_every_rule(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_cls in available_rules():
            assert rule_cls.id in out
        for rule_id in rule_ids():
            assert rule_id in out
