"""The integration gate: the repo's own source tree lints clean.

This is the test CI relies on — any new finding in ``src/repro`` (or a
pragma without a justification) fails the suite with the rendered report.
The package is linted as a directory, so one pass runs the per-file rules
and the whole-program rules over the call graph.
"""

from pathlib import Path

import repro
from repro.analysis.lint import lint_paths, rule_ids


def _package_root() -> Path:
    return Path(repro.__file__).resolve().parent


def test_src_tree_is_lint_clean():
    report = lint_paths([_package_root()])
    rendered = "\n".join(finding.render() for finding in report.findings)
    assert report.ok, f"repro-lint findings in {_package_root()}:\n{rendered}"
    # sanity: the run covered the tree with every rule and built the call graph
    assert len(report.files) > 40
    assert tuple(report.rule_ids) == tuple(rule_ids())
    assert rule_ids() == (
        "RL001", "RL002", "RL003", "RL004", "RL006", "RL007", "RL008",
        "RL101", "RL102", "RL104", "RL105",
    )
    assert report.project is not None
    assert len(report.project.functions) > 100
