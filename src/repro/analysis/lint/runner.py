"""The lint driver: read files, run rules, apply pragmas, collect findings.

One pass: :func:`lint_sources` is the only driver loop and
:func:`lint_paths` reads files from disk into it.  The mode follows the
input — a directory among the paths runs every rule over the call graph,
files alone run the per-file rules.

Findings come back sorted by (path, line, col, rule) so two runs over the
same tree produce byte-identical reports — the linter obeys the same
determinism invariant it enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ...core.exceptions import ConfigurationError
from .base import Finding, ModuleContext, Rule
from .pragmas import PRAGMA_RULE_ID, parse_pragmas
from .project import ModuleSummary, ProjectContext, summarize_module
from .registry import make_rule_sets, make_rules, rule_ids

__all__ = [
    "LintReport",
    "iter_python_files",
    "lint_source",
    "lint_paths",
    "lint_sources",
]

#: Directories never worth descending into: caches, VCS state, virtualenvs
#: and build output — ``repro-cloud lint .`` in a working checkout must not
#: lint third-party or generated code.
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    ".mypy_cache",
    ".ruff_cache",
    ".venv",
    "venv",
    "build",
    "dist",
    ".eggs",
}


@dataclass(frozen=True, slots=True)
class LintReport:
    """The outcome of one lint run."""

    findings: tuple[Finding, ...]
    files: tuple[str, ...]
    rule_ids: tuple[str, ...]
    #: the whole-program context with its call graph (None per-file)
    project: "ProjectContext | None" = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(paths: Iterable["str | Path"]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, in sorted order, each once."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ConfigurationError(f"lint path does not exist: {path}")
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not (set(p.relative_to(path).parts) & _SKIP_DIRS)
            )
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _analyze_module(
    path_text: str,
    source: "str | bytes",
    file_rules: Sequence[Rule],
    *,
    want_summary: bool,
) -> "tuple[list[Finding], ModuleSummary | None, dict[int, set[str]]]":
    """One module's full analysis: findings, optional summary, suppressions.

    Suppressions are returned (not just applied) because project-rule
    findings anchored in this module go through the same pragma filter
    later.  Bytes that are not UTF-8, like source that does not parse, are
    one protocol finding instead of an analysis.
    """
    try:
        text = source.decode("utf-8") if isinstance(source, bytes) else source
    except UnicodeDecodeError:
        return [Finding(PRAGMA_RULE_ID, path_text, 1, 1, "file is not UTF-8 text")], None, {}
    try:
        ctx = ModuleContext(path_text, text)
    except SyntaxError as exc:
        finding = Finding(
            rule_id=PRAGMA_RULE_ID,
            path=path_text,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1 if exc.offset is not None else 1,
            message=f"file does not parse: {exc.msg}",
        )
        return [finding], None, {}
    findings: set[Finding] = set()
    for rule in file_rules:
        if rule.applies_to(ctx):
            findings.update(rule.check(ctx))
    # pragmas validate against *all* known ids, not just the selected rules,
    # so a --rule-restricted run never misreports a valid pragma as unknown
    suppressions, pragma_findings = parse_pragmas(text, path_text, rule_ids())
    kept = [
        finding
        for finding in findings
        if finding.rule_id not in suppressions.get(finding.line, set())
    ]
    kept.extend(pragma_findings)
    kept.sort(key=Finding.sort_key)
    summary = summarize_module(ctx) if want_summary else None
    return kept, summary, suppressions


def lint_source(
    source: str,
    path: "str | Path" = "<memory>",
    *,
    rules: "Sequence[Rule] | None" = None,
) -> list[Finding]:
    """Lint one module's source text with per-file rules.

    ``path`` drives the path-scoped rules (allowlists, package scoping) and
    may be virtual — fixture tests lint real snippet files under synthetic
    paths like ``experiments/example.py``.
    """
    if rules is None:
        rules = make_rules()
    findings, _, _ = _analyze_module(str(path), source, rules, want_summary=False)
    return findings


def lint_sources(
    sources: Sequence[tuple[str, "str | bytes"]],
    *,
    rule_ids_filter: "Sequence[str] | None" = None,
    project: bool = True,
) -> LintReport:
    """Lint a set of ``(path, source)`` modules: the one driver loop.

    ``project=True`` adds whole-program analysis: every module is summarized
    into the symbol table / call graph and the project-rule family (RL101+)
    runs over the assembled :class:`ProjectContext`.  A source is text or
    the raw bytes of a file; fixture tests hand in synthetic multi-module
    trees under virtual paths without touching disk.
    """
    file_rules, project_rules = make_rule_sets(rule_ids_filter, project=project)
    findings: list[Finding] = []
    files: list[str] = []
    summaries: list[ModuleSummary] = []
    suppressions_by_path: dict[str, dict[int, set[str]]] = {}
    for path_text, source in sources:
        files.append(path_text)
        kept, summary, suppressions = _analyze_module(
            path_text, source, file_rules, want_summary=bool(project_rules)
        )
        findings.extend(kept)
        if summary is not None:
            summaries.append(summary)
        suppressions_by_path[path_text] = suppressions
    project_ctx: "ProjectContext | None" = None
    if project_rules:
        project_ctx = ProjectContext(summaries)
        for rule in sorted(project_rules, key=lambda r: r.id):
            for finding in rule.check_project(project_ctx):
                per_line = suppressions_by_path.get(finding.path, {})
                if finding.rule_id not in per_line.get(finding.line, set()):
                    findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return LintReport(
        findings=tuple(findings),
        files=tuple(files),
        rule_ids=tuple(rule.id for rule in list(file_rules) + list(project_rules)),
        project=project_ctx,
    )


def lint_paths(
    paths: Iterable["str | Path"],
    *,
    rule_ids_filter: "Sequence[str] | None" = None,
) -> LintReport:
    """Lint every Python file under ``paths`` with the selected rules.

    A directory among ``paths`` selects whole-program mode; files alone get
    the per-file rules.  Finding no Python file is a configuration error, so
    a gate pointed at the wrong path fails instead of passing on nothing.
    """
    roots = [Path(raw) for raw in paths]
    sources: list[tuple[str, bytes]] = []
    for file_path in iter_python_files(roots):
        try:
            sources.append((str(file_path), file_path.read_bytes()))
        except OSError as exc:
            raise ConfigurationError(f"cannot read {file_path}: {exc}") from None
    if not sources:
        names = ", ".join(str(root) for root in roots)
        raise ConfigurationError(f"no Python file to lint in {names}")
    return lint_sources(
        sources,
        rule_ids_filter=rule_ids_filter,
        project=any(root.is_dir() for root in roots),
    )
