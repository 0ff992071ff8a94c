"""The repro-lint visitor framework: findings, module context, rule base.

Rules are deliberately *lexical*: they reason about one module's AST at a
time (plus its import aliases), never about runtime types or cross-module
data flow.  That keeps every rule fast, deterministic and explainable — a
finding always points at a concrete line whose text shows the violation —
at the cost of not chasing values through helper functions.  The invariants
being enforced are structural ("this call may not appear in that position"),
which is exactly what a lexical checker can decide.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Any, Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "ProjectRule",
    "qual_matches",
    "module_segment",
    "WALL_CLOCK_CALLS",
    "is_wall_clock_call",
    "impurity_reason",
]

#: Function-boundary node types: loop lookups stop here.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSION_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

#: Wall-clock reads (resolved, suffix-matched): anything whose result depends
#: on when — not what — is being computed.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id, self.message)

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


def qual_matches(qual: str | None, patterns: Iterable[str]) -> bool:
    """True when a resolved dotted name ends in one of ``patterns``.

    Suffix matching (``"time.time"`` matches both ``time.time`` and a
    hypothetical ``mytime.time.time``) keeps the rules robust against import
    aliasing and relative-import prefixes the resolver cannot expand.
    """
    if qual is None:
        return False
    for pattern in patterns:
        if qual == pattern or qual.endswith("." + pattern):
            return True
    return False


def module_segment(qual: str | None, module: str) -> bool:
    """True when ``module`` appears as a dotted segment of ``qual``.

    ``module_segment("repro.utils.timing.Stopwatch", "utils.timing")`` is
    true; plain substring matching would also accept ``myutils.timings``.
    """
    if qual is None:
        return False
    return f".{module}." in f".{qual}."


class ModuleContext:
    """One parsed module: source, AST, parent links, import aliases.

    The context is built once per file and shared by every rule, so the
    O(nodes) bookkeeping (parent map, alias table) is paid once.
    """

    def __init__(self, path: str, source: str, *, tree: ast.Module | None = None) -> None:
        self.path = str(path)
        self.source = source
        self.tree = ast.parse(source) if tree is None else tree
        self.lines = source.splitlines()
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self.aliases: dict[str, str] = {}
        self.imported_modules: set[str] = set()
        self._collect_imports()

    # -- imports ---------------------------------------------------------- #

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.aliases[head] = head
                    self.imported_modules.add(alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                # relative imports keep their textual module path (the
                # package root is unknowable lexically); suffix/segment
                # matching in the rules absorbs the missing prefix
                module = node.module or ""
                if module:
                    self.imported_modules.add(module.split(".")[0])
                for alias in node.names:
                    local = alias.asname or alias.name
                    target = f"{module}.{alias.name}" if module else alias.name
                    self.aliases[local] = target

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name of a ``Name``/``Attribute`` chain, alias-expanded.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        when the module did ``import numpy as np``; unknown heads are kept
        verbatim.  Non-name expressions resolve to ``None``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.aliases.get(node.id, node.id)
        parts.append(head)
        return ".".join(reversed(parts))

    # -- structure -------------------------------------------------------- #

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return ancestor
        return None

    def in_loop(self, node: ast.AST) -> bool:
        """True when ``node`` sits lexically inside a loop or comprehension.

        The walk stops at the nearest enclosing function/class boundary: a
        call inside a helper *defined* under a loop is not "in" that loop.
        """
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, _LOOP_NODES + _COMPREHENSION_NODES):
                return True
            if isinstance(ancestor, _SCOPE_NODES):
                return False
        return False

    @property
    def module_parts(self) -> tuple[str, ...]:
        """Path components relative to the package root.

        ``/root/repo/src/repro/utils/timing.py`` and the virtual test path
        ``utils/timing.py`` both normalise to ``("utils", "timing.py")``, so
        path-scoped rules behave identically on real trees and fixtures.
        """
        raw = tuple(p for p in PurePosixPath(self.path.replace("\\", "/")).parts if p != "/")
        for anchor in ("repro", "src"):
            if anchor in raw:
                index = max(i for i, part in enumerate(raw) if part == anchor)
                return raw[index + 1 :]
        return raw

    def parts_endswith(self, *suffix: str) -> bool:
        parts = self.module_parts
        return parts[-len(suffix) :] == tuple(suffix)

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=rule_id,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def is_wall_clock_call(ctx: ModuleContext, node: ast.AST) -> bool:
    """True for a call expression that reads the wall clock."""
    return isinstance(node, ast.Call) and qual_matches(ctx.resolve(node.func), WALL_CLOCK_CALLS)


class Rule:
    """Base class of every lint rule.

    Subclasses set the stable ``id`` (``RLnnn`` — checkpointed pragmas and CI
    configs reference it, so it never changes meaning), a short ``name`` and
    a one-line ``summary``, then implement :meth:`check`.  Path scoping goes
    in :meth:`applies_to` so the runner can skip whole files cheaply.
    """

    id: str = ""
    name: str = ""
    summary: str = ""
    #: "file" rules see one module at a time; "project" rules see the whole
    #: tree (ProjectRule subclasses) and only run when a directory is linted.
    scope: str = "file"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return True

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    @classmethod
    def describe(cls) -> str:
        tag = " [project]" if cls.scope == "project" else ""
        return f"{cls.id} ({cls.name}){tag}: {cls.summary}"


class ProjectRule(Rule):
    """Base class of whole-program rules (RL1nn).

    Project rules run over a :class:`~repro.analysis.lint.project.ProjectContext`
    — every module parsed, symbols indexed, call graph built — so they can
    enforce invariants that are properties of *call chains* rather than single
    files.  They only run in whole-tree mode (a directory among the paths).
    """

    scope = "project"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        return ()

    def check_project(self, project) -> Iterable[Finding]:
        raise NotImplementedError


def impurity_reason(ctx: ModuleContext, node: ast.Call) -> "str | None":
    """Why ``node`` is an impure call (I/O, logging, wall-clock), or None.

    Shared by the per-file engine-purity rule (RL008) and the whole-program
    summaries behind transitive purity (RL101), so both agree on what counts.
    """
    if is_wall_clock_call(ctx, node):
        return f"wall-clock read {ctx.resolve(node.func)}()"
    func = node.func
    if isinstance(func, ast.Name) and func.id in ("print", "input"):
        return f"{func.id}() call"
    if isinstance(func, ast.Name) and func.id == "open":
        return "file open"
    if isinstance(func, ast.Attribute) and func.attr == "open":
        return "file open"
    qual = ctx.resolve(func)
    if qual is not None and (qual.startswith("logging.") or module_segment(qual, "logging")):
        return f"logging call {qual}()"
    if qual is not None and qual.split(".")[0] in ("sys",) and "std" in qual:
        return f"stream write {qual}()"
    return None


def walk_nodes(ctx: ModuleContext, *types: type) -> Iterator[ast.AST]:
    """All nodes of the given types, in document order."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, types):
            yield node


def caught_exception_names(ctx: ModuleContext, handler: ast.ExceptHandler) -> list[str]:
    """Last-component names of the exception classes a handler catches.

    A bare ``except:`` yields ``["<bare>"]``.
    """
    if handler.type is None:
        return ["<bare>"]
    nodes: Sequence[ast.AST]
    if isinstance(handler.type, ast.Tuple):
        nodes = handler.type.elts
    else:
        nodes = [handler.type]
    names = []
    for node in nodes:
        qual = ctx.resolve(node)
        names.append(qual.split(".")[-1] if qual else "<unknown>")
    return names
