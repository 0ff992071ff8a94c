"""Whole-program analysis: symbol table + deterministic call graph.

The per-file rules (RL001-RL008) are lexical by design — one module's AST at
a time.  The ROADMAP invariants they guard, though, are increasingly
properties of *call chains*: an engine function that stays pure itself but
calls a helper that logs, a heuristic loop that hides ``evaluate_split``
behind a wrapper.  This module gives the project-rule family (RL101+) the
machinery to see those chains:

``summarize_module``
    One deterministic pass over a parsed :class:`ModuleContext` producing a
    :class:`ModuleSummary` — every function with its call sites (loop
    positions noted) and impurity facts, every class with its fields and
    attribute constructors, every attribute read.

``ProjectContext``
    All summaries indexed: function and class tables, a method-name index,
    and a call graph.  Call edges are resolved through import aliases (the
    same machinery ``base.py`` uses), ``self``/``cls`` receivers, and a
    class-attribution heuristic for attribute calls (an attribute call whose
    method name is defined by exactly one project class resolves to it).
    Everything that cannot be resolved is kept as an explicit ``external`` /
    ``ambiguous`` edge so each rule can choose its own strictness.  All
    iteration orders are sorted — two runs over the same tree build the
    same graph, byte for byte.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .base import ModuleContext, impurity_reason

__all__ = [
    "CallSite",
    "FunctionRecord",
    "ClassRecord",
    "ModuleSummary",
    "summarize_module",
    "Edge",
    "ProjectContext",
]

#: Method names far too generic for the unique-definer attribute heuristic —
#: resolving ``records.append`` to some project class's ``append`` would
#: invent call paths that do not exist.
_COMMON_METHOD_NAMES = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "index",
        "count", "sort", "reverse", "copy", "add", "discard", "update",
        "get", "keys", "values", "items", "setdefault", "popitem",
        "join", "split", "strip", "format", "encode", "decode", "replace",
        "startswith", "endswith", "lower", "upper",
        "read", "write", "open", "close", "flush", "send", "recv",
        "put", "run", "next", "result", "submit", "cancel", "done",
    }
)

# --------------------------------------------------------------------------- #
# summaries
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class CallSite:
    """One call expression inside one function body."""

    qual: "str | None"   #: alias-expanded dotted callee, None for dynamic funcs
    attr: str            #: last path component (method or function name)
    self_recv: bool      #: receiver is literally ``self`` or ``cls``
    recv: "str | None"   #: dotted receiver text (``self._store`` for .append)
    line: int
    col: int
    loop: bool           #: lexically inside a loop/comprehension of this function


@dataclass(frozen=True, slots=True)
class FunctionRecord:
    """One function/method: its call sites plus the facts the rules need."""

    qual: str            #: module-local dotted path (``Cls.method``, ``outer.inner``)
    name: str
    cls: "str | None"    #: module-local class path, None for module functions
    line: int
    col: int
    calls: tuple[CallSite, ...]
    impure: "tuple[str, int] | None"      #: (reason, line) of first impure call
    eval_split_line: "int | None"         #: first direct ``.evaluate_split`` call


@dataclass(frozen=True, slots=True)
class ClassRecord:
    """One class: bases, annotated fields, methods, picklability hazards."""

    qual: str            #: module-local dotted path (``Outer.Inner``)
    name: str
    line: int
    col: int
    bases: tuple[str, ...]
    methods: tuple[str, ...]
    is_dataclass: bool
    fields: tuple[tuple[str, str, int], ...]   #: (name, annotation text, line)
    lambda_lines: tuple[int, ...]              #: lambda-valued class attributes
    attr_ctors: tuple[tuple[str, str, int], ...]
    #: (attribute, constructor qual, line) for every ``self.x = SomeCall()``


@dataclass(frozen=True, slots=True)
class ModuleSummary:
    """Everything the project rules need to know about one module."""

    path: str
    parts: tuple[str, ...]       #: normalised module_parts (for path scoping)
    module: str                  #: dotted module name derived from parts
    functions: tuple[FunctionRecord, ...]
    classes: tuple[ClassRecord, ...]
    attr_reads: tuple[tuple[str, tuple[str, ...]], ...]
    #: per scope (dotted local qual of the enclosing def/class chain, "" at
    #: module level): sorted attribute names read anywhere in that scope


def _module_name(parts: Sequence[str]) -> str:
    names = list(parts)
    if names and names[-1].endswith(".py"):
        names[-1] = names[-1][: -len(".py")]
    if names and names[-1] == "__init__":
        names.pop()
    return ".".join(names) if names else "<root>"


def _own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Pre-order walk of ``root``'s body, stopping at nested def/class."""
    stack = list(reversed(list(ast.iter_child_nodes(root))))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _receiver_text(ctx: ModuleContext, func: ast.AST) -> "str | None":
    if isinstance(func, ast.Attribute):
        return ctx.resolve(func.value)
    return None


def summarize_module(ctx: ModuleContext) -> ModuleSummary:
    """Build the whole-program summary of one parsed module."""
    functions: list[FunctionRecord] = []
    classes: list[ClassRecord] = []

    def handle_function(
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        class_path: "str | None",
        fn_prefix: tuple[str, ...],
    ) -> None:
        scope = tuple(p for p in ((class_path,) if class_path else ()) + fn_prefix)
        local_qual = ".".join(scope + (node.name,))
        call_nodes = [sub for sub in _own_nodes(node) if isinstance(sub, ast.Call)]

        sites: list[CallSite] = []
        impure: "tuple[str, int] | None" = None
        eval_split_line: "int | None" = None
        for call in call_nodes:
            qual = ctx.resolve(call.func)
            attr = (
                call.func.attr
                if isinstance(call.func, ast.Attribute)
                else (call.func.id if isinstance(call.func, ast.Name) else "<dynamic>")
            )
            recv = _receiver_text(ctx, call.func)
            self_recv = isinstance(call.func, ast.Attribute) and (
                isinstance(call.func.value, ast.Name)
                and call.func.value.id in ("self", "cls")
            )
            sites.append(
                CallSite(
                    qual=qual,
                    attr=attr,
                    self_recv=self_recv,
                    recv=recv,
                    line=call.lineno,
                    col=call.col_offset + 1,
                    loop=ctx.in_loop(call),
                )
            )
            if impure is None:
                reason = impurity_reason(ctx, call)
                if reason is not None:
                    impure = (reason, call.lineno)
            if eval_split_line is None and attr == "evaluate_split":
                eval_split_line = call.lineno

        functions.append(
            FunctionRecord(
                qual=local_qual,
                name=node.name,
                cls=class_path,
                line=node.lineno,
                col=node.col_offset + 1,
                calls=tuple(sites),
                impure=impure,
                eval_split_line=eval_split_line,
            )
        )
        for sub in _own_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                handle_function(sub, class_path, fn_prefix + (node.name,))
            elif isinstance(sub, ast.ClassDef):
                handle_class(sub, class_path or "")

    def handle_class(node: ast.ClassDef, parent_path: str) -> None:
        local_qual = f"{parent_path}.{node.name}" if parent_path else node.name
        is_dataclass = False
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            qual = ctx.resolve(target)
            if qual is not None and qual.split(".")[-1] == "dataclass":
                is_dataclass = True
        fields: list[tuple[str, str, int]] = []
        methods: list[str] = []
        lambda_lines: list[int] = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                annotation = ast.dump(stmt.annotation)
                if "ClassVar" in annotation:
                    continue
                try:
                    text = ast.unparse(stmt.annotation)
                except (ValueError, RecursionError):  # pragma: no cover
                    text = ""
                fields.append((stmt.target.id, text, stmt.lineno))
            elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Lambda):
                lambda_lines.append(stmt.lineno)
        attr_ctors: list[tuple[str, str, int]] = []
        for sub in ast.walk(node):
            if not (isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call)):
                continue
            ctor = ctx.resolve(sub.value.func)
            if ctor is None:
                continue
            for target in sub.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attr_ctors.append((target.attr, ctor, sub.lineno))
        classes.append(
            ClassRecord(
                qual=local_qual,
                name=node.name,
                line=node.lineno,
                col=node.col_offset + 1,
                bases=tuple(
                    qual for qual in (ctx.resolve(b) for b in node.bases) if qual
                ),
                methods=tuple(methods),
                is_dataclass=is_dataclass,
                fields=tuple(fields),
                lambda_lines=tuple(lambda_lines),
                attr_ctors=tuple(sorted(set(attr_ctors))),
            )
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                handle_function(stmt, local_qual, ())
            elif isinstance(stmt, ast.ClassDef):
                handle_class(stmt, local_qual)

    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            handle_function(stmt, None, ())
        elif isinstance(stmt, ast.ClassDef):
            handle_class(stmt, "")

    reads: dict[str, set[str]] = {}
    for node in ast.walk(ctx.tree):
        attr_name: "str | None" = None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attr_name = node.attr
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            attr_name = node.args[1].value
        if attr_name is None:
            continue
        scope_parts = [
            ancestor.name
            for ancestor in ctx.ancestors(node)
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        scope = ".".join(reversed(scope_parts))
        reads.setdefault(scope, set()).add(attr_name)

    return ModuleSummary(
        path=ctx.path,
        parts=ctx.module_parts,
        module=_module_name(ctx.module_parts),
        functions=tuple(functions),
        classes=tuple(classes),
        attr_reads=tuple(
            (scope, tuple(sorted(names))) for scope, names in sorted(reads.items())
        ),
    )


# --------------------------------------------------------------------------- #
# the project context and its call graph
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class Edge:
    """One call-graph edge leaving a function at one call site.

    ``kind`` encodes the resolver's confidence: ``call`` (alias/suffix
    resolved), ``self`` (receiver was self/cls), ``ctor`` (class constructor
    → ``__init__``), ``attr`` (unique-definer attribute heuristic),
    ``ambiguous`` (several project classes define the method — candidates
    recorded, edge not followed by default), ``external`` (not a project
    symbol).  Rules pick which kinds they trust.
    """

    site: CallSite
    target: "str | None"          #: global function qual, None when unresolved
    kind: str
    candidates: tuple[str, ...] = ()


#: Edge kinds the graph walkers trust by default — everything the resolver
#: actually proved.  ``ambiguous``/``external`` edges are never followed.
FOLLOWED_KINDS: tuple[str, ...] = ("call", "self", "ctor", "attr")


class ProjectContext:
    """Every module summarized, indexed, and wired into a call graph."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.summaries: tuple[ModuleSummary, ...] = tuple(
            sorted(summaries, key=lambda s: s.path)
        )
        #: global function qual -> record; insertion order is sorted
        self.functions: dict[str, FunctionRecord] = {}
        #: global function qual -> owning module summary
        self.module_of: dict[str, ModuleSummary] = {}
        #: global class qual -> record
        self.classes: dict[str, ClassRecord] = {}
        self.class_module: dict[str, ModuleSummary] = {}
        self._method_index: dict[str, list[str]] = {}
        self._fn_suffix: dict[str, set[str]] = {}
        self._cls_suffix: dict[str, set[str]] = {}

        for summary in self.summaries:
            for fn in summary.functions:
                qual = f"{summary.module}.{fn.qual}"
                if qual in self.functions:
                    continue  # first (sorted) path wins on module-name collision
                self.functions[qual] = fn
                self.module_of[qual] = summary
            for cls in summary.classes:
                qual = f"{summary.module}.{cls.qual}"
                if qual in self.classes:
                    continue
                self.classes[qual] = cls
                self.class_module[qual] = summary

        for qual in self.functions:
            for key in self._suffixes(qual):
                self._fn_suffix.setdefault(key, set()).add(qual)
        for qual, cls in self.classes.items():
            for key in self._suffixes(qual):
                self._cls_suffix.setdefault(key, set()).add(qual)
            for method in cls.methods:
                self._method_index.setdefault(method, []).append(f"{qual}.{method}")
        for quals in self._method_index.values():
            quals.sort()

        self.edges: dict[str, tuple[Edge, ...]] = {}
        for qual in sorted(self.functions):
            self.edges[qual] = tuple(self._resolve_edges(qual))

    # -- indexes ---------------------------------------------------------- #

    @staticmethod
    def _suffixes(qual: str) -> Iterator[str]:
        parts = qual.split(".")
        for start in range(len(parts)):
            key = ".".join(parts[start:])
            if key:
                yield key

    def _lookup_unique(self, table: Mapping[str, set[str]], qual: str) -> "str | None":
        hits = table.get(qual)
        if hits is None:
            # the call qual may carry extra leading segments the tree lacks
            parts = qual.split(".")
            for start in range(1, len(parts) - 1):
                hits = table.get(".".join(parts[start:]))
                if hits:
                    break
        if hits and len(hits) == 1:
            return next(iter(hits))
        return None

    def _class_method(self, class_qual: str, method: str, seen: "set[str] | None" = None) -> "str | None":
        """Resolve ``method`` on a class or (project-resolvable) base class."""
        seen = seen or set()
        if class_qual in seen:
            return None
        seen.add(class_qual)
        cls = self.classes.get(class_qual)
        if cls is None:
            return None
        if method in cls.methods:
            return f"{class_qual}.{method}"
        for base in cls.bases:
            base_qual = self._lookup_unique(self._cls_suffix, base)
            if base_qual is not None:
                found = self._class_method(base_qual, method, seen)
                if found is not None:
                    return found
        return None

    # -- edge resolution -------------------------------------------------- #

    def _resolve_edges(self, fn_qual: str) -> Iterator[Edge]:
        fn = self.functions[fn_qual]
        summary = self.module_of[fn_qual]
        for site in fn.calls:
            yield self._resolve_site(summary, fn, site)

    def _resolve_site(
        self, summary: ModuleSummary, fn: FunctionRecord, site: CallSite
    ) -> Edge:
        # 1. self/cls receiver: resolve on the enclosing class + project bases
        if site.self_recv and fn.cls is not None:
            target = self._class_method(f"{summary.module}.{fn.cls}", site.attr)
            if target is not None:
                return Edge(site=site, target=target, kind="self")
            return Edge(site=site, target=None, kind="external")
        qual = site.qual
        if qual is not None:
            # 2. bare name: local scope chain, then module level
            if "." not in qual:
                scope = fn.qual.split(".")[:-1]
                for depth in range(len(scope), -1, -1):
                    candidate = ".".join(
                        [summary.module] + scope[:depth] + [qual]
                    )
                    if candidate in self.functions:
                        return Edge(site=site, target=candidate, kind="call")
                class_qual = self._lookup_unique(self._cls_suffix, f"{summary.module}.{qual}")
                if class_qual is not None:
                    return self._constructor_edge(site, class_qual)
            else:
                # 3. dotted name: suffix-match functions, then classes
                target = self._lookup_unique(self._fn_suffix, qual)
                if target is not None:
                    return Edge(site=site, target=target, kind="call")
                class_qual = self._lookup_unique(self._cls_suffix, qual)
                if class_qual is not None:
                    return self._constructor_edge(site, class_qual)
        # 4. attribute call on an unknown receiver: unique-definer heuristic
        if site.recv is not None and site.attr not in _COMMON_METHOD_NAMES:
            definers = self._method_index.get(site.attr, [])
            if len(definers) == 1:
                return Edge(site=site, target=definers[0], kind="attr")
            if len(definers) > 1:
                return Edge(
                    site=site, target=None, kind="ambiguous", candidates=tuple(definers)
                )
        return Edge(site=site, target=None, kind="external")

    def _constructor_edge(self, site: CallSite, class_qual: str) -> Edge:
        init = self._class_method(class_qual, "__init__")
        if init is not None:
            return Edge(site=site, target=init, kind="ctor")
        return Edge(site=site, target=None, kind="external")

    # -- queries ---------------------------------------------------------- #

    def functions_in(self, *part_suffix: str) -> Iterator[str]:
        """Global quals of functions whose module path ends in ``part_suffix``."""
        for qual in self.functions:
            parts = self.module_of[qual].parts
            if parts[-len(part_suffix):] == tuple(part_suffix):
                yield qual

    def module_parts_of(self, fn_qual: str) -> tuple[str, ...]:
        return self.module_of[fn_qual].parts

    def resolve_class(self, name: str) -> "str | None":
        """Unique project class whose qual ends in ``name``, if any."""
        return self._lookup_unique(self._cls_suffix, name)

    def display(self, fn_qual: str) -> str:
        """Human-oriented short name: ``engine.StreamSimulator.run``."""
        summary = self.module_of.get(fn_qual)
        if summary is None:
            return fn_qual
        local = fn_qual[len(summary.module) + 1 :] if fn_qual.startswith(summary.module + ".") else fn_qual
        tail = summary.module.rsplit(".", 1)[-1]
        return f"{tail}.{local}"

    def render_chain(self, quals: Sequence[str], sink: "str | None" = None) -> str:
        hops = [self.display(q) for q in quals]
        if sink:
            hops.append(sink)
        return " → ".join(hops)


def propagate(
    project: ProjectContext,
    sources: Mapping[str, str],
    *,
    follow: Sequence[str] = FOLLOWED_KINDS,
    enter: "Any | None" = None,
) -> dict[str, tuple[str, "str | None"]]:
    """Backward reachability over the call graph, with chain pointers.

    ``sources`` maps function quals to a reason string ("this function *is*
    the thing").  The result maps every function that can reach a source —
    including the sources themselves — to ``(reason, next_hop)`` where
    ``next_hop`` is the callee qual on a shortest-known path (None at the
    source).  ``enter(qual)`` (when given) must be true for a function to
    relay reachability — sources are exempt.  Deterministic: functions and
    edges are visited in sorted/document order until fixpoint.
    """
    marked: dict[str, tuple[str, "str | None"]] = {
        qual: (reason, None) for qual, reason in sorted(sources.items())
    }
    changed = True
    while changed:
        changed = False
        for qual in sorted(project.functions):
            if qual in marked:
                continue
            if enter is not None and not enter(qual):
                continue
            for edge in project.edges[qual]:
                if edge.kind not in follow or edge.target is None:
                    continue
                hit = marked.get(edge.target)
                if hit is not None:
                    marked[qual] = (hit[0], edge.target)
                    changed = True
                    break
    return marked


def chain_from(
    marked: Mapping[str, tuple[str, "str | None"]], start: str
) -> list[str]:
    """The function chain from ``start`` to its source, following next-hops."""
    chain = [start]
    seen = {start}
    current: "str | None" = start
    while current is not None:
        current = marked[current][1]
        if current is None or current in seen:
            break
        chain.append(current)
        seen.add(current)
    return chain

