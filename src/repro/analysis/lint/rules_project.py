"""Project rules RL101, RL102, RL104, RL105: invariants that are properties of call chains.

Each rule runs over the :class:`~repro.analysis.lint.project.ProjectContext`
call graph and reports the full offending chain
(``engine.run → _drain → logger.info``) so a finding is actionable without
re-deriving the path by hand.  Unresolved/ambiguous edges are never followed
— a rule here only claims what the resolver actually proved — so strictness
errs toward false negatives, the right direction for whole-program
heuristics.
"""

from __future__ import annotations

import re
from typing import Iterable

from .base import Finding, ProjectRule
from .project import FOLLOWED_KINDS, ProjectContext, chain_from, propagate
from .registry import register

__all__ = [
    "TransitiveEnginePurityRule",
    "TransitiveEvaluatorRule",
    "TransitivePickleSafetyRule",
    "DeadSpecFieldRule",
]

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


def _in_tests(parts: tuple[str, ...]) -> bool:
    return "tests" in parts


def _finding(path: str, line: int, col: int, rule_id: str, message: str) -> Finding:
    return Finding(rule_id=rule_id, path=path, line=line, col=col, message=message)


@register
class TransitiveEnginePurityRule(ProjectRule):
    """RL101 — no call path from the engine hot path to I/O or wall-clock.

    RL008 catches ``time.time()`` *inside* ``simulation/engine.py``; this
    rule closes the one-hop gap: an engine function may not reach — through
    any chain of resolved project calls — a function anywhere in the tree
    that performs I/O, logging or a wall-clock read.  The engine computes;
    callers report.
    """

    id = "RL101"
    name = "transitive-engine-purity"
    summary = "no call path from simulation/engine.py functions to I/O/logging/wall-clock"

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        engine_fns = sorted(project.functions_in("simulation", "engine.py"))
        if not engine_fns:
            return
        sources = {
            qual: fn.impure[0]
            for qual, fn in project.functions.items()
            if fn.impure is not None
        }
        marked = propagate(project, sources)
        engine_set = set(engine_fns)
        for qual in engine_fns:
            fn = project.functions[qual]
            if fn.impure is not None:
                continue  # its own impurity is RL008's finding, not a chain
            for edge in project.edges[qual]:
                if edge.kind not in FOLLOWED_KINDS or edge.target is None:
                    continue
                if edge.target not in marked:
                    continue
                chain = [qual] + chain_from(marked, edge.target)
                terminal = chain[-1]
                if terminal in engine_set:
                    continue  # fully inside engine.py: RL008 already flags it
                reason, line = project.functions[terminal].impure or ("impurity", 0)
                yield _finding(
                    project.module_of[qual].path,
                    edge.site.line,
                    edge.site.col,
                    self.id,
                    f"engine hot path reaches {reason} (line {line} of "
                    f"{project.module_of[terminal].path}) via "
                    f"{project.render_chain(chain)}; the engine computes, "
                    "callers do the I/O and the timing",
                )


@register
class TransitiveEvaluatorRule(ProjectRule):
    """RL102 — hot loops must not reach ``evaluate_split`` through wrappers.

    RL002 catches a literal ``evaluate_split`` call inside a loop; this rule
    catches the same slow path hidden behind helper functions: a call inside
    a loop body (outside ``core/`` and tests) whose resolved callee chain —
    never entering ``core/``, whose internals are the blessed fast path —
    bottoms out in a direct ``evaluate_split`` call.
    """

    id = "RL102"
    name = "transitive-evaluator"
    summary = "no loop-borne call chain outside core/ reaching evaluate_split"

    @staticmethod
    def _blessed(parts: tuple[str, ...]) -> bool:
        return parts[:1] == ("core",) or _in_tests(parts)

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        sources = {
            qual: f"evaluate_split call at line {fn.eval_split_line}"
            for qual, fn in project.functions.items()
            if fn.eval_split_line is not None
            and not self._blessed(project.module_parts_of(qual))
        }
        if not sources:
            return
        marked = propagate(
            project,
            sources,
            enter=lambda qual: not self._blessed(project.module_parts_of(qual)),
        )
        for qual in sorted(project.functions):
            parts = project.module_parts_of(qual)
            if self._blessed(parts):
                continue
            for edge in project.edges[qual]:
                if not edge.site.loop:
                    continue
                if edge.site.attr == "evaluate_split":
                    continue  # the direct form is RL002's finding
                if edge.kind not in FOLLOWED_KINDS or edge.target is None:
                    continue
                if edge.target not in marked:
                    continue
                if self._blessed(project.module_parts_of(edge.target)):
                    continue
                chain = [qual] + chain_from(marked, edge.target)
                yield _finding(
                    project.module_of[qual].path,
                    edge.site.line,
                    edge.site.col,
                    self.id,
                    "loop body transitively reaches the evaluate_split slow "
                    f"path via {project.render_chain(chain, 'evaluate_split')}; "
                    "score candidates through problem.evaluator "
                    "(evaluate_batch / score_exchange tiers)",
                )


#: Type names (matched on the last dotted segment) that never pickle: locks
#: and synchronisation primitives, open files/streams, generators, threads,
#: sockets.  Project classes shadowing one of these names resolve to the
#: project class first and are not flagged.
_UNPICKLABLE_TYPES = frozenset(
    {
        "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Barrier",
        "IO", "IOBase", "RawIOBase", "BufferedIOBase", "TextIOBase",
        "TextIO", "BinaryIO", "TextIOWrapper", "BufferedReader",
        "BufferedWriter", "BufferedRandom", "FileIO", "StringIO", "BytesIO",
        "Generator", "generator", "Thread", "socket", "Socket",
    }
)

#: Constructor quals (last segment) whose result never pickles — for
#: ``self.x = threading.Lock()`` style aliases.
_UNPICKLABLE_CTORS = _UNPICKLABLE_TYPES | {"open"}


@register
class TransitivePickleSafetyRule(ProjectRule):
    """RL104 — work units stay picklable through every aliased field type.

    RL003 checks the ``*Unit``/``*Chunk`` class itself; this rule follows
    its annotated field types through project dataclasses: a field whose
    type (transitively) holds a lock, an open file/stream, a generator, a
    thread or a lambda-valued attribute will explode — at pickling time, on
    the far side of a process pool — far from the line that introduced it.
    Unknown type names are skipped: the rule only claims what it resolved.
    """

    id = "RL104"
    name = "transitive-pickle-safety"
    summary = "*Unit/*Chunk field types bottom out in picklable primitives/dataclasses"

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        for qual in sorted(project.classes):
            cls = project.classes[qual]
            summary = project.class_module[qual]
            if _in_tests(summary.parts):
                continue
            if not cls.name.endswith(("Unit", "Chunk")):
                continue
            for name, annotation, line in cls.fields:
                problem = self._type_problem(project, annotation, {qual})
                if problem is None:
                    continue
                chain, reason = problem
                yield _finding(
                    summary.path,
                    line,
                    1,
                    self.id,
                    f"field {cls.name}.{name} reaches unpicklable state via "
                    f"{' → '.join([f'{cls.name}.{name}'] + chain)} ({reason}); "
                    "work units cross process boundaries and every field must "
                    "pickle",
                )
            for attr, ctor, line in cls.attr_ctors:
                tail = ctor.split(".")[-1]
                if tail in _UNPICKLABLE_CTORS and project.resolve_class(ctor) is None:
                    yield _finding(
                        summary.path,
                        line,
                        1,
                        self.id,
                        f"attribute {cls.name}.{attr} is assigned {ctor}(), "
                        "which does not pickle; work units cross process "
                        "boundaries",
                    )

    def _type_problem(
        self, project: ProjectContext, annotation: str, visited: set[str]
    ) -> "tuple[list[str], str] | None":
        """First unpicklable type reachable from an annotation, with chain."""
        for token in _IDENTIFIER_RE.findall(annotation):
            tail = token.split(".")[-1]
            class_qual = project.resolve_class(token) or (
                project.resolve_class(tail) if "." not in token else None
            )
            if class_qual is not None:
                if class_qual in visited:
                    continue
                visited.add(class_qual)
                cls = project.classes[class_qual]
                if cls.lambda_lines:
                    return (
                        [cls.name],
                        f"{cls.name} has a lambda-valued attribute at line "
                        f"{cls.lambda_lines[0]}, and lambdas do not pickle",
                    )
                for attr, ctor, line in cls.attr_ctors:
                    ctor_tail = ctor.split(".")[-1]
                    if ctor_tail in _UNPICKLABLE_CTORS and project.resolve_class(ctor) is None:
                        return (
                            [cls.name, attr],
                            f"{cls.name}.{attr} is assigned {ctor}() at line {line}",
                        )
                for name, nested_annotation, _line in cls.fields:
                    nested = self._type_problem(project, nested_annotation, visited)
                    if nested is not None:
                        chain, reason = nested
                        return [f"{cls.name}.{name}"] + chain, reason
            elif tail in _UNPICKLABLE_TYPES:
                return [token], f"{token} does not pickle"
        return None


#: Methods that enumerate every field by convention — serialisation,
#: validation, construction.  A read there proves nothing about whether the
#: field steers any behaviour.
_SPEC_BOILERPLATE = frozenset(
    {"as_dict", "from_dict", "__init__", "__post_init__", "validate", "replace"}
)


@register
class DeadSpecFieldRule(ProjectRule):
    """RL105 — every declared spec field is consumed somewhere.

    A ``*Spec`` dataclass field that no code path ever reads — outside its
    own class's serialisation/validation boilerplate — is a silent dead
    axis: it round-trips through ``as_dict``/``from_dict``, shows up in
    fingerprints, promises an experimental knob — and changes nothing.
    Reads are attribute loads (or ``getattr`` with a string literal)
    anywhere in the tree; an accessor method on the spec itself counts.
    """

    id = "RL105"
    name = "dead-spec-field"
    summary = "*Spec dataclass fields must be read by some non-boilerplate code path"

    @staticmethod
    def _boilerplate_scope(
        module: str, scope: str, own_module: str, cls_qual: str
    ) -> bool:
        """True for reads inside the spec class's own field-enumerating
        methods (or its class body) — the reads every field gets for free."""
        if module != own_module:
            return False
        if scope == cls_qual:
            return True
        prefix = cls_qual + "."
        if not scope.startswith(prefix):
            return False
        return scope[len(prefix):].split(".")[0] in _SPEC_BOILERPLATE

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        consumed = self._reads_by_scope(project)
        for qual in sorted(project.classes):
            cls = project.classes[qual]
            summary = project.class_module[qual]
            if _in_tests(summary.parts):
                continue
            if not (cls.name.endswith("Spec") and cls.is_dataclass):
                continue
            if not {"as_dict", "from_dict"} <= set(cls.methods):
                continue
            for name, _annotation, line in cls.fields:
                if name.startswith("_"):
                    continue
                if any(
                    not self._boilerplate_scope(module, scope, summary.module, cls.qual)
                    for module, scope in consumed.get(name, set())
                ):
                    continue
                yield _finding(
                    summary.path,
                    line,
                    1,
                    self.id,
                    f"spec field {cls.name}.{name} is never read outside "
                    f"{cls.name}'s serialisation boilerplate; a field no code "
                    "path consumes is a silent dead axis — wire it into the "
                    "pipeline or remove it",
                )

    @staticmethod
    def _reads_by_scope(
        project: ProjectContext,
    ) -> dict[str, set[tuple[str, str]]]:
        """attr name -> set of (module, local scope qual) reading it."""
        reads: dict[str, set[tuple[str, str]]] = {}
        for summary in project.summaries:
            for scope, names in summary.attr_reads:
                for name in names:
                    reads.setdefault(name, set()).add((summary.module, scope))
        return reads
