"""Architecture rules: RL002 evaluator, RL003 work units, RL004 checkpoint
hygiene, RL008 engine purity.

These encode the ROADMAP's structural invariants: hot paths score through
``problem.evaluator``, fan-out executes through picklable work units and
checkpoint stores, and the simulation engine's dispatch loop stays pure.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .base import (
    Finding,
    ModuleContext,
    Rule,
    impurity_reason,
    walk_nodes,
)
from .registry import register

__all__ = [
    "EvaluatorLoopRule",
    "WorkUnitContractRule",
    "CheckpointHygieneRule",
    "EnginePurityRule",
]


def _in_tests(ctx: ModuleContext) -> bool:
    return "tests" in ctx.module_parts


@register
class EvaluatorLoopRule(Rule):
    """RL002 — score through ``problem.evaluator``, never a slow-path loop.

    ``MinCostProblem.evaluate_split`` is the validated reference: correct,
    readable, and ~12-30x slower than the evaluator's incremental/batched
    tiers.  A per-candidate ``evaluate_split`` loop outside ``core/`` is a
    hot-path regression by construction (the exact mistake PR 1 removed from
    every heuristic).  The check is lexical: the call must sit inside a
    loop or comprehension body within the same function.
    """

    id = "RL002"
    name = "evaluator"
    summary = "no evaluate_split calls inside loop bodies outside core/ and tests"

    def applies_to(self, ctx: ModuleContext) -> bool:
        parts = ctx.module_parts
        return not (parts[:1] == ("core",) or _in_tests(ctx))

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in walk_nodes(ctx, ast.Call):
            assert isinstance(node, ast.Call)
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "evaluate_split"):
                continue
            if ctx.in_loop(node):
                yield ctx.finding(
                    self.id,
                    node,
                    "evaluate_split called in a loop: score candidates through "
                    "problem.evaluator (evaluate_batch / score_exchange tiers); "
                    "evaluate_split is the slow-path reference",
                )


@register
class WorkUnitContractRule(Rule):
    """RL003 — classes executed by a backend honour the work-unit contract.

    Anything named ``*Unit``/``*Chunk`` crosses a process boundary: it must
    be slotted (``__slots__`` or ``@dataclass(slots=True)`` — cheap to
    pickle by the thousand, and a typo'd attribute fails loudly), define
    ``as_dict``/``from_dict`` (its checkpoint-line form), and carry no
    unpicklable members (lambdas / nested functions assigned to attributes).
    """

    id = "RL003"
    name = "work-unit"
    summary = "*Unit/*Chunk classes are slotted, dict-serializable and picklable"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not _in_tests(ctx)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in walk_nodes(ctx, ast.ClassDef):
            assert isinstance(node, ast.ClassDef)
            if not node.name.endswith(("Unit", "Chunk")):
                continue
            yield from self._check_class(ctx, node)

    def _check_class(self, ctx: ModuleContext, node: ast.ClassDef) -> Iterator[Finding]:
        if not self._is_slotted(node):
            yield ctx.finding(
                self.id,
                node,
                f"work unit {node.name} is not slotted; add __slots__ or "
                "@dataclass(slots=True) so instances pickle lean and attribute "
                "typos fail loudly",
            )
        methods = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for required in ("as_dict", "from_dict"):
            if required not in methods:
                yield ctx.finding(
                    self.id,
                    node,
                    f"work unit {node.name} lacks {required}(); backend-executed "
                    "units checkpoint as one JSONL line and must round-trip "
                    "through as_dict/from_dict",
                )
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Lambda):
                yield ctx.finding(
                    self.id,
                    sub,
                    f"work unit {node.name} assigns a lambda member; lambdas do "
                    "not pickle and break process-pool execution",
                )

    @staticmethod
    def _is_slotted(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
            ):
                return True
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "slots"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        return True
        return False


@register
class CheckpointHygieneRule(Rule):
    """RL004 — append-mode JSON writes in ``experiments/``/``service/`` go through stores.

    The checkpoint guarantees (fsynced lines, fingerprint headers,
    torn-tail repair, resume-by-skipping) live in
    :class:`~repro.experiments.store.JsonlCheckpointStore`; the service's
    job journal (``JobJournalStore``) owns the same guarantees for its
    recovery log.  An ad-hoc ``open(path, "a")`` or direct ``append_jsonl``
    elsewhere in ``experiments/`` or ``service/`` produces files that *look*
    like checkpoints but carry none of those guarantees.
    """

    id = "RL004"
    name = "checkpoint-hygiene"
    summary = (
        "append-mode JSONL writes in experiments//service/ only inside "
        "CheckpointStore/JournalStore classes"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        in_scope = "experiments" in ctx.module_parts or "service" in ctx.module_parts
        return in_scope and not _in_tests(ctx)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in walk_nodes(ctx, ast.Call):
            assert isinstance(node, ast.Call)
            reason = self._append_write(ctx, node)
            if reason is None:
                continue
            if self._inside_checkpoint_store(ctx, node):
                continue
            yield ctx.finding(
                self.id,
                node,
                f"{reason} outside a JsonlCheckpointStore subclass; checkpoint "
                "durability (fsync, fingerprint header, torn-tail repair, "
                "resume) lives in the store classes",
            )

    @staticmethod
    def _append_write(ctx: ModuleContext, node: ast.Call) -> "str | None":
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "append_jsonl":
            return "append_jsonl call"
        qual = ctx.resolve(func)
        if qual is not None and qual.split(".")[-1] == "append_jsonl":
            return "append_jsonl call"
        mode: "ast.expr | None" = None
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else None
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            mode = node.args[0] if node.args else None
        else:
            return None
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and "a" in mode.value
        ):
            return f"append-mode open({mode.value!r})"
        return None

    # the sanctioned writer classes: the checkpoint-store hierarchy, plus the
    # service's append-only job journal (its recovery log follows the same
    # fsync/header/torn-tail discipline)
    _WRITER_MARKERS = ("CheckpointStore", "JournalStore")

    @classmethod
    def _inside_checkpoint_store(cls, ctx: ModuleContext, node: ast.AST) -> bool:
        enclosing = ctx.enclosing_class(node)
        if enclosing is None:
            return False
        if any(marker in enclosing.name for marker in cls._WRITER_MARKERS):
            return True
        for base in enclosing.bases:
            qual = ctx.resolve(base)
            if qual is not None and any(
                marker in qual.split(".")[-1] for marker in cls._WRITER_MARKERS
            ):
                return True
        return False


@register
class EnginePurityRule(Rule):
    """RL008 — the simulation engine's dispatch stays pure.

    ``simulation/engine.py`` is the measured hot path (PR 6 bought an 11x
    speedup there); any I/O, logging or wall-clock read inside its functions
    is both a per-event performance tax and a determinism hazard.  The
    engine computes; callers report.
    """

    id = "RL008"
    name = "engine-purity"
    summary = "no I/O, logging or wall-clock inside simulation/engine.py functions"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.parts_endswith("simulation", "engine.py")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in walk_nodes(ctx, ast.Call):
            assert isinstance(node, ast.Call)
            if ctx.enclosing_function(node) is None:
                continue  # module-level setup is not the dispatch path
            impurity = impurity_reason(ctx, node)
            if impurity is not None:
                yield ctx.finding(
                    self.id,
                    node,
                    f"{impurity} inside the engine; the hot path computes, "
                    "callers do the I/O and the timing",
                )
