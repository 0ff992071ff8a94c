"""Determinism rules: RL001 (no nondeterminism sources), RL006, RL007.

These enforce the ROADMAP's "determinism is byte-level" invariant: serial,
parallel and interrupt+resume runs must produce byte-identical records.  The
three classic leaks are interpreter-dependent hashes (``hash()`` under
``PYTHONHASHSEED``), wall-clock reads, and unseeded global RNG state — each
fine on the machine that wrote it, broken on the next.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .base import (
    Finding,
    ModuleContext,
    Rule,
    caught_exception_names,
    is_wall_clock_call,
    module_segment,
    qual_matches,
    walk_nodes,
)
from .registry import register

__all__ = ["DeterminismRule", "BroadExceptRule", "SeedDerivationRule"]

#: numpy.random attributes that are fine: seeded constructors, not the
#: legacy global-state draw functions.
_NUMPY_RANDOM_OK = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }
)


def _is_builtin_hash_call(ctx: ModuleContext, node: ast.Call) -> bool:
    return (
        isinstance(node.func, ast.Name)
        and node.func.id == "hash"
        and node.func.id not in ctx.aliases  # a local import may shadow it
    )


@register
class DeterminismRule(Rule):
    """RL001 — library code must be bit-reproducible.

    Forbidden everywhere except ``utils/timing.py`` (whose whole purpose is
    the wall clock): builtin ``hash()``, wall-clock reads, the stdlib
    ``random`` module, legacy ``numpy.random.*`` global-state draws, and
    unseeded ``default_rng()``.
    """

    id = "RL001"
    name = "determinism"
    summary = "no hash()/wall-clock/unseeded RNG in library code"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.parts_endswith("utils", "timing.py")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in walk_nodes(ctx, ast.Call):
            assert isinstance(node, ast.Call)
            if _is_builtin_hash_call(ctx, node):
                yield ctx.finding(
                    self.id,
                    node,
                    "builtin hash() depends on PYTHONHASHSEED; "
                    "use utils.rng.stable_text_digest",
                )
                continue
            qual = ctx.resolve(node.func)
            if is_wall_clock_call(ctx, node):
                yield ctx.finding(
                    self.id,
                    node,
                    f"wall-clock read {qual}() in library code; measure time only "
                    "through utils/timing.py helpers and keep it out of records",
                )
                continue
            if qual is not None and module_segment(qual, "numpy.random"):
                tail = qual.split("numpy.random.", 1)[-1].split(".")[0]
                if tail and tail not in _NUMPY_RANDOM_OK:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"legacy numpy.random.{tail} uses unseeded global state; "
                        "draw from a seeded Generator (utils.rng.as_generator)",
                    )
                    continue
            if (
                qual is not None
                and "random" in ctx.imported_modules
                and (qual == "random" or qual.startswith("random."))
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    "the stdlib random module is global, unseeded state; "
                    "use a seeded numpy Generator (utils.rng.as_generator)",
                )
                continue
            if qual_matches(qual, ("default_rng",)) and self._unseeded(node):
                yield ctx.finding(
                    self.id,
                    node,
                    "default_rng() without a seed is nondeterministic; derive the "
                    "seed via utils.rng (stable_text_digest / derive_seed)",
                )

    @staticmethod
    def _unseeded(node: ast.Call) -> bool:
        if node.keywords:
            return False
        if not node.args:
            return True
        first = node.args[0]
        return isinstance(first, ast.Constant) and first.value is None


@register
class BroadExceptRule(Rule):
    """RL006 — handlers that can catch an interrupt must not swallow it.

    Only a bare ``except:`` or ``except BaseException`` catches
    ``KeyboardInterrupt``/``SystemExit``: both derive from ``BaseException``,
    not ``Exception``.  Such a handler that neither re-raises nor sits behind
    an ``except (KeyboardInterrupt, SystemExit): raise`` handler turns Ctrl-C
    into silent data ("the member just failed") — deadly in long sweeps.
    """

    id = "RL006"
    name = "broad-except"
    summary = (
        "bare except/except BaseException must re-raise or be preceded by a "
        "KI/SE re-raise handler"
    )

    _BROAD = {"<bare>", "BaseException"}
    _INTERRUPTS = {"KeyboardInterrupt", "SystemExit"}

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for try_node in walk_nodes(ctx, ast.Try):
            assert isinstance(try_node, ast.Try)
            interrupts_reraise = False
            for handler in try_node.handlers:
                caught = set(caught_exception_names(ctx, handler))
                reraises = self._has_bare_raise(handler)
                if caught & self._INTERRUPTS and reraises:
                    interrupts_reraise = True
                if not caught & self._BROAD:
                    continue
                if reraises or interrupts_reraise:
                    continue
                label = "bare except" if "<bare>" in caught else (
                    f"except {'/'.join(sorted(caught & self._BROAD))}"
                )
                yield ctx.finding(
                    self.id,
                    handler,
                    f"{label} can swallow KeyboardInterrupt/SystemExit; re-raise, "
                    "or put an `except (KeyboardInterrupt, SystemExit): raise` "
                    "handler before it",
                )

    @staticmethod
    def _has_bare_raise(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(node, ast.Raise) and node.exc is None
            for stmt in handler.body
            for node in ast.walk(stmt)
        )


@register
class SeedDerivationRule(Rule):
    """RL007 — seeds derive only via the blessed utils.rng helpers.

    Any expression that feeds a name or keyword containing ``seed`` must not
    build the value from ``hash()``, ``hashlib`` or a CRC: those derivations
    are exactly what :func:`repro.utils.rng.stable_text_digest` centralises
    (fixed-width, PYTHONHASHSEED-free, identical across processes).
    """

    id = "RL007"
    name = "seed-derivation"
    summary = "seeds come from stable_text_digest/derive_seed, never ad-hoc hashes"

    def applies_to(self, ctx: ModuleContext) -> bool:
        # the blessed implementation itself lives here
        return not ctx.parts_endswith("utils", "rng.py")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if node.value is None or not any(self._seed_named(t) for t in targets):
                    continue
                offender = self._hash_construct(ctx, node.value)
                if offender is not None:
                    yield self._finding(ctx, offender)
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg and "seed" in keyword.arg.lower():
                        offender = self._hash_construct(ctx, keyword.value)
                        if offender is not None:
                            yield self._finding(ctx, offender)

    def _finding(self, ctx: ModuleContext, node: ast.AST) -> Finding:
        return ctx.finding(
            self.id,
            node,
            "ad-hoc hash in a seed derivation; all name->seed folding goes "
            "through utils.rng.stable_text_digest (or derive_seed)",
        )

    @staticmethod
    def _seed_named(target: ast.AST) -> bool:
        if isinstance(target, ast.Name):
            return "seed" in target.id.lower()
        if isinstance(target, ast.Attribute):
            return "seed" in target.attr.lower()
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(SeedDerivationRule._seed_named(elt) for elt in target.elts)
        return False

    @staticmethod
    def _hash_construct(ctx: ModuleContext, expr: ast.AST) -> "ast.AST | None":
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                if _is_builtin_hash_call(ctx, sub):
                    return sub
                qual = ctx.resolve(sub.func)
                if qual is not None and (
                    qual.startswith("hashlib.")
                    or module_segment(qual, "hashlib")
                    or qual_matches(qual, ("crc32", "adler32"))
                ):
                    return sub
        return None
