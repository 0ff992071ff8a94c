"""The rule registry: stable ids → rule classes.

Rules self-register via the :func:`register` decorator at import time; the
runner imports the rule modules, so any module that reaches
:func:`make_rules` sees the full set.  Ids are permanent — checkpointed
pragmas and CI configs reference them — so re-registering an existing id is
a programming error, not a merge.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ...core.exceptions import ConfigurationError
from .base import Rule

__all__ = ["register", "rule_ids", "available_rules", "make_rules", "make_rule_sets"]

_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    existing = _REGISTRY.get(rule_cls.id)
    if existing is not None and existing is not rule_cls:
        raise ValueError(
            f"rule id {rule_cls.id} is already registered to {existing.__name__}"
        )
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def _ensure_loaded() -> None:
    # rule modules register on import; importing here (not at module top)
    # breaks the registry <-> rules import cycle
    from . import rules_architecture, rules_determinism, rules_project  # noqa: F401


def rule_ids() -> tuple[str, ...]:
    """Every registered rule id, sorted."""
    _ensure_loaded()
    return tuple(sorted(_REGISTRY))


def available_rules() -> tuple[type[Rule], ...]:
    """Every registered rule class, in id order."""
    _ensure_loaded()
    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


def make_rules(ids: "Sequence[str] | Iterable[str] | None" = None) -> list[Rule]:
    """Instantiate the requested rules.

    With ``ids=None`` this returns every *per-file* rule — the default set a
    single-module lint can run.  Project rules (``scope == "project"``) need
    the whole tree and are only included when explicitly named; use
    :func:`make_rule_sets` to get both families for a whole-program run.
    """
    _ensure_loaded()
    if ids is None:
        selected = [
            rule_id
            for rule_id in sorted(_REGISTRY)
            if _REGISTRY[rule_id].scope == "file"
        ]
    else:
        selected = list(dict.fromkeys(ids))  # dedupe, keep order
        unknown = sorted(set(selected) - set(_REGISTRY))
        if unknown:
            raise ConfigurationError(
                f"unknown lint rule(s) {', '.join(unknown)}; "
                f"available: {', '.join(sorted(_REGISTRY))}"
            )
    return [_REGISTRY[rule_id]() for rule_id in selected]


def make_rule_sets(
    ids: "Sequence[str] | Iterable[str] | None" = None, *, project: bool = False
) -> "tuple[list[Rule], list[Rule]]":
    """Split the selection into (per-file rules, project rules).

    In per-file mode (``project=False``) naming a project rule is a
    configuration error — it cannot run without the whole tree.  With
    ``ids=None``, per-file mode selects every file rule and project mode
    selects everything.
    """
    _ensure_loaded()
    if ids is None:
        selected = sorted(_REGISTRY)
    else:
        selected = list(dict.fromkeys(ids))
    rules = make_rules(selected)
    file_rules = [rule for rule in rules if rule.scope == "file"]
    project_rules = [rule for rule in rules if rule.scope == "project"]
    if not project:
        if ids is not None and project_rules:
            names = ", ".join(rule.id for rule in project_rules)
            raise ConfigurationError(
                f"rule(s) {names} need whole-program analysis; "
                "lint a directory tree"
            )
        return file_rules, []
    return file_rules, project_rules
