"""JSON serialisation of the model objects and experiment configuration files.

The paper's simulator is driven by "a configuration file that gives the
properties of the application graphs and the properties of the cloud"
(Section VIII-A).  This module provides that file format:

* :func:`save_problem` / :func:`load_problem` round-trip a complete MinCOST
  instance (application + platform + target throughput);
* :func:`application_to_dict` / :func:`platform_to_dict` (and their inverses)
  expose the individual pieces for users who keep their catalogues elsewhere;
* :func:`allocation_to_dict` / :func:`allocation_from_dict` serialise solver
  results so allocations can be handed to a deployment system — the paper's
  stated future work ("a pre-step before the deployment phase in existing
  Cloud deployment systems like Pegasus or CometCloud").

The schema is deliberately plain JSON (no custom tags) so files can be written
by hand or by other tools.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping

from .core.allocation import Allocation, ThroughputSplit
from .core.application import Application
from .core.exceptions import ConfigurationError
from .core.graph import RecipeGraph
from .core.platform import CloudPlatform
from .core.problem import MinCostProblem
from .core.task import Task

__all__ = [
    "MALFORMED_ROW_ERRORS",
    "append_jsonl",
    "malformed_row",
    "read_jsonl",
    "application_to_dict",
    "application_from_dict",
    "platform_to_dict",
    "platform_from_dict",
    "problem_to_dict",
    "problem_from_dict",
    "allocation_to_dict",
    "allocation_from_dict",
    "save_problem",
    "load_problem",
    "save_allocation",
    "load_allocation",
]

_SCHEMA_VERSION = 1


# --------------------------------------------------------------------------- #
# JSONL primitives (used by the checkpoint, memo and job-journal stores)
# --------------------------------------------------------------------------- #


def append_jsonl(path: str | Path, obj: Any) -> None:
    """Append one JSON object as a single line to ``path``, flushed to disk.

    The flush + fsync makes each line a durable checkpoint: a process killed
    mid-sweep loses at most the line being written, which
    :func:`read_jsonl` tolerates (see ``ignore_truncated``).
    """
    line = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    with Path(path).open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def read_jsonl(path: str | Path, *, ignore_truncated: bool = False) -> list[Any]:
    """Read all JSON objects of a JSONL file.

    With ``ignore_truncated`` a malformed *final* line (the telltale of a
    process killed mid-append) is silently dropped; malformed lines elsewhere
    still raise :class:`ConfigurationError`.
    """
    path = Path(path)
    rows: list[Any] = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not UTF-8 text: {exc}") from None
    for number, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if ignore_truncated and number == len(lines) - 1:
                break
            raise ConfigurationError(f"{path}:{number + 1} is not valid JSON: {exc}") from None
    return rows


#: What reading a JSONL row of the wrong shape raises: a missing key, a value
#: of the wrong type, a non-numeric string, a short list.
MALFORMED_ROW_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def malformed_row(path: Path, number: int, exc: Exception, kind: str) -> ConfigurationError:
    """The one-line error for a JSONL row this version cannot parse."""
    detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return ConfigurationError(
        f"{path} line {number} is not a {kind} row this version can "
        f"read ({detail}); refusing to load it"
    )


# --------------------------------------------------------------------------- #
# applications
# --------------------------------------------------------------------------- #


def _recipe_to_dict(recipe: RecipeGraph) -> dict[str, Any]:
    return {
        "name": recipe.name,
        "tasks": [
            {"id": task.task_id, "type": task.task_type, "name": task.name, "work": task.work}
            for task in recipe.tasks()
        ],
        "edges": [list(edge) for edge in recipe.edges()],
    }


def _recipe_from_dict(data: Mapping[str, Any]) -> RecipeGraph:
    try:
        recipe = RecipeGraph(name=str(data.get("name", "")))
        for entry in data["tasks"]:
            recipe.add_task(
                Task(
                    task_id=int(entry["id"]),
                    task_type=entry["type"],
                    name=str(entry.get("name", "")),
                    work=float(entry.get("work", 1.0)),
                )
            )
        for pred, succ in data.get("edges", []):
            recipe.add_edge(int(pred), int(succ))
    except KeyError as exc:
        raise ConfigurationError(f"recipe entry is missing the {exc} field") from None
    return recipe


def application_to_dict(application: Application) -> dict[str, Any]:
    """Serialise an application (all recipes, tasks and edges) to plain JSON data."""
    return {
        "name": application.name,
        "recipes": [_recipe_to_dict(recipe) for recipe in application],
    }


def application_from_dict(data: Mapping[str, Any]) -> Application:
    """Inverse of :func:`application_to_dict`; validates the result."""
    if "recipes" not in data:
        raise ConfigurationError("application data is missing the 'recipes' field")
    application = Application(
        (_recipe_from_dict(entry) for entry in data["recipes"]),
        name=str(data.get("name", "application")),
    )
    application.validate()
    return application


# --------------------------------------------------------------------------- #
# platforms
# --------------------------------------------------------------------------- #


def platform_to_dict(platform: CloudPlatform) -> dict[str, Any]:
    """Serialise a cloud catalogue to plain JSON data."""
    return {
        "name": platform.name,
        "processors": [
            {"type": proc.type_id, "cost": proc.cost, "throughput": proc.throughput, "name": proc.name}
            for proc in platform
        ],
    }


def platform_from_dict(data: Mapping[str, Any]) -> CloudPlatform:
    """Inverse of :func:`platform_to_dict`; validates the result."""
    if "processors" not in data:
        raise ConfigurationError("platform data is missing the 'processors' field")
    platform = CloudPlatform(name=str(data.get("name", "cloud")))
    for entry in data["processors"]:
        try:
            platform.add(
                entry["type"],
                cost=float(entry["cost"]),
                throughput=float(entry["throughput"]),
                name=str(entry.get("name", "")),
            )
        except KeyError as exc:
            raise ConfigurationError(f"processor entry is missing the {exc} field") from None
    platform.validate()
    return platform


# --------------------------------------------------------------------------- #
# problems
# --------------------------------------------------------------------------- #


def problem_to_dict(problem: MinCostProblem) -> dict[str, Any]:
    """Serialise a full MinCOST instance."""
    return {
        "schema_version": _SCHEMA_VERSION,
        "name": problem.name,
        "target_throughput": problem.target_throughput,
        "application": application_to_dict(problem.application),
        "platform": platform_to_dict(problem.platform),
    }


def problem_from_dict(data: Mapping[str, Any]) -> MinCostProblem:
    """Inverse of :func:`problem_to_dict`."""
    for field in ("application", "platform", "target_throughput"):
        if field not in data:
            raise ConfigurationError(f"problem data is missing the {field!r} field")
    return MinCostProblem(
        application=application_from_dict(data["application"]),
        platform=platform_from_dict(data["platform"]),
        target_throughput=float(data["target_throughput"]),
        name=str(data.get("name", "")),
    )


# --------------------------------------------------------------------------- #
# allocations
# --------------------------------------------------------------------------- #


def allocation_to_dict(allocation: Allocation) -> dict[str, Any]:
    """Serialise an allocation (split, machines, cost)."""
    return {
        "schema_version": _SCHEMA_VERSION,
        "split": list(allocation.split.values),
        "machines": [
            {"type": type_id, "count": int(count)} for type_id, count in allocation.machines.items()
        ],
        "cost": allocation.cost,
    }


def allocation_from_dict(data: Mapping[str, Any]) -> Allocation:
    """Inverse of :func:`allocation_to_dict`."""
    for field in ("split", "machines", "cost"):
        if field not in data:
            raise ConfigurationError(f"allocation data is missing the {field!r} field")
    machines = {entry["type"]: int(entry["count"]) for entry in data["machines"]}
    return Allocation(
        split=ThroughputSplit.from_sequence(data["split"]),
        machines=machines,
        cost=float(data["cost"]),
    )


# --------------------------------------------------------------------------- #
# file helpers
# --------------------------------------------------------------------------- #


def save_problem(problem: MinCostProblem, path: str | Path) -> Path:
    """Write a MinCOST instance to a JSON configuration file."""
    path = Path(path)
    path.write_text(json.dumps(problem_to_dict(problem), indent=2, sort_keys=True))
    return path


def load_problem(path: str | Path) -> MinCostProblem:
    """Read a MinCOST instance from a JSON configuration file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None
    return problem_from_dict(data)


def save_allocation(allocation: Allocation, path: str | Path) -> Path:
    """Write an allocation to a JSON file (deployment hand-off format)."""
    path = Path(path)
    path.write_text(json.dumps(allocation_to_dict(allocation), indent=2, sort_keys=True))
    return path


def load_allocation(path: str | Path) -> Allocation:
    """Read an allocation from a JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None
    return allocation_from_dict(data)
