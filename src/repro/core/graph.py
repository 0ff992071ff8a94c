"""Recipe graphs: typed task DAGs (the paper's workflow graphs ``phi^j``).

A :class:`RecipeGraph` stores a set of :class:`~repro.core.task.Task` objects
plus precedence edges.  The cost model of the paper ignores communication, so
edges do not influence the rental cost; they are nevertheless part of the model
because the stream simulator (:mod:`repro.simulation`) needs the precedence
structure to replay the execution of a data set, and because alternative
recipes are generated by rewriting an existing DAG.

The class is intentionally lightweight (plain dictionaries and lists) but can
export to :mod:`networkx` for analyses and plotting; networkx is imported only
by that export, so the package itself does not need it.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .exceptions import CycleError, GraphError, UnknownTaskError
from .task import Task, TaskType

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["RecipeGraph"]


class RecipeGraph:
    """A directed acyclic graph of typed tasks (one *recipe* for the result).

    Parameters
    ----------
    name:
        Label of the recipe (``"phi1"``, ``"gpu-variant"``, ...).
    tasks:
        Optional initial tasks.
    edges:
        Optional initial precedence edges, as ``(pred_id, succ_id)`` pairs.
    """

    def __init__(
        self,
        name: str = "",
        tasks: Iterable[Task] = (),
        edges: Iterable[tuple[int, int]] = (),
    ) -> None:
        self.name = name
        self._tasks: dict[int, Task] = {}
        self._succ: dict[int, set[int]] = {}
        self._pred: dict[int, set[int]] = {}
        for task in tasks:
            self.add_task(task)
        for pred, succ in edges:
            self.add_edge(pred, succ)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_task(self, task: Task) -> Task:
        """Add a task to the graph.  Task ids must be unique within the graph."""
        if not isinstance(task, Task):
            raise GraphError(f"expected a Task, got {type(task).__name__}")
        if task.task_id in self._tasks:
            raise GraphError(f"duplicate task id {task.task_id} in graph {self.name!r}")
        self._tasks[task.task_id] = task
        self._succ[task.task_id] = set()
        self._pred[task.task_id] = set()
        return task

    def new_task(self, task_type: TaskType, name: str = "", work: float = 1.0) -> Task:
        """Create and add a task with the next free id."""
        task_id = max(self._tasks, default=-1) + 1
        return self.add_task(Task(task_id=task_id, task_type=task_type, name=name, work=work))

    def add_edge(self, pred: int, succ: int) -> None:
        """Add a precedence edge ``pred -> succ``.

        Raises
        ------
        UnknownTaskError
            If either endpoint is not a task of this graph.
        GraphError
            For self loops.
        CycleError
            If the edge would create a cycle.
        """
        if pred not in self._tasks:
            raise UnknownTaskError(f"unknown predecessor task id {pred}")
        if succ not in self._tasks:
            raise UnknownTaskError(f"unknown successor task id {succ}")
        if pred == succ:
            raise GraphError(f"self loop on task {pred} is not allowed")
        if succ in self._succ[pred]:
            return
        if self._reachable(succ, pred):
            raise CycleError(f"edge {pred}->{succ} would create a cycle in graph {self.name!r}")
        self._succ[pred].add(succ)
        self._pred[succ].add(pred)

    def _reachable(self, source: int, target: int) -> bool:
        """True when ``target`` is reachable from ``source`` following edges."""
        if source == target:
            return True
        seen = {source}
        stack = [source]
        while stack:
            node = stack.pop()
            for nxt in self._succ[node]:
                if nxt == target:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._tasks

    @property
    def num_tasks(self) -> int:
        """Number of tasks ``I_j`` of the recipe."""
        return len(self._tasks)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def task(self, task_id: int) -> Task:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise UnknownTaskError(f"unknown task id {task_id} in graph {self.name!r}") from None

    def tasks(self) -> list[Task]:
        """All tasks, in insertion order."""
        return list(self._tasks.values())

    def task_ids(self) -> list[int]:
        return list(self._tasks)

    def edges(self) -> list[tuple[int, int]]:
        return [(p, s) for p, succs in self._succ.items() for s in sorted(succs)]

    def successors(self, task_id: int) -> set[int]:
        if task_id not in self._tasks:
            raise UnknownTaskError(f"unknown task id {task_id}")
        return set(self._succ[task_id])

    def predecessors(self, task_id: int) -> set[int]:
        if task_id not in self._tasks:
            raise UnknownTaskError(f"unknown task id {task_id}")
        return set(self._pred[task_id])

    def sources(self) -> list[int]:
        """Tasks with no predecessor (entry tasks of the recipe)."""
        return [tid for tid in self._tasks if not self._pred[tid]]

    def sinks(self) -> list[int]:
        """Tasks with no successor (output tasks of the recipe)."""
        return [tid for tid in self._tasks if not self._succ[tid]]

    # ------------------------------------------------------------------ #
    # type accounting (the quantities the cost model needs)
    # ------------------------------------------------------------------ #
    def types_used(self) -> set[TaskType]:
        """Set of task types appearing in the recipe."""
        return {task.task_type for task in self._tasks.values()}

    def type_counts(self) -> dict[TaskType, int]:
        """``n^j_q``: number of tasks of each type in the recipe (paper, Table I)."""
        return dict(Counter(task.task_type for task in self._tasks.values()))

    def count_of_type(self, task_type: TaskType) -> int:
        """``n^j_q`` for a single type ``q`` (0 when the type is unused)."""
        return sum(1 for task in self._tasks.values() if task.task_type == task_type)

    def tasks_of_type(self, task_type: TaskType) -> list[Task]:
        return [task for task in self._tasks.values() if task.task_type == task_type]

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def topological_order(self) -> list[int]:
        """Task ids in a topological order (Kahn's algorithm).

        Raises
        ------
        CycleError
            If the graph is not acyclic (cannot happen through ``add_edge``,
            but graphs can also be built from raw edge lists).
        """
        indeg = {tid: len(self._pred[tid]) for tid in self._tasks}
        queue = deque(sorted(tid for tid, d in indeg.items() if d == 0))
        order: list[int] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for nxt in sorted(self._succ[node]):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        if len(order) != len(self._tasks):
            raise CycleError(f"graph {self.name!r} contains a cycle")
        return order

    def is_dag(self) -> bool:
        try:
            self.topological_order()
        except CycleError:
            return False
        return True

    def depth(self) -> int:
        """Length (in tasks) of the longest path, 0 for an empty graph."""
        if not self._tasks:
            return 0
        longest = {tid: 1 for tid in self._tasks}
        for tid in self.topological_order():
            for nxt in self._succ[tid]:
                longest[nxt] = max(longest[nxt], longest[tid] + 1)
        return max(longest.values())

    def validate(self) -> None:
        """Check structural invariants, raising :class:`GraphError` on failure."""
        if not self._tasks:
            raise GraphError(f"recipe graph {self.name!r} has no task")
        for pred, succs in self._succ.items():
            for succ in succs:
                if succ not in self._tasks:
                    raise UnknownTaskError(f"edge {pred}->{succ} references unknown task {succ}")
        self.topological_order()  # raises CycleError when cyclic

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_networkx(self) -> nx.DiGraph:
        """Export to a :class:`networkx.DiGraph` (nodes carry task attributes)."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for task in self._tasks.values():
            graph.add_node(
                task.task_id,
                task_type=task.task_type,
                name=task.name,
                work=task.work,
            )
        graph.add_edges_from(self.edges())
        return graph

    @classmethod
    def from_networkx(cls, graph: nx.DiGraph, name: str = "") -> "RecipeGraph":
        """Build a recipe from a networkx DAG whose nodes carry ``task_type``."""
        recipe = cls(name=name or str(graph.name or ""))
        for node, data in graph.nodes(data=True):
            if "task_type" not in data:
                raise GraphError(f"node {node!r} is missing the 'task_type' attribute")
            recipe.add_task(
                Task(
                    task_id=int(node),
                    task_type=data["task_type"],
                    name=str(data.get("name", "")),
                    work=float(data.get("work", 1.0)),
                )
            )
        for pred, succ in graph.edges():
            recipe.add_edge(int(pred), int(succ))
        return recipe

    @classmethod
    def from_type_sequence(
        cls,
        types: Sequence[TaskType],
        name: str = "",
        chain: bool = True,
    ) -> "RecipeGraph":
        """Build a recipe whose task ``i`` has type ``types[i]``.

        When ``chain`` is true the tasks form a linear pipeline
        ``0 -> 1 -> ... -> n-1`` which is the most common shape in the paper's
        examples (Figures 1 and 2); otherwise the tasks are independent.
        """
        recipe = cls(name=name)
        for task_type in types:
            recipe.new_task(task_type)
        if chain:
            ids = recipe.task_ids()
            for pred, succ in zip(ids, ids[1:]):
                recipe.add_edge(pred, succ)
        return recipe

    def copy(self, name: str | None = None) -> "RecipeGraph":
        """Deep-ish copy (tasks are immutable, so they are shared)."""
        return RecipeGraph(
            name=self.name if name is None else name,
            tasks=self.tasks(),
            edges=self.edges(),
        )

    def with_task_types(self, new_types: Mapping[int, TaskType], name: str | None = None) -> "RecipeGraph":
        """Return a copy where the listed tasks have their type replaced.

        This is the *mutation* primitive used to derive alternative recipes
        from an initial recipe (paper, Section VIII-A).
        """
        copy = RecipeGraph(name=self.name if name is None else name)
        for task in self.tasks():
            if task.task_id in new_types:
                copy.add_task(task.with_type(new_types[task.task_id]))
            else:
                copy.add_task(task)
        for pred, succ in self.edges():
            copy.add_edge(pred, succ)
        return copy

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecipeGraph(name={self.name!r}, tasks={self.num_tasks}, "
            f"edges={self.num_edges}, types={sorted(map(str, self.types_used()))})"
        )
