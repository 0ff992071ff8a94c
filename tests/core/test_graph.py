"""Unit tests for repro.core.graph (recipe DAGs)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.core import CycleError, GraphError, RecipeGraph, Task, UnknownTaskError


def build_diamond() -> RecipeGraph:
    """A 4-task diamond: 0 -> {1, 2} -> 3, with two type-1 tasks."""
    recipe = RecipeGraph(name="diamond")
    recipe.add_task(Task(0, 1))
    recipe.add_task(Task(1, 2))
    recipe.add_task(Task(2, 1))
    recipe.add_task(Task(3, 3))
    recipe.add_edge(0, 1)
    recipe.add_edge(0, 2)
    recipe.add_edge(1, 3)
    recipe.add_edge(2, 3)
    return recipe


class TestConstruction:
    def test_add_task_and_len(self):
        recipe = RecipeGraph()
        recipe.add_task(Task(0, 1))
        recipe.add_task(Task(1, 2))
        assert len(recipe) == 2
        assert recipe.num_tasks == 2

    def test_duplicate_task_id_rejected(self):
        recipe = RecipeGraph()
        recipe.add_task(Task(0, 1))
        with pytest.raises(GraphError):
            recipe.add_task(Task(0, 2))

    def test_add_non_task_rejected(self):
        with pytest.raises(GraphError):
            RecipeGraph().add_task("not a task")  # type: ignore[arg-type]

    def test_new_task_assigns_sequential_ids(self):
        recipe = RecipeGraph()
        t0 = recipe.new_task(1)
        t1 = recipe.new_task(2)
        assert (t0.task_id, t1.task_id) == (0, 1)

    def test_edge_to_unknown_task_rejected(self):
        recipe = RecipeGraph(tasks=[Task(0, 1)])
        with pytest.raises(UnknownTaskError):
            recipe.add_edge(0, 99)
        with pytest.raises(UnknownTaskError):
            recipe.add_edge(99, 0)

    def test_self_loop_rejected(self):
        recipe = RecipeGraph(tasks=[Task(0, 1)])
        with pytest.raises(GraphError):
            recipe.add_edge(0, 0)

    def test_cycle_rejected(self):
        recipe = RecipeGraph(tasks=[Task(0, 1), Task(1, 2), Task(2, 3)])
        recipe.add_edge(0, 1)
        recipe.add_edge(1, 2)
        with pytest.raises(CycleError):
            recipe.add_edge(2, 0)

    def test_duplicate_edge_is_idempotent(self):
        recipe = RecipeGraph(tasks=[Task(0, 1), Task(1, 2)])
        recipe.add_edge(0, 1)
        recipe.add_edge(0, 1)
        assert recipe.num_edges == 1

    def test_constructor_with_tasks_and_edges(self):
        recipe = RecipeGraph(tasks=[Task(0, 1), Task(1, 2)], edges=[(0, 1)])
        assert recipe.num_edges == 1


class TestQueries:
    def test_sources_and_sinks(self):
        recipe = build_diamond()
        assert recipe.sources() == [0]
        assert recipe.sinks() == [3]

    def test_successors_predecessors(self):
        recipe = build_diamond()
        assert recipe.successors(0) == {1, 2}
        assert recipe.predecessors(3) == {1, 2}

    def test_successors_of_unknown_task(self):
        with pytest.raises(UnknownTaskError):
            build_diamond().successors(42)

    def test_task_lookup(self):
        recipe = build_diamond()
        assert recipe.task(2).task_type == 1
        with pytest.raises(UnknownTaskError):
            recipe.task(42)

    def test_contains(self):
        recipe = build_diamond()
        assert 0 in recipe and 42 not in recipe

    def test_type_counts(self):
        counts = build_diamond().type_counts()
        assert counts == {1: 2, 2: 1, 3: 1}

    def test_count_of_type(self):
        recipe = build_diamond()
        assert recipe.count_of_type(1) == 2
        assert recipe.count_of_type(99) == 0

    def test_types_used(self):
        assert build_diamond().types_used() == {1, 2, 3}

    def test_tasks_of_type(self):
        ids = {t.task_id for t in build_diamond().tasks_of_type(1)}
        assert ids == {0, 2}


class TestStructure:
    def test_topological_order_respects_edges(self):
        recipe = build_diamond()
        order = recipe.topological_order()
        assert set(order) == {0, 1, 2, 3}
        assert order.index(0) < order.index(1) < order.index(3)
        assert order.index(0) < order.index(2) < order.index(3)

    def test_depth_of_diamond(self):
        assert build_diamond().depth() == 3

    def test_depth_of_empty_graph(self):
        assert RecipeGraph().depth() == 0

    def test_is_dag(self):
        assert build_diamond().is_dag()

    def test_validate_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            RecipeGraph(name="empty").validate()

    def test_validate_passes_on_diamond(self):
        build_diamond().validate()


class TestTransformations:
    def test_copy_is_independent(self):
        recipe = build_diamond()
        clone = recipe.copy()
        clone.new_task(9)
        assert recipe.num_tasks == 4
        assert clone.num_tasks == 5
        assert clone.edges() == recipe.edges()

    def test_with_task_types_replaces_selected(self):
        recipe = build_diamond()
        mutated = recipe.with_task_types({0: 7, 3: 8}, name="mutant")
        assert mutated.task(0).task_type == 7
        assert mutated.task(3).task_type == 8
        assert mutated.task(1).task_type == 2
        assert mutated.name == "mutant"
        # topology preserved
        assert mutated.edges() == recipe.edges()

    def test_from_type_sequence_chain(self):
        recipe = RecipeGraph.from_type_sequence([1, 2, 3], name="chain")
        assert recipe.num_tasks == 3
        assert recipe.edges() == [(0, 1), (1, 2)]

    def test_from_type_sequence_no_chain(self):
        recipe = RecipeGraph.from_type_sequence([1, 2, 3], chain=False)
        assert recipe.num_edges == 0


class TestNetworkxInterop:
    def test_package_imports_without_networkx(self):
        # networkx is an optional dependency: only to_networkx imports it
        code = textwrap.dedent(
            """
            import sys

            class BlockNetworkx:
                def find_spec(self, name, path=None, target=None):
                    if name.partition(".")[0] == "networkx":
                        raise ModuleNotFoundError(f"No module named {name!r}")
                    return None

            sys.meta_path.insert(0, BlockNetworkx())
            import repro, repro.cli
            assert "networkx" not in sys.modules
            """
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr

    def test_round_trip(self):
        nx = pytest.importorskip("networkx")
        recipe = build_diamond()
        graph = recipe.to_networkx()
        assert isinstance(graph, nx.DiGraph)
        assert set(graph.nodes) == {0, 1, 2, 3}
        back = RecipeGraph.from_networkx(graph, name="back")
        assert back.type_counts() == recipe.type_counts()
        assert back.edges() == recipe.edges()

    def test_from_networkx_requires_task_type(self):
        nx = pytest.importorskip("networkx")
        graph = nx.DiGraph()
        graph.add_node(0)
        with pytest.raises(GraphError):
            RecipeGraph.from_networkx(graph)
