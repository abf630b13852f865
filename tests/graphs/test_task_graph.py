"""TaskGraph structure tests."""

import pytest

from repro.graphs import TaskGraph


def diamond() -> TaskGraph:
    #   0 -> 1 -> 3, 0 -> 2 -> 3
    return TaskGraph(
        compute=(1.0, 2.0, 3.0, 4.0),
        edges={(0, 1): 10.0, (0, 2): 20.0, (1, 3): 30.0, (2, 3): 40.0},
    )


class TestConstruction:
    def test_basic_properties(self):
        g = diamond()
        assert g.num_tasks == 4 and g.num_edges == 4
        assert g.entries == (0,) and [i for i, c in enumerate(g.children) if not c] == [3]
        assert g.parents[3] == (1, 2) and g.children[0] == (1, 2)

    def test_depth(self):
        assert diamond().depth == 3

    def test_topo_order_respects_edges(self):
        g = diamond()
        pos = {v: i for i, v in enumerate(g.topo_order)}
        for u, v in g.edges:
            assert pos[u] < pos[v]

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            TaskGraph((1.0, 1.0), {(0, 1): 1.0, (1, 0): 1.0})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            TaskGraph((1.0,), {(0, 0): 1.0})

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            TaskGraph((1.0,), {(0, 5): 1.0})

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            TaskGraph((-1.0,), {})

    def test_negative_data_rejected(self):
        with pytest.raises(ValueError, match="negative data"):
            TaskGraph((1.0, 1.0), {(0, 1): -5.0})

    def test_requirement_length_mismatch(self):
        with pytest.raises(ValueError, match="requirements"):
            TaskGraph((1.0, 1.0), {}, requirements=(0,))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            TaskGraph((), {})

    def test_default_requirements_are_generic(self):
        assert diamond().requirements == (0, 0, 0, 0)


class TestQueries:
    def test_single_task_graph(self):
        g = TaskGraph((5.0,), {})
        assert g.entries == (0,) and g.children == ((),) and g.depth == 1
