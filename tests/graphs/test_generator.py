"""Random task-graph generator tests (paper Appendix B.2), incl. properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import TaskGraphParams, generate_task_graph


def rng(seed=0):
    return np.random.default_rng(seed)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_tasks": 0},
            {"shape": 0.0},
            {"connect_prob": 1.5},
            {"het_compute": 2.0},
            {"num_hardware_types": 0},
            {"constraint_prob": -0.1},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TaskGraphParams(**kwargs)


class TestGenerator:
    def test_task_count_exact(self):
        g = generate_task_graph(TaskGraphParams(num_tasks=25), rng())
        assert g.num_tasks == 25

    def test_single_entry_single_exit(self):
        for seed in range(10):
            g = generate_task_graph(TaskGraphParams(num_tasks=20), rng(seed))
            assert len(g.entries) == 1, f"seed {seed}"
            assert sum(not c for c in g.children) == 1, f"seed {seed}"

    def test_compute_within_heterogeneity_band(self):
        p = TaskGraphParams(num_tasks=40, mean_compute=100.0, het_compute=0.3)
        g = generate_task_graph(p, rng())
        assert all(70.0 <= c <= 130.0 for c in g.compute)

    def test_data_within_heterogeneity_band(self):
        p = TaskGraphParams(num_tasks=40, mean_data=50.0, het_data=0.2)
        g = generate_task_graph(p, rng())
        assert all(40.0 <= b <= 60.0 for b in g.edges.values())

    def test_shape_parameter_controls_depth(self):
        # Larger alpha -> wider and shallower graphs (paper Fig. 12).
        deep = [generate_task_graph(TaskGraphParams(num_tasks=50, shape=0.5), rng(s)).depth for s in range(20)]
        wide = [generate_task_graph(TaskGraphParams(num_tasks=50, shape=2.0), rng(s)).depth for s in range(20)]
        assert np.mean(deep) > np.mean(wide)

    def test_connect_prob_controls_density(self):
        sparse = [generate_task_graph(TaskGraphParams(num_tasks=30, connect_prob=0.05), rng(s)).num_edges for s in range(10)]
        dense = [generate_task_graph(TaskGraphParams(num_tasks=30, connect_prob=0.8), rng(s)).num_edges for s in range(10)]
        assert np.mean(dense) > np.mean(sparse)

    def test_constraints_assigned(self):
        p = TaskGraphParams(num_tasks=60, constraint_prob=1.0, num_hardware_types=4)
        g = generate_task_graph(p, rng())
        assert all(1 <= r <= 3 for r in g.requirements)

    def test_no_constraints_when_prob_zero(self):
        p = TaskGraphParams(num_tasks=30, constraint_prob=0.0)
        g = generate_task_graph(p, rng())
        assert set(g.requirements) == {0}

    def test_reproducible_given_seed(self):
        p = TaskGraphParams(num_tasks=20)
        g1 = generate_task_graph(p, rng(7))
        g2 = generate_task_graph(p, rng(7))
        assert g1.compute == g2.compute and g1.edges == g2.edges

    def test_tiny_graphs(self):
        for m in (1, 2, 3):
            g = generate_task_graph(TaskGraphParams(num_tasks=m), rng())
            assert g.num_tasks == m


@settings(max_examples=30, deadline=None)
@given(
    num_tasks=st.integers(min_value=1, max_value=60),
    shape=st.floats(min_value=0.3, max_value=3.0),
    connect_prob=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_generator_always_produces_valid_connected_dags(num_tasks, shape, connect_prob, seed):
    """Property: any parameterization yields a valid DAG with exactly one
    entry and exit, all tasks on a path from entry to exit."""
    p = TaskGraphParams(num_tasks=num_tasks, shape=shape, connect_prob=connect_prob)
    g = generate_task_graph(p, np.random.default_rng(seed))
    assert g.num_tasks == num_tasks
    assert len(g.entries) == 1 and sum(not c for c in g.children) == 1
    # Reachability: every task reachable from the entry (forward BFS) and
    # co-reachable from the exit (backward BFS).
    fwd = {g.entries[0]}
    frontier = [g.entries[0]]
    while frontier:
        u = frontier.pop()
        for v in g.children[u]:
            if v not in fwd:
                fwd.add(v)
                frontier.append(v)
    exit_task = g.children.index(())
    bwd = {exit_task}
    frontier = [exit_task]
    while frontier:
        v = frontier.pop()
        for u in g.parents[v]:
            if u not in bwd:
                bwd.add(u)
                frontier.append(u)
    assert fwd == set(range(num_tasks))
    assert bwd == set(range(num_tasks))
