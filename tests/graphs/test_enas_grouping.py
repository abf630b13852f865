"""ENAS DL-graph generator and operator-grouping tests (paper §5.2, B.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    CellDesign,
    TaskGraph,
    generate_enas_dataset,
    group_operators,
    sample_cell_design,
    unroll_cell,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestCellDesign:
    def test_sampled_design_valid(self):
        d = sample_cell_design(rng(), num_nodes=10)
        assert d.num_nodes == 10
        assert d.predecessors[0] == -1

    def test_node0_must_read_input(self):
        with pytest.raises(ValueError):
            CellDesign((0,), ("tanh",))

    def test_predecessor_must_be_earlier(self):
        with pytest.raises(ValueError):
            CellDesign((-1, 1), ("tanh", "relu"))

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            CellDesign((-1,), ("softplus",))

    def test_loose_ends(self):
        # 0 -> 1, 0 -> 2; loose ends are 1 and 2.
        d = CellDesign((-1, 0, 0), ("tanh", "relu", "identity"))
        assert d.loose_ends() == (1, 2)


class TestUnroll:
    def test_operator_count_in_paper_range(self):
        # Paper: 200-300 operators per graph with T in [20, 30].
        d = sample_cell_design(rng(), num_nodes=10)
        g = unroll_cell(d, steps=25, batch_size=100)
        assert 200 <= g.num_tasks <= 350

    def test_single_entry_single_exit(self):
        d = sample_cell_design(rng(1))
        g = unroll_cell(d, steps=5, batch_size=32)
        assert len(g.entries) == 1 and sum(not c for c in g.children) == 1

    def test_batch_size_scales_cost(self):
        d = sample_cell_design(rng(2))
        small = unroll_cell(d, steps=5, batch_size=32)
        large = unroll_cell(d, steps=5, batch_size=128)
        assert sum(large.compute) == pytest.approx(4 * sum(small.compute))

    def test_steps_scale_size(self):
        d = sample_cell_design(rng(3), num_nodes=8)
        assert unroll_cell(d, 10, 64).num_tasks > unroll_cell(d, 5, 64).num_tasks

    def test_invalid_args(self):
        d = sample_cell_design(rng(4))
        with pytest.raises(ValueError):
            unroll_cell(d, steps=0, batch_size=32)
        with pytest.raises(ValueError):
            unroll_cell(d, steps=5, batch_size=0)

    def test_dataset_shape(self):
        graphs = generate_enas_dataset(rng(), num_designs=2, variants_per_design=3)
        assert len(graphs) == 6
        assert all(len(g.entries) == 1 for g in graphs)


class TestGrouping:
    def test_reduces_to_target(self):
        d = sample_cell_design(rng(5), num_nodes=10)
        g = unroll_cell(d, steps=20, batch_size=100)
        grouped = group_operators(g, target_size=40)
        assert grouped.graph.num_tasks <= 40

    def test_groups_partition_operators(self):
        d = sample_cell_design(rng(6), num_nodes=8)
        g = unroll_cell(d, steps=10, batch_size=64)
        grouped = group_operators(g, target_size=30)
        all_ops = sorted(op for group in grouped.groups for op in group)
        assert all_ops == list(range(g.num_tasks))

    def test_compute_conserved(self):
        d = sample_cell_design(rng(7), num_nodes=8)
        g = unroll_cell(d, steps=10, batch_size=64)
        grouped = group_operators(g, target_size=25)
        assert sum(grouped.graph.compute) == pytest.approx(sum(g.compute))

    def test_result_is_acyclic_dag(self):
        d = sample_cell_design(rng(8), num_nodes=9)
        g = unroll_cell(d, steps=12, batch_size=80)
        grouped = group_operators(g, target_size=40)  # constructor rejects cycles
        assert grouped.graph.num_tasks == len(grouped.groups)

    def test_incompatible_requirements_not_merged(self):
        # Chain 0 -> 1 -> 2 with conflicting requirements on 0/1: merge of
        # 1 into 0 is blocked, 2 (generic) can merge anywhere.
        g = TaskGraph(
            (1.0, 1.0, 1.0),
            {(0, 1): 1.0, (1, 2): 1.0},
            requirements=(1, 2, 0),
        )
        grouped = group_operators(g, target_size=1)
        assert grouped.graph.num_tasks == 2  # 1 and 2 merged; 0 kept apart

    def test_merged_requirement_inherited(self):
        g = TaskGraph((1.0, 1.0), {(0, 1): 1.0}, requirements=(0, 2))
        grouped = group_operators(g, target_size=1)
        assert grouped.graph.num_tasks == 1
        assert grouped.graph.requirements == (2,)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            group_operators(TaskGraph((1.0,), {}), target_size=0)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    steps=st.integers(min_value=2, max_value=15),
    target=st.integers(min_value=5, max_value=60),
)
def test_grouping_preserves_dag_and_compute(seed, steps, target):
    """Property: grouping any unrolled cell yields a valid DAG partition
    conserving total compute."""
    d = sample_cell_design(np.random.default_rng(seed))
    g = unroll_cell(d, steps=steps, batch_size=64)
    grouped = group_operators(g, target_size=target)
    assert sum(grouped.graph.compute) == pytest.approx(sum(g.compute))
    sizes = sorted(op for group in grouped.groups for op in group)
    assert sizes == list(range(g.num_tasks))
    # grouped graph constructor validates acyclicity; depth must not grow
    assert grouped.graph.depth <= g.depth
