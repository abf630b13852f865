"""Task-graph substrate: DAG structure, random generator, DL graphs, grouping."""

from .enas import CellDesign, generate_enas_dataset, sample_cell_design, unroll_cell
from .generator import TaskGraphParams, generate_task_graph
from .grouping import GroupedGraph, group_operators
from .task_graph import TaskGraph

__all__ = [
    "TaskGraph",
    "TaskGraphParams",
    "generate_task_graph",
    "CellDesign",
    "sample_cell_design",
    "unroll_cell",
    "generate_enas_dataset",
    "GroupedGraph",
    "group_operators",
]
