"""Operator grouping for large DL graphs (paper §5.2).

"The grouping is done by iteratively merging the operator with in-degree
one and lowest cost into its sole predecessor until the graph size is
reduced to 40 nodes."  Operators in a group are placed on the same
device, shrinking the placement problem.
"""

from __future__ import annotations

from dataclasses import dataclass

from .task_graph import TaskGraph

__all__ = ["GroupedGraph", "group_operators"]


@dataclass(frozen=True)
class GroupedGraph:
    """A grouped task graph plus the group -> original-operator mapping."""

    graph: TaskGraph
    groups: tuple[tuple[int, ...], ...]  # groups[i] = original op ids in group i



def _compatible(req_a: int, req_b: int) -> bool:
    """Two ops can share a group if their hardware requirements agree."""
    return req_a == 0 or req_b == 0 or req_a == req_b


def group_operators(graph: TaskGraph, target_size: int = 40) -> GroupedGraph:
    """Merge in-degree-1 lowest-cost operators into their predecessors.

    Stops when the graph has at most ``target_size`` groups or no merge
    candidate remains (a candidate must have exactly one parent and a
    hardware requirement compatible with it).
    """
    if target_size < 1:
        raise ValueError("target_size must be >= 1")

    # Mutable working copies, keyed by current group id (original op id of
    # the group's representative).
    compute = {i: graph.compute[i] for i in range(graph.num_tasks)}
    reqs = {i: graph.requirements[i] for i in range(graph.num_tasks)}
    members: dict[int, list[int]] = {i: [i] for i in range(graph.num_tasks)}
    parents: dict[int, set[int]] = {i: set(graph.parents[i]) for i in range(graph.num_tasks)}
    children: dict[int, set[int]] = {i: set(graph.children[i]) for i in range(graph.num_tasks)}
    data = dict(graph.edges)

    def merge(node: int, into: int) -> None:
        compute[into] += compute[node]
        if reqs[into] == 0:
            reqs[into] = reqs[node]
        members[into].extend(members[node])
        data.pop((into, node), None)
        # Re-wire node's children to `into`.
        for ch in list(children[node]):
            b = data.pop((node, ch))
            if ch == into:
                continue  # would create a self-loop; drop internal edge
            data[(into, ch)] = data.get((into, ch), 0.0) + b
            parents[ch].discard(node)
            parents[ch].add(into)
            children[into].add(ch)
        # Re-wire node's other parents (beyond `into`) to `into`.  With the
        # in-degree-1 candidate rule this loop is empty, but merge() stays
        # correct for general use.
        for pa in list(parents[node]):
            if pa == into:
                continue
            b = data.pop((pa, node))
            data[(pa, into)] = data.get((pa, into), 0.0) + b
            children[pa].discard(node)
            children[pa].add(into)
            parents[into].add(pa)
        children[into].discard(node)
        del compute[node], reqs[node], members[node], parents[node], children[node]

    while len(compute) > target_size:
        candidates = [
            i
            for i in compute
            if len(parents[i]) == 1 and _compatible(reqs[i], reqs[next(iter(parents[i]))])
        ]
        if not candidates:
            break
        node = min(candidates, key=lambda i: (compute[i], i))
        merge(node, next(iter(parents[node])))

    # Relabel surviving groups 0..k-1 in original-id order.
    order = sorted(compute)
    new_id = {old: new for new, old in enumerate(order)}
    new_compute = tuple(compute[old] for old in order)
    new_reqs = tuple(reqs[old] for old in order)
    new_edges = {(new_id[u], new_id[v]): b for (u, v), b in data.items()}
    grouped = TaskGraph(new_compute, new_edges, new_reqs, name=f"{graph.name}-grouped")
    return GroupedGraph(grouped, tuple(tuple(sorted(members[old])) for old in order))
