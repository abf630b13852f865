"""Feature maps f_n and f_e for gpNet nodes and edges (paper §B.7).

Node features of option (v_i, d_k):
    1. compute requirement C_i,
    2. device compute speed SP_k,
    3. expected compute time w_{i,k},
    4. start-time potential: earliest possible start of v_i on d_k (given
       parents' current placements) minus v_i's actual start time in the
       current schedule.

Edge features of ((v_i, d_k), (v_j, d_l)):
    1. data amount B_ij,
    2. inverse bandwidth 1/BW_kl (the paper lists bandwidth itself; the
       inverse is used here because local links have BW = ∞, which is not
       network-input-safe — 1/BW is the monotone-equivalent cost form),
    3. communication delay DL_kl,
    4. expected communication time c_{ij,kl}.

Features are normalized per instance (each column divided by its mean
magnitude) so policies transfer across problem scales.

Only the start-time potential and pivot-adjacent edge features depend on
the placement; everything else is static per instance.  The builder
precomputes the static parts once and writes gpNet edges — one block
per task-graph edge — through a single writer, one array pass over the
slots of the blocks it is given: :meth:`GpNetBuilder.build` writes
every block, :meth:`GpNetBuilder.update` — the incremental rebuild after
a single relocation — only the blocks incident to the moved task (the
node-feature potential column is global, since one move reshuffles the
whole schedule, but it is evaluated vectorized).

The GNN's frontier plans (:class:`GpNetStructure`) come from edge *runs*
(one per edge block of a builder's net): past one pass over the edges,
their derivation scales with the task graph, not the gpNet.  The plan
rows of the edges' endpoints move with the pivots: each net carries its
own (:func:`endpoint_rows_of`), patched by the edge writer on an update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..runtime.fastsim import FastSimulator
from ..sim.executor import SimResult
from .gpnet import GpNet
from .placement import PlacementProblem

__all__ = [
    "FeatureConfig",
    "GpNetBuilder",
    "GpNetStructure",
    "structure_of",
    "endpoint_rows_of",
    "NODE_FEATURE_DIM",
    "EDGE_FEATURE_DIM",
]

NODE_FEATURE_DIM = 4
EDGE_FEATURE_DIM = 4


@dataclass(frozen=True)
class FeatureConfig:
    """Feature-map options.

    ``use_start_time_potential=False`` reproduces the Fig. 15 ablation
    (removing the EST potential degrades every variant, GiPH least).
    """

    use_start_time_potential: bool = True
    normalize: bool = True


def _task_levels(
    senders: np.ndarray, receivers: np.ndarray, num_tasks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward longest-path layering of the task DAG on the
    (sender, receiver) pairs: ``level[t] = 1 + max(level[senders into t])``
    (0 for sources), so a level's senders are all final before it.  Both
    directions relax at once (backward slots offset by ``num_tasks``),
    one array pass per level until nothing grows."""
    src = np.concatenate([senders, receivers + num_tasks])
    dst = np.concatenate([receivers, senders + num_tasks])
    level, total = np.zeros(2 * num_tasks, dtype=np.int64), 0
    for _ in range(num_tasks + 1):  # a DAG's longest path has < num_tasks edges
        np.maximum.at(level, dst, level[src] + 1)
        previous, total = total, int(level.sum())
        if total == previous:
            return level[:num_tasks], level[num_tasks:]
    raise RuntimeError("gpNet induced a cyclic task order")


@dataclass(frozen=True)
class GpNetStructure:
    """Placement-independent lock-step frontier plan of one problem's gpNets.

    GiPH's two sweeps (Eq. 1) each take the task DAG's depth in levels, so
    the GNN advances level ``l`` of both at once.  Ids are doubled:
    backward node ``v`` is ``N + v``, backward edge ``e`` is ``E + e``.
    ``nodes``/``edges`` list them level by level, forward ids first: the
    option sets of the level's tasks in ascending task order, and the
    edges into them grouped by receiving task, each group ascending.
    ``node_row`` inverts ``nodes``, so a level's segment ids are
    ``node_row[receiver] - n0``, backward rows after forward rows.
    ``row_bounds[2l : 2l + 3]`` are where level ``l``'s forward rows
    start, its backward rows start and it ends; ``edge_bounds`` likewise.

    GpNet edge endpoints move with the pivots, but each edge block's
    endpoint tasks are fixed: one structure serves every placement, and
    each net carries its own endpoint rows (:func:`endpoint_rows_of`).
    :meth:`from_gpnet` run-length-encodes the edges by (sender task,
    receiver task), layers the tasks on the run pairs, and stable-sorts
    option nodes and received runs by (level, direction) — each level is
    then one slice of each, the runs expanded back to their edges.
    """

    nodes: np.ndarray
    edges: np.ndarray
    node_row: np.ndarray
    row_bounds: np.ndarray
    edge_bounds: np.ndarray

    @classmethod
    def from_gpnet(cls, net: GpNet) -> "GpNetStructure":
        num_tasks, n, m = len(net.options), net.num_nodes, net.num_edges
        # Runs: maximal stretches of consecutive gpNet edges with one
        # (sender task, receiver task) pair, ascending by start.
        pair = net.task_of[net.edge_src] * num_tasks + net.task_of[net.edge_dst]
        starts = np.flatnonzero(np.concatenate(([m > 0], pair[1:] != pair[:-1])))
        lengths = np.diff(starts, append=m)
        run_src, run_dst = np.divmod(pair[starts], max(num_tasks, 1))
        option_task = np.repeat(np.arange(num_tasks), [len(o) for o in net.options])
        options = np.concatenate(net.options) if num_tasks else option_task
        # Slot 2l of a task is forward level l, slot 2l + 1 backward level l
        # (backward tasks offset by num_tasks).  Forward a run is received
        # by its dst task, backward by its src.
        slot = 2 * np.concatenate(_task_levels(run_src, run_dst, num_tasks))
        slot[num_tasks:] += 1
        node_slot = np.concatenate((slot[option_task], slot[num_tasks + option_task]))
        receiver = np.concatenate((run_dst, num_tasks + run_src))
        node_order = np.argsort(node_slot, kind="stable")
        run_order = np.argsort(slot[receiver] * 2 * num_tasks + receiver, kind="stable")
        nodes = np.concatenate((options, options + n))[node_order]
        run_len = np.concatenate((lengths, lengths))[run_order]
        ends = np.cumsum(run_len)
        run_first = np.concatenate((starts, starts + m))[run_order] - ends + run_len
        edges = np.repeat(run_first, run_len) + np.arange(2 * m)
        bounds = np.arange(int(slot.max()) + 2 if num_tasks else 1)
        row_bounds = np.searchsorted(node_slot[node_order], bounds)
        edge_bounds = np.concatenate(([0], ends))[np.searchsorted(slot[receiver[run_order]], bounds)]
        node_row = np.empty(2 * n, dtype=np.int64)
        node_row[nodes] = np.arange(2 * n)
        return cls(nodes, edges, node_row, row_bounds, edge_bounds)

    def endpoint_rows(self, net: GpNet) -> np.ndarray:
        """``(2, 2E)`` rows of every plan edge's sender (row 0) and receiver
        (row 1) in ``net``: forward src -> dst, backward dst -> src."""
        n, src, dst = net.num_nodes, net.edge_src, net.edge_dst
        ends = np.stack((np.concatenate((src, dst + n)), np.concatenate((dst, src + n))))
        return self.node_row.take(ends.take(self.edges, axis=1))


def structure_of(gpnet: GpNet) -> GpNetStructure:
    """The gpNet's cached :class:`GpNetStructure` (computed on first use).

    Nets built by a :class:`GpNetBuilder` arrive with the builder's one
    shared instance already attached; nets built otherwise (e.g. by the
    per-edge Algorithm "gpNet" oracle in tests) get a private instance
    attached here on first embed.  Either way, repeat forwards of an
    episode pay for the structural derivation exactly once.
    """
    cached = getattr(gpnet, "_structure", None)
    if cached is None:
        cached = GpNetStructure.from_gpnet(gpnet)
        object.__setattr__(gpnet, "_structure", cached)
    return cached


def endpoint_rows_of(gpnet: GpNet) -> tuple[np.ndarray, np.ndarray]:
    """The plan rows of every plan edge's sender and receiver in ``gpnet``:
    a builder's, or derived here once and kept, as :func:`structure_of`
    keeps its plan.  A level's edges are received by its own nodes, so
    while ``node_row`` inverts ``nodes`` each receiver lands in its own
    direction's rows of the level.  The segment kernel refuses only ids
    outside a level: a row map that does not invert ``nodes`` is refused
    here, before the sweep writes any row."""
    plan = structure_of(gpnet)
    if not np.array_equal(plan.node_row.take(plan.nodes), np.arange(len(plan.nodes))):
        raise ValueError(
            "segment_sum: segment ids span rows outside their own level and direction "
            "(node_row does not invert nodes)"
        )
    rows = getattr(gpnet, "_endpoint_rows", None)
    if rows is None:
        rows = plan.endpoint_rows(gpnet)
        object.__setattr__(gpnet, "_endpoint_rows", rows)
    return rows[0], rows[1]


def _attach(net: GpNet, structure: GpNetStructure, rows: np.ndarray) -> GpNet:
    """Hand ``net`` its builder's plan and its own endpoint rows."""
    object.__setattr__(net, "_structure", structure)
    object.__setattr__(net, "_endpoint_rows", rows)
    return net


@dataclass(frozen=True)
class _RawBuild:
    """Pre-normalization edge arrays of one build: what the edge writer
    fills and what the next incremental update starts from."""

    placement: tuple[int, ...]
    pivot_node: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_features: np.ndarray


class GpNetBuilder:
    """Builds gpNets with fully populated features for one problem.

    The builder runs one noise-free simulation of the current placement
    per build to obtain the schedule timeline that the start-time
    potential is measured against (callers holding a cached timeline —
    e.g. :class:`repro.runtime.PlacementEvaluator` — pass it in to skip
    the simulation).

    Every net it makes carries the problem's one shared
    :class:`GpNetStructure` and its own endpoint rows
    (:func:`endpoint_rows_of`): :meth:`build` derives them from the plan,
    :meth:`update` copies the previous net's and the edge writer rewrites
    the slots it writes, in both directions, through ``_edge_pos``, the
    inverse of the plan's edge order.  The rows live on the nets, not in
    the retained raw build, so a builder kept per problem holds none.
    """

    def __init__(self, problem: PlacementProblem, config: FeatureConfig | None = None) -> None:
        self.problem = problem
        self.config = config or FeatureConfig()
        self._inv_bw = problem.network.inv_bandwidth
        graph = problem.graph
        cm = problem.cost_model
        feas = problem.feasible_sets

        # Static node structure: one node per feasible (task, device) pair,
        # grouped by task — the node layout of Algorithm "gpNet".
        offsets: list[int] = []
        task_of: list[int] = []
        device_of: list[int] = []
        for i, f in enumerate(feas):
            offsets.append(len(task_of))
            task_of.extend([i] * len(f))
            device_of.extend(f)
        self._offsets = tuple(offsets)
        self._task_of = np.array(task_of, dtype=np.int64)
        self._device_of = np.array(device_of, dtype=np.int64)
        self._options = tuple(
            np.arange(offsets[i], offsets[i] + len(feas[i])) for i in range(graph.num_tasks)
        )
        self._feas_index = tuple({d: k for k, d in enumerate(f)} for f in feas)
        self._num_nodes = len(task_of)

        # Static node feature columns (C_i, SP_k, w_{i,k}).
        self._static_node_cols = np.column_stack(
            [
                np.asarray(graph.compute, dtype=np.float64)[self._task_of],
                np.asarray(problem.network.speeds, dtype=np.float64)[self._device_of],
                cm.W[self._task_of, self._device_of],
            ]
        )

        # Contiguous gpNet-edge block per task-graph edge (i, j):
        # |D_j| edges pivot_i -> options_j, then |D_i| - 1 edges
        # (options_i \ pivot_i) -> pivot_j.  Sizes are placement-independent,
        # so everything the writer needs per gpNet-edge slot follows from
        # these per-block columns (block b = b-th task-graph edge) and the
        # slot's position k in its block — nothing is stored per slot.
        num_blocks = graph.num_edges
        self._block_i, self._block_j, self._block_data = graph.edge_arrays()
        num_options = np.array([len(f) for f in feas], dtype=np.int64)
        offsets_arr = np.array(offsets, dtype=np.int64)
        self._block_split = num_options[self._block_j]  # k < split: pivot_i -> options_j[k]
        self._block_size = self._block_split + num_options[self._block_i] - 1
        self._block_start = np.cumsum(self._block_size) - self._block_size
        # Static node of slot k: options_j[k] in the first half; in the
        # second, options_i[k - split], which the writer shifts past pivot_i.
        self._block_dst0 = offsets_arr[self._block_j]
        self._block_src0 = offsets_arr[self._block_i] - self._block_split
        self._num_gpnet_edges = int(self._block_size.sum())
        # Blocks incident to each task, as either endpoint.
        ends = np.concatenate([self._block_i, self._block_j])
        by_task = np.argsort(ends, kind="stable") % max(num_blocks, 1)
        bounds = np.cumsum(np.bincount(ends, minlength=graph.num_tasks)).tolist()
        self._incident_blocks = tuple(by_task[a:b] for a, b in zip([0] + bounds, bounds))
        self._last: _RawBuild | None = None
        # One GpNetStructure serves every placement of the problem (the
        # task-level layout is placement-independent); computed lazily on
        # the first finalized build, shared by reference thereafter, with
        # the inverse of its edge order: the plan position of doubled edge e.
        self._structure: GpNetStructure | None = None
        self._edge_pos = np.empty(0, dtype=np.int64)

        # Flattened (block, option node of its child task) pairs for the
        # start-time potential.  Static — only placements/timelines vary
        # per build.  Block b's nodes are options_j = block_dst0[b] + k.
        self._pot_rep = np.repeat(np.arange(num_blocks), self._block_split)
        before = np.repeat(np.cumsum(self._block_split) - self._block_split, self._block_split)
        self._pot_nodes = self._block_dst0[self._pot_rep] + np.arange(len(before)) - before

    # -- feature maps -------------------------------------------------------------

    def _start_potentials(self, placement: Sequence[int], timeline: SimResult) -> np.ndarray:
        """Column 4 of f_n for every node, in one sweep over all nodes.

        One ``np.maximum.at`` over the precomputed (block, option node)
        pairs replaces the per-task/per-parent Python loop.  Max
        is exact on floats and the candidate expression keeps the
        original grouping ``finish + (delay + data * inv_bw)``, so the
        sweep is bit-identical to the loop it replaced.
        """
        finish = np.asarray(timeline.finish, dtype=np.float64)
        start = np.asarray(timeline.start, dtype=np.float64)
        out = np.zeros(self._num_nodes)
        if len(self._pot_nodes):
            placement_arr = np.asarray(placement, dtype=np.int64)
            ps = placement_arr[self._block_i][self._pot_rep]
            d = self._device_of[self._pot_nodes]
            delay = self.problem.network.delay
            cand = finish[self._block_i][self._pot_rep] + (
                delay[ps, d] + self._block_data[self._pot_rep] * self._inv_bw[ps, d]
            )
            np.maximum.at(out, self._pot_nodes, cand)
        return out - start[self._task_of]

    def _node_features(self, placement: Sequence[int], timeline: SimResult) -> np.ndarray:
        feats = np.empty((self._num_nodes, NODE_FEATURE_DIM))
        feats[:, :3] = self._static_node_cols
        if self.config.use_start_time_potential:
            feats[:, 3] = self._start_potentials(placement, timeline)
        else:
            # Keep the dimension stable (zeros) so networks are comparable
            # with and without the feature, as in the Fig. 15 ablation.
            feats[:, 3] = 0.0
        return feats

    @staticmethod
    def _normalize(features: np.ndarray) -> np.ndarray:
        if features.size == 0:
            return features
        # ``np.abs(x).mean(axis=0)``'s floats bit for bit (the same row-by-row
        # sum on a row-major array of >= 2 columns), at half its cost.
        scale = np.einsum("ij->j", np.abs(features)) / len(features)
        scale = np.where(scale > 1e-12, scale, 1.0)
        return features / scale

    def _write_blocks(
        self, blocks: np.ndarray, raw: _RawBuild, rows: np.ndarray | None = None
    ) -> None:
        """Fill ``raw``'s gpNet-edge slots of the task-graph edges ``blocks``,
        and their plan positions in the endpoint ``rows`` if given.

        The only gpNet edge writer: one array pass over the slots of
        all the named blocks — per block (i, j) pivot_i -> options_j,
        then options_i \\ pivot_i -> pivot_j, the emission order of
        Algorithm "gpNet" (its per-edge form in ``tests/core/
        gnn_reference.py::build_gpnet`` is the oracle a property test
        compares against), with c_{ij,kl} in the cost model's
        ``delay + data * inv_bw`` grouping and its exact 0.0 for
        co-located pairs.
        """
        sizes = self._block_size[blocks]
        b = np.repeat(blocks, sizes)  # block of each written slot
        k = np.arange(len(b)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        first = k < self._block_split[b]
        node = np.where(first, self._block_dst0[b], self._block_src0[b]) + k
        pi, pj = raw.pivot_node[self._block_i[b]], raw.pivot_node[self._block_j[b]]
        src = np.where(first, pi, node + (node >= pi))
        dst = np.where(first, node, pj)
        src_dev, dst_dev = self._device_of[src], self._device_of[dst]
        data = self._block_data[b]
        inv = self._inv_bw[src_dev, dst_dev]
        dly = self.problem.network.delay[src_dev, dst_dev]
        slots = self._block_start[b] + k
        raw.edge_features[slots] = np.column_stack(
            [data, inv, dly, np.where(src_dev == dst_dev, 0.0, dly + data * inv)]
        )
        raw.edge_src[slots] = src
        raw.edge_dst[slots] = dst
        if rows is not None:  # forward src -> dst, backward (edge id + E, node id + N) dst -> src
            n, m = self._num_nodes, self._num_gpnet_edges
            pos = self._edge_pos[np.concatenate((slots, slots + m))]
            ends = np.concatenate((src, dst + n, dst, src + n))  # senders, then receivers
            rows.reshape(-1)[np.concatenate((pos, pos + 2 * m))] = self._structure.node_row[ends]

    # -- public API ---------------------------------------------------------------

    def build(
        self, placement: Sequence[int], timeline: SimResult | None = None
    ) -> GpNet:
        """Build the gpNet of ``placement`` (timeline computed if absent)."""
        if timeline is None or placement is not timeline.placement:  # else a simulator validated it
            placement = self.problem.validate_placement(placement)
        raw = _RawBuild(
            placement=placement,
            pivot_node=np.array(
                [self._offsets[i] + self._feas_index[i][d] for i, d in enumerate(placement)],
                dtype=np.int64,
            ),
            edge_src=np.empty(self._num_gpnet_edges, dtype=np.int64),
            edge_dst=np.empty(self._num_gpnet_edges, dtype=np.int64),
            edge_features=np.empty((self._num_gpnet_edges, EDGE_FEATURE_DIM)),
        )
        self._write_blocks(np.arange(len(self._block_size)), raw)
        return self._finalize(raw, timeline)

    def update(
        self,
        prev_gpnet: GpNet,
        placement: Sequence[int],
        moved_task: int,
        timeline: SimResult | None = None,
    ) -> GpNet:
        """Rebuild the gpNet after relocating ``moved_task`` only.

        Exactly equal to ``build(placement, timeline)`` but rewrites
        only the edge blocks whose task-graph edge touches the moved
        task, reusing everything else from the previous build.  Falls
        back to a full build when the previous raw state is unavailable
        (e.g. the builder last built a different placement).  The endpoint
        rows are ``prev_gpnet``'s, patched, when it is the net of that raw
        state; else they are derived afresh.
        """
        if timeline is None or placement is not timeline.placement:  # as in ``build``
            placement = self.problem.validate_placement(placement)
        last = self._last
        if last is None or last.placement != prev_gpnet.placement:
            return self.build(placement, timeline)
        diff = [i for i, (a, b) in enumerate(zip(placement, last.placement)) if a != b]
        if not diff:
            return prev_gpnet
        if diff != [moved_task]:
            return self.build(placement, timeline)

        pivot_node = last.pivot_node.copy()
        pivot_node[moved_task] = (
            self._offsets[moved_task] + self._feas_index[moved_task][placement[moved_task]]
        )
        raw = _RawBuild(
            placement=placement,
            pivot_node=pivot_node,
            edge_src=last.edge_src.copy(),
            edge_dst=last.edge_dst.copy(),
            edge_features=last.edge_features.copy(),
        )
        rows = getattr(prev_gpnet, "_endpoint_rows", None)
        rows = rows.copy() if rows is not None and prev_gpnet.edge_src is last.edge_src else None
        self._write_blocks(self._incident_blocks[moved_task], raw, rows)
        return self._finalize(raw, timeline, rows)

    def _finalize(
        self, raw: _RawBuild, timeline: SimResult | None, rows: np.ndarray | None = None
    ) -> GpNet:
        """Keep ``raw`` for the next update and assemble its (normalized) gpNet.

        The returned GpNet shares structure arrays (and, with
        ``normalize=False``, feature arrays) with the builder's raw
        state — GpNets are treated as immutable throughout the codebase;
        mutating one in place would corrupt subsequent incremental
        updates."""
        self._last = raw
        if timeline is None:  # the noise-free schedule (expectation timeline)
            timeline = FastSimulator(self.problem).run(raw.placement, validate=False)
        is_pivot = np.zeros(self._num_nodes, dtype=bool)
        is_pivot[raw.pivot_node] = True
        node_features = self._node_features(raw.placement, timeline)
        edge_features = raw.edge_features
        if self.config.normalize:
            node_features = self._normalize(node_features)
            edge_features = self._normalize(edge_features)
        net = GpNet(
            task_of=self._task_of,
            device_of=self._device_of,
            is_pivot=is_pivot,
            options=self._options,
            edge_src=raw.edge_src,
            edge_dst=raw.edge_dst,
            node_features=node_features,
            edge_features=edge_features,
            placement=raw.placement,
        )
        if self._structure is None:
            self._structure = GpNetStructure.from_gpnet(net)
            self._edge_pos = np.empty_like(self._structure.edges)
            self._edge_pos[self._structure.edges] = np.arange(len(self._edge_pos))
        return _attach(
            net, self._structure, self._structure.endpoint_rows(net) if rows is None else rows
        )
