"""MDP environment tests (paper §4.1, §4.2.3)."""

import numpy as np
import pytest
from gnn_reference import node_index

from repro.core import (
    GpNetBuilder,
    PlacementEnv,
    PlacementProblem,
    default_episode_length,
    random_placement,
)
from repro.devices import Device, DeviceNetwork
from repro.graphs import TaskGraph
from repro.runtime import PlacementEvaluator
from repro.sim import MakespanObjective, TotalCostObjective


def make_env(problem, **kwargs):
    return PlacementEnv(problem, MakespanObjective(), **kwargs)


class TestSpaces:
    def test_state_and_action_space_sizes(self, diamond_problem):
        # |A| = sum |D_i| = 10; |S| = prod |D_i| = 27.
        assert diamond_problem.num_actions == 10
        assert diamond_problem.state_space_size() == 27.0

    def test_default_episode_length(self, diamond_problem):
        assert default_episode_length(diamond_problem) == 8

    def test_zero_episode_length_rejected(self, diamond_problem):
        # An explicit 0 is an error, not a request for the 2·|V| default.
        with pytest.raises(ValueError, match="episode_length"):
            make_env(diamond_problem, episode_length=0)


class TestRandomPlacementStream:
    """``random_placement`` draws a task's device with one bounded-integer
    draw — the draw ``Generator.choice`` makes on a list.  Every seeded
    report in the repo starts from these placements, so a NumPy whose
    ``choice`` consumes the stream differently must fail here, not move
    them silently."""

    @staticmethod
    def problem_with_set_sizes(sizes, rng):
        """Task ``i`` needs hardware type ``i + 1``, which a random
        ``sizes[i]`` of the 12 devices support."""
        supports = [{0} for _ in range(12)]
        for i, size in enumerate(sizes):
            for k in rng.choice(12, size=size, replace=False):
                supports[int(k)].add(i + 1)
        devices = [Device(uid=k, speed=1.0, supports=frozenset(s)) for k, s in enumerate(supports)]
        bw = np.full((12, 12), 10.0)
        np.fill_diagonal(bw, np.inf)
        graph = TaskGraph((1.0,) * len(sizes), {}, tuple(range(1, len(sizes) + 1)))
        return PlacementProblem(graph, DeviceNetwork(devices, bw, np.zeros((12, 12))))

    def test_same_values_and_stream_as_choice(self):
        shapes = np.random.default_rng(0)
        for seed in range(50):
            # Always a singleton and a full set: choice draws for both.
            sizes = [1, 12, *shapes.integers(1, 13, size=int(shapes.integers(1, 9)))]
            problem = self.problem_with_set_sizes(sizes, shapes)
            assert [len(f) for f in problem.feasible_sets] == [int(s) for s in sizes]
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                placement = random_placement(problem, rng)
                expected = tuple(int(ref.choice(list(f))) for f in problem.feasible_sets)
                assert placement == expected
                assert all(type(d) is int for d in placement)
                assert rng.bit_generator.state == ref.bit_generator.state


class TestReset:
    def test_reset_with_placement(self, diamond_problem):
        env = make_env(diamond_problem)
        state = env.reset(initial_placement=[0, 1, 2, 2])
        assert state.placement == (0, 1, 2, 2)
        assert state.step == 0 and state.last_moved_task is None

    def test_reset_random(self, diamond_problem):
        env = make_env(diamond_problem)
        state = env.reset(rng=np.random.default_rng(0))
        diamond_problem.validate_placement(state.placement)

    def test_reset_requires_source(self, diamond_problem):
        with pytest.raises(ValueError):
            make_env(diamond_problem).reset()

    def test_state_before_reset_raises(self, diamond_problem):
        with pytest.raises(RuntimeError):
            _ = make_env(diamond_problem).state

    def test_objective_value_matches_simulator(self, diamond_problem):
        env = make_env(diamond_problem)
        state = env.reset(initial_placement=[0, 0, 0, 2])
        expected = MakespanObjective().evaluate(diamond_problem.cost_model, [0, 0, 0, 2])
        assert state.objective_value == pytest.approx(expected)


class TestStep:
    def test_step_applies_relocation(self, diamond_problem):
        env = make_env(diamond_problem)
        state = env.reset(initial_placement=[0, 0, 0, 2])
        node = node_index(state.gpnet, 1, 2)
        next_state, reward, done = env.step(node)
        assert next_state.placement == (0, 2, 0, 2)
        assert next_state.last_moved_task == 1
        assert not done

    def test_reward_is_objective_improvement(self, diamond_problem):
        env = make_env(diamond_problem)
        state = env.reset(initial_placement=[0, 0, 0, 2])
        node = node_index(state.gpnet, 2, 1)
        before = state.objective_value
        next_state, reward, _ = env.step(node)
        assert reward == pytest.approx(before - next_state.objective_value)

    def test_episode_terminates(self, diamond_problem):
        env = make_env(diamond_problem, episode_length=3)
        state = env.reset(initial_placement=[0, 0, 0, 2])
        for step in range(3):
            mask = env.action_mask()
            node = int(np.flatnonzero(mask)[0])
            state, _, done = env.step(node)
        assert done and state.step == 3

    def test_invalid_action_rejected(self, diamond_problem):
        env = make_env(diamond_problem)
        env.reset(initial_placement=[0, 0, 0, 2])
        with pytest.raises(ValueError):
            env.step(10_000)

    def test_alternative_objective(self, diamond_problem):
        env = PlacementEnv(diamond_problem, TotalCostObjective())
        state = env.reset(initial_placement=[2, 2, 2, 2])
        # co-located on fastest device: cost = sum(w) with zero comm
        assert state.objective_value == pytest.approx(sum(diamond_problem.cost_model.W[:, 2]))


class TestMasks:
    def test_pivots_masked(self, diamond_problem):
        env = make_env(diamond_problem)
        state = env.reset(initial_placement=[0, 0, 0, 2])
        mask = env.action_mask()
        assert not mask[state.gpnet.is_pivot].any()

    def test_last_task_masked(self, diamond_problem):
        env = make_env(diamond_problem)
        state = env.reset(initial_placement=[0, 0, 0, 2])
        node = node_index(state.gpnet, 1, 2)
        state, _, _ = env.step(node)
        mask = env.action_mask()
        assert not mask[state.gpnet.task_of == 1].any()

    def test_degenerate_instance_still_has_action(self, chain_problem):
        # 2 tasks x 2 devices; after moving task 0, both its options are
        # masked (repeat) and pivots are masked -> task 1's non-pivot
        # option must remain.
        env = make_env(chain_problem)
        state = env.reset(initial_placement=[0, 0])
        state, _, _ = env.step(node_index(state.gpnet, 0, 1))
        mask = env.action_mask()
        assert mask.sum() == 1
        task, dev = state.gpnet.action_of(int(np.flatnonzero(mask)[0]))
        assert task == 1 and dev == 1

    @pytest.mark.parametrize("num_devices", [1, 2])
    def test_masks_relax_repeat_task_then_no_op(self, num_devices):
        # One task: once it moved, the repeat-task mask leaves nothing and
        # relaxes to its non-pivot option; on one device every option is
        # its pivot, so the no-op mask relaxes to all nodes.
        devices = [Device(uid=d, speed=1.0) for d in range(num_devices)]
        network = DeviceNetwork(devices, np.full((num_devices,) * 2, np.inf),
                                np.zeros((num_devices,) * 2))
        env = make_env(PlacementProblem(TaskGraph((2.0,), {}), network))
        state = env.reset(initial_placement=[0])
        state, _, _ = env.step(node_index(state.gpnet, 0, num_devices - 1))
        assert state.last_moved_task == 0
        expected = [True] if num_devices == 1 else (~state.gpnet.is_pivot).tolist()
        assert env.action_mask().tolist() == expected

    def test_fig2_action_space(self, chain_problem):
        # Fig. 2: 2-task graph, both devices feasible -> 4 actions.
        env = make_env(chain_problem)
        state = env.reset(initial_placement=[0, 0])
        assert state.num_actions == 4
        assert state.gpnet.is_pivot.sum() == 2
        # The two no-op actions (a0, a1 at M0 in the paper) are masked.
        assert env.action_mask().sum() == 2


class TestValidateOnce:
    """A step validates its placement once: the timeline lookup's miss.
    The builder takes that validated tuple (it *is* the timeline's
    ``placement``) and the value lookup finds it in the timeline cache."""

    @staticmethod
    def counting(monkeypatch):
        calls = []
        shipped = PlacementProblem.validate_placement

        def validate_placement(self, placement):
            calls.append(placement)
            return shipped(self, placement)

        monkeypatch.setattr(PlacementProblem, "validate_placement", validate_placement)
        return calls

    def test_one_validation_per_step(self, diamond_problem, monkeypatch):
        calls = self.counting(monkeypatch)
        env = make_env(diamond_problem, episode_length=100)
        env.reset(rng=np.random.default_rng(0))
        seen, rng, fresh = {env.state.placement}, np.random.default_rng(1), 0
        for _ in range(12):
            gpnet = env.state.gpnet
            actions = np.flatnonzero(env.action_mask())
            nexts = {}
            for a in actions:
                task, device = gpnet.action_of(int(a))
                placement = list(env.state.placement)
                placement[task] = device
                nexts[int(a)] = tuple(placement)
            unseen = [a for a in nexts if nexts[a] not in seen]
            action = int(rng.choice(unseen or list(nexts)))
            calls.clear()
            env.step(action)
            # A placement seen before is served from the caches unvalidated.
            assert len(calls) == (1 if unseen else 0), calls
            fresh += bool(unseen)
            seen.add(env.state.placement)
        assert fresh >= 8  # not vacuous

    BAD = {
        "infeasible": ([0, 1, 0, 0], "task 3 placed on infeasible device index 0"),
        "out-of-range": ([0, 1, 0, 7], "task 3 placed on infeasible device index 7"),
        "float": ([0, 1.0, 0, 2], "task 1: device index must be an int, not 1.0"),
        "string": ([0, "1", 0, 2], "task 1: device index must be an int, not '1'"),
        # ``__index__`` is there, but the call raises ``TypeError``.
        "nested-array": (
            [np.array([0]), 1, 0, 2], "task 0: device index must be an int, not array([0])"
        ),
        "short": ([0, 1, 0], "placement length 3 != 4 tasks"),
    }

    @pytest.mark.parametrize("name", sorted(BAD))
    def test_every_entry_still_refuses_a_bad_placement(self, diamond_problem, name):
        # With the timeline of the valid placement next to it cached and
        # passed along: an equal-comparing ``1.0`` is not its tuple.
        bad, message = self.BAD[name]
        with pytest.raises(ValueError) as direct:
            diamond_problem.validate_placement(bad)
        assert str(direct.value) == message
        evaluator = PlacementEvaluator(diamond_problem, MakespanObjective())
        builder = GpNetBuilder(diamond_problem)
        good = (0, 1, 0, 2)
        timeline = evaluator.timeline(good)
        prev = builder.build(timeline.placement, timeline=timeline)
        entries = [
            lambda: PlacementEvaluator(diamond_problem, MakespanObjective()).evaluate(bad),
            lambda: PlacementEvaluator(diamond_problem, MakespanObjective()).timeline(bad),
            lambda: builder.build(bad, timeline=timeline),
            lambda: builder.update(prev, bad, 1, timeline=timeline),
            lambda: builder.build(bad),
        ]
        for entry in entries:
            with pytest.raises(ValueError) as refused:
                entry()
            assert str(refused.value) == message
