"""Fault harness, generated scenarios: the pooled fast path equals the exact simulator.

Hypothesis draws whole :class:`ScenarioSpec` s — graph count and size,
connect and constraint probabilities, device count, churn bounds and
soft-event mix, late arrivals — and walks each one's
``scenario_states`` through a pooled :class:`PlacementSession`.  After
every event each live problem's pool evaluator must score random
feasible placements exactly as ``simulate(...).makespan`` does, one at a
time (``FastSimulator.run``) and as a batch (``FastSimulator.makespans``).
After every event the test also draws a noise level σ and scores the
live problems through a noisy :class:`MakespanObjective` evaluator, one
at a time and as a batch: the values and the rng's final state must
equal ``simulate(noise=σ)``'s under an identically seeded rng.
A network event retires every problem: its successor's evaluator is the
one :meth:`EvaluatorPool.retire` seats, on a simulator that
:meth:`FastSimulator.rebind` carried onto the new network, so those
successors are checked here too.  No scenario here was hand-written.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import RandomTaskEftPolicy
from repro.core import random_placement
from repro.devices.dynamics import ChurnConfig
from repro.scenarios.spec import ClusterSpec, ScenarioSpec, WorkloadSpec
from repro.runtime import PlacementEvaluator
from repro.serve.session import PlacementSession
from repro.sim import MakespanObjective
from repro.sim.executor import simulate

PLACEMENTS = 3  # per problem and event, one at a time and again as a batch
NOISE_LEVELS = (0.1, 0.5)  # σ, one drawn per event


@st.composite
def scenario_parts(draw):
    """Keyword arguments of a generated :class:`ScenarioSpec`: the test
    makes the spec, since validation may refuse it."""
    num_devices = draw(st.integers(1, 6))
    min_devices = draw(st.integers(1, num_devices))
    drift = draw(st.sampled_from([0.0, 0.3, 0.6]))
    churn = ChurnConfig(
        min_devices=min_devices,
        max_devices=draw(st.integers(min_devices, num_devices)),
        capacity_decay=draw(st.sampled_from([0.5, 1.0])),
        num_changes=draw(st.integers(0, 6)),
        bandwidth_drift_prob=drift,
        compute_slowdown_prob=draw(st.sampled_from([0.0, 0.4 - drift / 2])),
    )
    workload = WorkloadSpec(
        initial_graphs=draw(st.integers(1, 3)),
        num_tasks=draw(st.integers(1, 8)),
        connect_prob=draw(st.floats(0.0, 1.0)),
        constraint_prob=draw(st.floats(0.0, 1.0)),
        arrivals=draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 2)), max_size=2)),
    )
    cluster = ClusterSpec(num_devices=num_devices, support_prob=draw(st.floats(0.0, 1.0)))
    seed = draw(st.integers(0, 2**16))
    return dict(name="generated", seed=seed, workload=workload, cluster=cluster, churn=churn)


def assert_pool_scores_exactly(session, rng):
    for problem in session._problems:
        # Seated by the step (fresh, or a retired problem's successor):
        # fetching it must not build an evaluator of its own.
        assert id(problem) in session._pool._by_problem
        evaluator = session._pool.get(problem)
        assert evaluator._sim.problem is problem
        singles = [random_placement(problem, rng) for _ in range(PLACEMENTS)]
        batch = [random_placement(problem, rng) for _ in range(PLACEMENTS)]

        def exact(placement):
            return simulate(problem.graph, problem.network, placement, problem.cost_model).makespan

        assert [evaluator.evaluate(p) for p in singles] == [exact(p) for p in singles]
        assert evaluator.evaluate_many(batch).tolist() == [exact(p) for p in batch]


def assert_noisy_scores_exactly(session, rng):
    noise = float(rng.choice(NOISE_LEVELS))
    for problem in session._problems:
        placements = [random_placement(problem, rng) for _ in range(PLACEMENTS)]
        seed = int(rng.integers(2**32))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        evaluator = PlacementEvaluator(problem, MakespanObjective(noise, got_rng))
        got = [evaluator.evaluate(p) for p in placements]
        got += evaluator.evaluate_many(placements).tolist()
        want = [
            simulate(
                problem.graph, problem.network, p, problem.cost_model, noise, want_rng
            ).makespan
            for p in placements * 2
        ]
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(parts=scenario_parts(), placement_seed=st.integers(0, 2**16))
@example(  # device churn on a constrained workload, plus an arrival
    parts=dict(
        name="generated",
        seed=3,
        workload=WorkloadSpec(initial_graphs=2, num_tasks=6, arrivals=((2, 1),)),
        cluster=ClusterSpec(num_devices=5),
        churn=ChurnConfig(min_devices=3, max_devices=5, num_changes=4),
    ),
    placement_seed=0,
)
def test_pooled_evaluators_score_as_the_exact_simulator(parts, placement_seed):
    try:
        session = PlacementSession(
            ScenarioSpec(**parts), "task-eft", RandomTaskEftPolicy(), episode_multiplier=1,
            oracle=False,
        )
    except ValueError as error:
        # A churn step with no add, no remove and no soft event to draw is
        # refused by name: by the spec when membership is fixed beyond the
        # removals the cluster allows, when materialized when the drawn
        # network has no device whose removal keeps every hardware type
        # covered.
        assert str(error).startswith(
            ("unrunnable churn:", "network_churn: no add/remove possible")
        ), error
        return
    rng = np.random.default_rng(placement_seed)
    while session.remaining:
        session.step()
        assert_pool_scores_exactly(session, rng)
        assert_noisy_scores_exactly(session, rng)
    assert len(session.steps) == session.num_events
