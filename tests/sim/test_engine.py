"""Discrete-event engine tests."""

import pytest

from repro.sim import Simulation


class TestSimulation:
    def test_events_run_in_time_order(self):
        sim = Simulation()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        assert sim.run() == 3.0
        assert log == ["a", "b", "c"]

    def test_fifo_tie_breaking(self):
        sim = Simulation()
        log = []
        for tag in "abc":
            sim.schedule(1.0, lambda t=tag: log.append(t))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_callbacks_can_schedule(self):
        sim = Simulation()
        log = []

        def first():
            log.append(sim.now)
            sim.schedule(2.5, lambda: log.append(sim.now))

        sim.schedule(1.0, first)
        assert sim.run() == 3.5
        assert log == [1.0, 3.5]

    def test_schedule_at_absolute(self):
        sim = Simulation()
        times = []
        sim.schedule_at(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulation().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulation()
        sim.schedule(2.0, lambda: sim.schedule_at(1.0, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_runaway_loop_guard(self):
        sim = Simulation()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(RuntimeError, match="events"):
            sim.run(max_events=100)

    def test_empty_run(self):
        assert Simulation().run() == 0.0
