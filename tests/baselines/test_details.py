"""Targeted tests for baseline internals: insertion slots, feature maps."""

import numpy as np
import pytest

from repro.baselines.heft import _earliest_slot
from repro.baselines.placeto import PlacetoLayout


class TestInsertionSlot:
    def test_empty_device(self):
        assert _earliest_slot([], ready=3.0, duration=2.0) == 3.0

    def test_gap_before_first_interval(self):
        assert _earliest_slot([(5.0, 8.0)], ready=0.0, duration=4.0) == 0.0

    def test_gap_too_small_falls_through(self):
        assert _earliest_slot([(2.0, 8.0)], ready=0.0, duration=4.0) == 8.0

    def test_insertion_between_intervals(self):
        busy = [(0.0, 2.0), (6.0, 9.0)]
        assert _earliest_slot(busy, ready=0.0, duration=3.0) == 2.0

    def test_insertion_respects_ready_time(self):
        busy = [(0.0, 2.0), (6.0, 9.0)]
        # Gap 2..6 exists but task only ready at 5: 5+3 > 6 -> after last.
        assert _earliest_slot(busy, ready=5.0, duration=3.0) == 9.0

    def test_ready_inside_gap(self):
        busy = [(0.0, 2.0), (10.0, 12.0)]
        assert _earliest_slot(busy, ready=4.0, duration=3.0) == 4.0

    def test_after_all_intervals(self):
        busy = [(0.0, 5.0)]
        assert _earliest_slot(busy, ready=1.0, duration=10.0) == 5.0


class TestPlacetoFeatures:
    def test_indicator_columns(self, diamond_problem):
        placed = np.array([True, True, False, False])
        feats = PlacetoLayout(diamond_problem).features([0, 1, 2, 2], current_node=2, placed=placed)
        # Column 3: is-current (only node 2); column 4: placed flags.
        current_col = feats[:, 3]
        assert current_col[2] > 0
        assert (current_col[[0, 1, 3]] == 0).all()
        placed_col = feats[:, 4]
        assert placed_col[0] > 0 and placed_col[1] > 0
        assert placed_col[2] == 0 and placed_col[3] == 0

    def test_no_device_capability_features(self, diamond_problem):
        """Placeto's features must be identical across networks with
        different device speeds — its documented blind spot."""
        import copy

        from repro.core import PlacementProblem
        from repro.devices import Device, DeviceNetwork

        g = diamond_problem.graph
        placed = np.zeros(4, dtype=bool)

        def features_for(speed_scale):
            devices = [
                Device(uid=i, speed=s * speed_scale, supports=d.supports)
                for i, (s, d) in enumerate(
                    zip([1.0, 2.0, 4.0], diamond_problem.network.devices)
                )
            ]
            bw = np.full((3, 3), 10.0)
            np.fill_diagonal(bw, np.inf)
            net = DeviceNetwork(devices, bw, np.zeros((3, 3)))
            problem = PlacementProblem(g, net)
            return PlacetoLayout(problem).features([0, 0, 0, 2], 0, placed)

        f1, f2 = features_for(1.0), features_for(10.0)
        # Normalized per instance, a uniform speed change is invisible.
        np.testing.assert_allclose(f1, f2)
