"""Table 2: relocation overheads drive a consistent relocation-cost model."""

import numpy as np
import pytest

from repro.casestudy import TABLE2_RELOCATION, TASK_KINDS
from repro.devices import Device, DeviceNetwork
from repro.sim import RelocationCostModel


def _net():
    devices = [
        Device(uid=0, speed=1.0, position=(0.0, 0.0)),
        Device(uid=1, speed=1.0, position=(100.0, 0.0)),
    ]
    bw = np.full((2, 2), 1000.0)
    np.fill_diagonal(bw, np.inf)
    return DeviceNetwork(devices, bw, np.zeros((2, 2)))


def test_table2_relocation():
    model = RelocationCostModel(
        TABLE2_RELOCATION, device_types={0: "A", 1: "C"}
    )

    costs = {kind: model.cost_ms(kind, _net(), 0, 1) for kind in TASK_KINDS}
    print("relocation cost A->C (ms):", {k: round(v, 2) for k, v in costs.items()})
    # Camera relocation dominates (Table 2: 72 MB static data, ~4 s startup).
    assert costs["camera"] > costs["lidar"]
    assert costs["camera"] > costs["cav_fusion"]
    # All costs positive and finite.
    assert all(np.isfinite(v) and v > 0 for v in costs.values())
