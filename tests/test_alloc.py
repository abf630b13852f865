"""The allocator policy ``import repro`` sets (``repro/_alloc.py``).

A GiPH search step frees 1-2 MB of NumPy temporaries; under glibc's
default thresholds that memory goes back to the OS and the next step
faults it in again (~380 minor faults a step for the loop below, ~3 300
per ``search_large`` op).  The loop runs in a fresh interpreter, so what
earlier tests freed cannot move glibc's dynamic thresholds for it.
"""

import ctypes
import json
import os
import pathlib
import platform
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

_CHILD = """
import json, resource
import repro
import numpy as np

def step():
    # ~2 MB a step: five (9, E) float arrays at E = 5 806, the edge half's size.
    arrays = [np.full((9, 5806), float(k)) for k in range(5)]
    return sum(float(a[0, 0]) for a in arrays)

faults = []
for i in range(13):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults[3:]))
"""


def _has_mallopt() -> bool:
    return platform.libc_ver()[0] == "glibc" and hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt: the policy is a no-op here")
def test_freed_step_temporaries_stay_mapped():
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    faults = json.loads(out.splitlines()[-1])
    assert len(faults) == 10
    # Trimmed and faulted back in, a step costs ~380 faults.
    assert max(faults) < 50, faults
