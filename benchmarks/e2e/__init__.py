"""Calibrated end-to-end benchmark of the GiPH reproduction.

``python -m benchmarks.e2e`` drives five closed-loop workloads through
the public functions of ``repro`` and a real ``repro serve`` daemon and
prints six end-to-end metrics per workload in machine-speed-normalised
("calibrated") time; ``--trace`` adds an outside-in layer trace.  See
``README.md`` in this directory for the metric definitions.

The program under test is the source tree of this checkout, so ``src/``
goes to the front of the import path — an installed ``repro`` must not
shadow it.
"""

import pathlib
import sys

_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
