"""Fault harness: a fork worker that dies mid fan-out fails it by name.

The task SIGKILLs its own worker process.  The fan-out runs in a child
interpreter under a deadline this test enforces itself (the suite has no
timeout plugin), so a fan-out that hangs on the dead worker fails the
test instead of hanging the suite; the child's whole process group is
killed on the way out.
"""

import os
import pathlib
import signal
import subprocess
import sys

import pytest

import repro

DEADLINE_S = 20.0
SRC = pathlib.Path(repro.__file__).resolve().parents[1]

CHILD = """
import os, signal
from repro.parallel import ForkBackend

def task(index):
    if index == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return index

ForkBackend(2).fanout(task, range(2))
"""


def test_sigkilled_fork_worker_fails_the_fanout_by_name():
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = child.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail(f"the fan-out still hung {DEADLINE_S:.0f} s after its worker was killed")
    assert child.returncode != 0
    last = stderr.strip().splitlines()[-1]
    # Task 0 never returns; task 1 may or may not finish before the
    # death is seen, so 0 is always the first task left without a result.
    assert "ExecutionBackendError" in last and "task 0 of 2" in last, stderr
