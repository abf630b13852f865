"""Golden fixed points: ``tests/golden/digests.json`` pins bytes, not prose.

The file holds sha256 digests of seeded trained weights and of canonical
quick-scale experiment reports, next to the NumPy version and BLAS build
they were recorded under.  ``golden.check(section, name, payload)``
compares; ``REPRO_GOLDEN=update`` records instead (refresh on purpose,
and review every changed line as a claim that those bytes moved).

Entries that go through ``np.matmul`` (Placeto, and every report that
trains it) depend on the BLAS build, so on another environment they are
not compared and say so (a warning naming both environments; ``foreign``
is the reason, for callers that would rather skip); ``portable=True``
entries run the row-invariant einsum kernel and are compared everywhere.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import warnings

import numpy as np
import pytest

DIGESTS = pathlib.Path(__file__).resolve().parent / "tests" / "golden" / "digests.json"


def environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


class Golden:
    def __init__(self) -> None:
        self.recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.update = os.environ.get("REPRO_GOLDEN") == "update"
        recorded_env, here = self.recorded.get("environment"), environment()
        self.foreign = (
            None
            if self.update or recorded_env == here
            else f"digests recorded under {recorded_env}, running under {here}"
        )

    def check(self, section: str, name: str, payload: bytes, portable: bool = False) -> None:
        """Hold ``payload`` to its recorded digest (or record it)."""
        digest = hashlib.sha256(payload).hexdigest()
        if self.update:
            self.recorded["environment"] = environment()
            self.recorded.setdefault(section, {})[name] = digest
            DIGESTS.parent.mkdir(exist_ok=True)
            DIGESTS.write_text(json.dumps(self.recorded, indent=1, sort_keys=True) + "\n")
            return
        if self.foreign and not portable:
            warnings.warn(f"golden digest {section}/{name} NOT CHECKED: {self.foreign}")
            return
        assert digest == self.recorded[section][name], (
            f"{section}/{name} moved off its golden digest; if the floats changed on "
            "purpose, refresh with REPRO_GOLDEN=update (see the verify skill)"
        )


@pytest.fixture(scope="session")
def golden() -> Golden:
    return Golden()
