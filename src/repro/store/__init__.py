"""Content-addressed run/artifact store (see :mod:`repro.store.runstore`).

Besides the :class:`RunStore` class itself, this package owns the
*process-wide active store*: the slot the shard orchestrator (and the
``REPRO_STORE`` environment variable) configure so that store-aware
memoization — the case-study trace cache, ``ExecutionBackend.compute``
stage memoization — transparently persists across processes.  When no
store is active those layers fall back to in-process caching only, so
plain runs and the test suite never touch the filesystem implicitly.
"""

from __future__ import annotations

import os
from typing import Optional

from .runstore import CorruptEntryError, RunStore, canonical_key, code_fingerprint, fingerprint

__all__ = [
    "CorruptEntryError",
    "RunStore",
    "active_store",
    "canonical_key",
    "code_fingerprint",
    "fingerprint",
    "set_active_store",
]

# The process-wide store slot, tri-state: a RunStore, None (explicitly
# disabled, even if $REPRO_STORE is set), or _UNRESOLVED (lazily resolve
# from $REPRO_STORE on first use).
_UNRESOLVED = object()
_ACTIVE: object = _UNRESOLVED


def set_active_store(store) -> object:
    """Install the process-wide store; returns the *previous slot state*.

    Pass the return value back to a later ``set_active_store`` to
    restore exactly the state that was saved — including the
    "unresolved, fall back to ``REPRO_STORE``" state, which must survive
    a temporary installation (e.g. for the duration of a shard run).
    Passing ``None`` explicitly disables store-backed memoization even
    when ``REPRO_STORE`` is set.
    """
    global _ACTIVE
    if store is not None and store is not _UNRESOLVED and not isinstance(store, RunStore):
        raise TypeError(f"active store must be a RunStore or None, got {type(store)!r}")
    previous = _ACTIVE
    _ACTIVE = store
    return previous


def active_store() -> Optional[RunStore]:
    """The process-wide store, if any (env ``REPRO_STORE`` as fallback)."""
    global _ACTIVE
    if _ACTIVE is _UNRESOLVED:
        path = os.environ.get("REPRO_STORE")
        _ACTIVE = RunStore(path) if path else None
    return _ACTIVE if isinstance(_ACTIVE, RunStore) else None
