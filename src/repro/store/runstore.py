"""Content-addressed artifact store for runs and derived artifacts.

A :class:`RunStore` maps ``(kind, key)`` to a pickled value on disk,
where ``kind`` is a short namespace string ("cell", "trace", "stage")
and ``key`` is any JSON-serializable mapping.  The address of an entry
is the SHA-256 fingerprint of the canonical JSON encoding of the key,
salted with the :func:`code_fingerprint` of the installed ``repro``
sources — so a value produced by one code version can never be silently
served to another (it simply misses; the shard layer adds an explicit
stale-manifest error on top for a clean message).

Two store instances pointed at the same directory — in two processes,
two terminals, or two machines sharing a filesystem — see each other's
entries: writes are atomic (``os.replace`` of a same-directory temp
file), entries are immutable once written, and a key's value is a pure
function of the key under the repo's determinism contract, so
double-writes by racing producers are byte-equivalent and harmless.
This file-level visibility is the entire shard transport: ``repro shard
run`` publishes results by writing cells, ``repro shard merge`` reads
them back, and moving a shard to another machine is just copying the
store directory.

An entry file is the pickle behind a header of its length and SHA-256
digest.  A file that fails the header check (truncated, a flipped bit)
is never unpickled: :meth:`RunStore.load` moves it aside and raises
:class:`CorruptEntryError`, and the memoizing callers recompute it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import pickle
import struct
from typing import Any, Callable, Mapping

from ..telemetry import metrics

__all__ = [
    "CorruptEntryError",
    "RunStore",
    "canonical_key",
    "code_fingerprint",
    "fingerprint",
]


_HEADER = struct.Struct(">Q32s")  # an entry's header: payload length, payload SHA-256


class CorruptEntryError(ValueError):
    """A store entry's bytes do not match their header; the file was moved aside."""


def canonical_key(key: Mapping[str, Any]) -> str:
    """Canonical JSON encoding of a key mapping (sorted, compact).

    Tuples encode as JSON arrays, so ``(0, 1)`` and ``[0, 1]`` address
    the same entry — convenient for seed-stream keys, which circulate as
    tuples in code and as lists in manifests.
    """
    return json.dumps(key, sort_keys=True, separators=(",", ":"), default=_encode)


def _encode(value: Any):
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"store keys must be JSON-serializable, got {type(value).__name__}")


def fingerprint(key: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical encoding of ``key``."""
    return hashlib.sha256(canonical_key(key).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Fingerprint of the installed ``repro`` package sources.

    Hashes every ``*.py`` file under the package directory (relative
    path + contents, in sorted order).  Baked into every store address
    and every shard manifest: results computed by one version of the
    code are invisible to any other version.
    """
    import repro

    package_dir = pathlib.Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(str(path.relative_to(package_dir)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class RunStore:
    """Content-addressed ``(kind, key) -> pickled value`` directory store.

    Hits, misses and writes count in the registry's process-wide
    ``store.*`` counters.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = pathlib.Path(root)
        self._salt = code_fingerprint()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunStore({str(self.root)!r})"

    def address(self, kind: str, key: Mapping[str, Any]) -> str:
        """The entry's content address (code-salted key fingerprint)."""
        return fingerprint({"__code__": self._salt, "__kind__": kind, **key})

    def path(self, kind: str, key: Mapping[str, Any]) -> pathlib.Path:
        address = self.address(kind, key)
        return self.root / kind / address[:2] / f"{address}.pkl"

    def has(self, kind: str, key: Mapping[str, Any]) -> bool:
        return self.path(kind, key).exists()

    def load(self, kind: str, key: Mapping[str, Any]) -> Any:
        """Unpickle the stored value: KeyError, with the address, if absent;
        :class:`CorruptEntryError` if its bytes fail the header check (the
        file is moved aside first, so the entry then reads as absent)."""
        path = self.path(kind, key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            metrics().counter("store.misses").inc()
            raise KeyError(
                f"store entry {kind}/{self.address(kind, key)[:12]} not found "
                f"under {self.root}"
            ) from None
        payload = blob[_HEADER.size :]
        if len(blob) < _HEADER.size or _HEADER.unpack_from(blob) != (
            len(payload),
            hashlib.sha256(payload).digest(),
        ):
            metrics().counter("store.corrupt").inc()
            aside = path.with_name(f"{path.name}.corrupt-{os.getpid()}")
            try:
                os.replace(path, aside)
            except FileNotFoundError:  # a racing reader moved it first
                pass
            raise CorruptEntryError(
                f"store entry {kind}/{self.address(kind, key)[:12]} under {self.root} fails "
                f"its length/sha256 check; moved aside to {aside.name}"
            )
        metrics().counter("store.hits").inc()
        return pickle.loads(payload)

    def save(self, kind: str, key: Mapping[str, Any], value: Any) -> pathlib.Path:
        """Atomically persist ``value``; concurrent same-key writers are safe.

        Entries are immutable: if the key is already present the existing
        bytes win (a racing producer computed the same value under the
        determinism contract, so there is nothing to reconcile).
        """
        path = self.path(kind, key)
        if path.exists():
            return path
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.write_bytes(_HEADER.pack(len(payload), hashlib.sha256(payload).digest()) + payload)
        os.replace(tmp, path)
        metrics().counter("store.writes").inc()
        return path

    def get_or_create(
        self, kind: str, key: Mapping[str, Any], producer: Callable[[], Any]
    ) -> Any:
        """Memoize ``producer()`` under ``(kind, key)``; a corrupt entry
        is recomputed and republished."""
        try:
            return self.load(kind, key)
        except (KeyError, CorruptEntryError):
            value = producer()
            self.save(kind, key, value)
            return value
