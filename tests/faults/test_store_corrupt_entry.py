"""Fault harness: a damaged store entry is named, never unpickled.

Two faults a store directory meets in practice: a truncated entry (a
copy or a writer cut short) and a flipped byte (disk or transfer
corruption; the pickle may still load, as a wrong value).  Either way
``RunStore.load`` must refuse the bytes by kind and address and move the
file aside; the memoizing callers — ``get_or_create``, the shard cell
scans, the trace cache — recompute and republish the entry, and a merge,
which never computes, refuses it.  Nothing here blocks, so no test needs
a deadline of its own.
"""

import pytest

import repro.casestudy.trace as trace_mod
from repro.parallel import InlineBackend, MergeBackend, MissingCellError, ShardBackend
from repro.store import CorruptEntryError, RunStore, set_active_store
from repro.telemetry import metrics

KEY = {"i": 0}
# A pickled bytes object carries its data raw, so a flipped byte inside
# it still unpickles — as a different value.
VALUE = bytes(range(256))
RUN = "corrupt-entry-run"


def truncate(path):
    path.write_bytes(path.read_bytes()[:-30])


def flip_byte(path):
    blob = bytearray(path.read_bytes())
    blob[-20] ^= 0xFF
    path.write_bytes(bytes(blob))


FAULTS = [truncate, flip_byte]


def _cell(x):
    return VALUE * x


@pytest.mark.parametrize("damage", FAULTS)
def test_load_refuses_the_entry_by_kind_and_address(tmp_path, damage):
    store = RunStore(tmp_path)
    path = store.save("cell", KEY, VALUE)
    damage(path)
    before = metrics().counter("store.corrupt").value
    with pytest.raises(CorruptEntryError, match=rf"cell/{store.address('cell', KEY)[:12]}"):
        store.load("cell", KEY)
    assert metrics().counter("store.corrupt").value == before + 1
    # Moved aside, kept for inspection: the entry now reads as absent.
    assert not store.has("cell", KEY)
    assert [p.name.split(".corrupt-")[0] for p in path.parent.glob("*.corrupt-*")] == [path.name]


@pytest.mark.parametrize("damage", FAULTS)
def test_get_or_create_recomputes_and_republishes(tmp_path, damage):
    store = RunStore(tmp_path)
    damage(store.save("stage", KEY, VALUE))
    calls = []
    assert store.get_or_create("stage", KEY, lambda: calls.append(1) or VALUE) == VALUE
    assert calls == [1]
    assert RunStore(tmp_path).load("stage", KEY) == VALUE  # republished whole


@pytest.mark.parametrize("damage", FAULTS)
def test_shard_scan_recomputes_a_corrupt_cell(tmp_path, damage):
    store = RunStore(tmp_path)
    items = [1, 2, 3]
    expected = [VALUE, VALUE * 2, VALUE * 3]
    assert ShardBackend(store, RUN, 1, 0).fanout(_cell, items) == expected
    cell = ShardBackend(store, RUN, 1, 0)._cell_key(f"{__name__}._cell", 0, 1, len(items))
    damage(store.path("cell", cell))
    # A second shard run of the same plan (a peer, or a re-run) scans the
    # store: the damaged cell is recomputed and republished.
    assert ShardBackend(store, RUN, 1, 0).fanout(_cell, items) == expected
    assert store.load("cell", cell) == VALUE * 2


@pytest.mark.parametrize("damage", FAULTS)
def test_merge_refuses_a_corrupt_cell(tmp_path, damage):
    store = RunStore(tmp_path)
    ShardBackend(store, RUN, 1, 0).fanout(_cell, [1, 2])
    cell = MergeBackend(store, RUN)._cell_key(f"{__name__}._cell", 0, 0, 2)
    damage(store.path("cell", cell))
    address = store.address("cell", cell)[:12]
    with pytest.raises(CorruptEntryError, match=rf"cell/{address}"):
        MergeBackend(store, RUN).fanout(_cell, [1, 2])
    # Moved aside: merging again reports the cell missing, never computes it.
    with pytest.raises(MissingCellError, match="missing 1/2 cell"):
        MergeBackend(store, RUN).fanout(_cell, [1, 2])


@pytest.mark.parametrize("damage", FAULTS)
def test_trace_cache_extracts_again(tmp_path, damage, monkeypatch):
    extractions = []

    def extract(config, stream, backend=None):
        extractions.append(stream)
        return ["scenario"]

    monkeypatch.setattr(trace_mod, "extract_trace_windowed", extract)
    monkeypatch.setattr(trace_mod, "_MEMO", type(trace_mod._MEMO)())
    config, stream = trace_mod.TraceConfig(), (7, 1)
    store = RunStore(tmp_path)
    previous = set_active_store(store)
    try:
        store.save("trace", trace_mod.trace_key(config, stream), ["scenario"])
        damage(store.path("trace", trace_mod.trace_key(config, stream)))
        scenarios, source = trace_mod.extract_trace_cached(
            config, stream, backend=InlineBackend()
        )
    finally:
        set_active_store(previous)
    assert (scenarios, source, extractions) == (["scenario"], "extracted", [stream])
    assert store.load("trace", trace_mod.trace_key(config, stream)) == ["scenario"]
