"""Windowed trace extraction: bit-identical to serial, any worker count.

PR-6 parallelizes the cold-store case-study trace extraction by
splitting the snapshot walk into contiguous windows fanned over the
direct-execution backends.  The contract — like the GNN vectorization
it rides with — is bitwise: the merged windowed trace equals the serial
trace scenario for scenario, for every window and worker count, with or
without the ``max_cases`` early stop.

Equality is pinned per scenario via ``pickle.dumps``: whole-list
pickles may legitimately differ because pickle memoizes the float
objects scenarios of one snapshot share (``time_s``), which changes the
byte stream without changing any value.
"""

import pickle

import numpy as np
import pytest

from repro.casestudy import TraceConfig, TrafficConfig, fit_latency_model
from repro.casestudy import trace as trace_mod
from repro.casestudy.trace import (
    extract_trace,
    extract_trace_cached,
    extract_trace_windowed,
    trace_key,
)
from repro.parallel import (
    ExecutionBackend,
    ExecutionBackendError,
    ForkBackend,
    InlineBackend,
    make_backend,
)

STREAM = (2024, 6)


def small_config(max_cases=None):
    return TraceConfig(
        traffic=TrafficConfig(
            grid_rows=3,
            grid_cols=3,
            num_vehicles=80,
            duration_s=60.0,
            cav_fraction=0.4,
        ),
        max_cases=max_cases,
        max_cavs_per_case=4,
    )


@pytest.fixture(scope="module")
def fit():
    return fit_latency_model()


@pytest.fixture(scope="module")
def serial(fit):
    scenarios = extract_trace(small_config(), np.random.default_rng(list(STREAM)), fit=fit)
    assert len(scenarios) >= 5  # the equality tests must compare something
    return scenarios


def assert_same_scenarios(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert pickle.dumps(got) == pickle.dumps(want)


class TestWindowedEqualsSerial:
    @pytest.mark.parametrize("num_windows", [1, 2, 3])
    def test_shard_counts(self, serial, num_windows):
        windowed = extract_trace_windowed(
            small_config(), STREAM, backend=InlineBackend(), num_windows=num_windows
        )
        assert_same_scenarios(windowed, serial)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_worker_counts(self, serial, workers):
        windowed = extract_trace_windowed(
            small_config(), STREAM, backend=make_backend(workers=workers)
        )
        assert_same_scenarios(windowed, serial)

    @pytest.mark.parametrize("num_windows", [2, 3])
    def test_capped_early_stop(self, fit, num_windows):
        config = small_config(max_cases=5)
        expected = extract_trace(config, np.random.default_rng(list(STREAM)), fit=fit)
        windowed = extract_trace_windowed(
            config, STREAM, backend=InlineBackend(), num_windows=num_windows
        )
        assert len(windowed) == len(expected) == 5
        assert_same_scenarios(windowed, expected)

    def test_more_windows_than_snapshots(self, serial):
        windowed = extract_trace_windowed(
            small_config(), STREAM, backend=InlineBackend(), num_windows=50
        )
        assert_same_scenarios(windowed, serial)


class _StoreConditionalBackend(ExecutionBackend):
    """Stand-in for shard/merge: anything that skips completed cells."""

    name = "shard"

    def fanout(self, fn, payloads, context=None):  # pragma: no cover
        raise AssertionError("must be rejected before any fan-out")


class TestBackendPolicy:
    def test_store_conditional_backend_rejected(self):
        with pytest.raises(ExecutionBackendError, match="direct-execution"):
            extract_trace_windowed(
                small_config(), STREAM, backend=_StoreConditionalBackend()
            )


class TestCachedWorkerSoundness:
    def test_worker_count_not_in_cache_key(self):
        key = trace_key(small_config(), STREAM)
        assert "workers" not in repr(key)
        assert key["stream"] == list(STREAM)

    def test_parallel_and_serial_entries_interchangeable(self, serial):
        """A parallel cold extraction serves later serial callers (and
        vice versa): worker count never enters the cache key."""
        trace_mod._MEMO.clear()
        parallel, source = extract_trace_cached(small_config(), STREAM, backend=ForkBackend(4))
        assert source == "extracted"
        assert_same_scenarios(parallel, serial)
        again, source = extract_trace_cached(small_config(), STREAM, backend=InlineBackend())
        assert source == "memory"
        assert again is parallel
