"""Disabled-mode telemetry overhead: span() must be near-free.

The instrumentation contract that lets hot paths (gnn forward, the
evaluator batch loop) stay instrumented unconditionally: with telemetry
off, ``span()`` is one attribute check returning a shared no-op object.
Times a tight loop of disabled spans and gates the per-call cost, and
prints enabled-mode cost alongside.
"""

import time

from repro.telemetry import reset, set_enabled, span

CALLS = 200_000
# Generous CI gate (shared runners jitter); locally this lands well
# under 1 µs per disabled call.
MAX_DISABLED_US = 5.0


def time_span_loop(calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        with span("bench.overhead"):
            pass
    return time.perf_counter() - start


def test_disabled_span_overhead():
    previous = set_enabled(False)
    try:
        time_span_loop(1000)  # warm up
        disabled_s = time_span_loop(CALLS)
    finally:
        set_enabled(previous)

    set_enabled(True)
    try:
        reset()
        enabled_s = time_span_loop(CALLS)
    finally:
        set_enabled(previous)
        reset()

    disabled_us = disabled_s / CALLS * 1e6
    enabled_us = enabled_s / CALLS * 1e6
    print(
        f"\nspan() per call: disabled {disabled_us:.3f} us, "
        f"enabled {enabled_us:.3f} us ({CALLS} calls)"
    )
    assert disabled_us < MAX_DISABLED_US
