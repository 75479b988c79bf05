"""Helper-pool lifecycle and fallbacks of ``repro.runtime.fanout``.

``run_blocks`` must return ``[task(p) for p in payloads]`` whatever
happens to its helpers: a helper that dies mid-call, a call that does
not pickle and helpers that never come up all leave the caller to
compute the blocks itself.  The helper count is forced to one, so the
tests fan out on a one-core machine too.
"""

from __future__ import annotations

import multiprocessing
import os
import time

from repro.runtime import fanout, telemetry
from repro.runtime.telemetry import TelemetrySession


def square_slowly(x: int) -> int:
    time.sleep(0.1)
    return x * x


def square_or_die_in_helper(x: int) -> int:
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return square_slowly(x)


def call(function):
    return function()


def square_traced(x: int) -> int:
    with telemetry.span("test.block", x=x):
        time.sleep(0.01)
        telemetry.counter_inc("test.blocks")
        telemetry.observe("test.x", x)
    return x * x


def tag_with_pid(x: int) -> tuple[int, int]:
    time.sleep(0.002)
    return x, os.getpid()


def _run(task, payloads):
    session = TelemetrySession()
    with telemetry.activate(session):
        outputs = fanout.run_blocks(task, payloads)
    return outputs, session.metrics.snapshot()["counters"]


def test_helper_and_caller_split_the_blocks(one_helper):
    _run(square_slowly, [0, 1])  # the helper imports this module
    outputs, counters = _run(square_slowly, list(range(8)))
    assert outputs == [x * x for x in range(8)]
    assert 0 < counters["fanout.helper_blocks"] < 8
    assert fanout._POOL is not None and fanout._POOL.alive()


def test_helper_telemetry_joins_the_callers_session(one_helper):
    _run(square_slowly, [0, 1])
    session = TelemetrySession()
    with telemetry.activate(session):
        with telemetry.span("test.call"):
            outputs = fanout.run_blocks(square_traced, list(range(8)))
    assert outputs == [x * x for x in range(8)]
    snapshot = session.metrics.snapshot()
    assert snapshot["counters"]["test.blocks"] == 8
    assert snapshot["histograms"]["test.x"]["count"] == 8
    assert snapshot["histograms"]["test.x"]["max"] == 7
    records = session.tracer.records()
    (call_span,) = [r for r in records if r.name == "test.call"]
    blocks = [r for r in records if r.name == "test.block"]
    assert sorted(r.tags["x"] for r in blocks) == list(range(8))
    assert {r.parent_id for r in blocks} == {call_span.span_id}
    helped = [r for r in blocks if r.tags.get("helper") == "h00"]
    assert len(helped) == snapshot["counters"]["fanout.helper_blocks"] > 0


def test_untraced_call_sends_no_telemetry(one_helper, monkeypatch):
    _run(square_slowly, [0, 1])

    def refuse(record, helper):
        raise AssertionError(f"{helper} sent telemetry")

    monkeypatch.setattr(fanout, "_adopt", refuse)
    outputs = fanout.run_blocks(tag_with_pid, list(range(40)))
    assert [x for x, _ in outputs] == list(range(40))
    assert any(pid != os.getpid() for _, pid in outputs)


def test_helper_death_mid_call_is_recomputed(one_helper):
    _run(square_slowly, [0, 1])
    pool = fanout._POOL
    outputs, counters = _run(square_or_die_in_helper, list(range(8)))
    assert outputs == [x * x for x in range(8)]
    assert counters["fanout.recomputed"] >= 1
    # The broken pool is discarded; the next call starts a fresh one.
    assert fanout._POOL is None
    outputs, _ = _run(square_slowly, list(range(4)))
    assert outputs == [x * x for x in range(4)]
    assert fanout._POOL is not pool and fanout._POOL.alive()


def test_claims_stress_more_helpers_than_cores(monkeypatch):
    # Three helpers and the caller race for 120 small blocks; a lost
    # update of the shared claim range would deliver a block twice.
    monkeypatch.setattr(fanout, "_helper_count", lambda: 3)
    fanout._shutdown()
    try:
        for _ in range(3):
            outputs, counters = _run(tag_with_pid, list(range(120)))
            assert [x for x, _ in outputs] == list(range(120))
            remote = sum(pid != os.getpid() for _, pid in outputs)
            assert counters.get("fanout.helper_blocks", 0) == remote
    finally:
        fanout._shutdown()


def test_unpicklable_call_runs_inline(one_helper, monkeypatch):
    def refuse(count):
        raise AssertionError("started a helper")

    monkeypatch.setattr(fanout, "_Helpers", refuse)
    assert fanout.run_blocks(call, [lambda: 1, lambda: 2]) == [1, 2]


def test_helpers_that_never_come_up_are_given_up(one_helper, monkeypatch):
    monkeypatch.setattr(fanout, "_BOOT_TIMEOUT", 0.0)
    started = []
    real = fanout._Helpers

    def counted(count):
        started.append(count)
        return real(count)

    monkeypatch.setattr(fanout, "_Helpers", counted)
    for _ in range(2):
        outputs, counters = _run(square_slowly, [1, 2, 3])
        assert outputs == [1, 4, 9]
        assert "fanout.helper_blocks" not in counters
    assert started == [1]
    assert not fanout._POOL.booted
