"""Byte identity of the lockstep EM when its blocks run on helpers.

``fit_mixture_em_batch`` hands the row blocks of one call to spawned
helper processes (``repro.runtime.fanout``) as well as running some
itself.  Rows are independent and each block is deterministic, so a
fanned-out fit must reproduce the serial reference
(``tests/stats/serial_em_reference.py``) bit for bit, errors included.
The helper count is forced to one here, so the suite fans out on a
one-core machine too.  A traced fanned-out fit must also record what
an inline fit records: helpers send their blocks' spans and metrics
back to the caller.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.models.lvf2 import SKEW_NORMAL_FAMILY
from repro.models.norm2 import GAUSSIAN_FAMILY
from repro.runtime import fanout, telemetry
from repro.runtime.telemetry import TelemetrySession
from repro.stats.em import EMConfig, fit_mixture_em_batch
from tests.runtime.fanout_support import telemetry_shape
from tests.stats import test_em_batch as batch_tests


def _refuse(count):
    raise AssertionError(f"started {count} helper process(es)")


def _fanned_out(stack, family, **kwargs):
    """Fit with a session; return the results and helper-block count."""
    session = TelemetrySession()
    with telemetry.activate(session):
        results = fit_mixture_em_batch(stack, family, **kwargs)
    counters = session.metrics.snapshot()["counters"]
    return results, counters.get("fanout.helper_blocks", 0)


def _assert_matches_serial(stack, family, **kwargs):
    serial = batch_tests.serial_loop(
        stack,
        family,
        config=kwargs.get("config"),
        initials=kwargs.get("initials"),
    )
    results, helper_blocks = _fanned_out(stack, family, **kwargs)
    for index, (a, b) in enumerate(zip(serial, results, strict=True)):
        assert batch_tests.canon_result(a) == batch_tests.canon_result(
            b
        ), f"row {index}"
    return results, helper_blocks


class TestHelpersMatchSerial:
    @pytest.mark.parametrize(
        "family, max_iter, require",
        [
            (SKEW_NORMAL_FAMILY, 20, False),
            (GAUSSIAN_FAMILY, 12, False),
            (SKEW_NORMAL_FAMILY, 20, True),
        ],
        ids=["sn", "normal", "sn-require-convergence"],
    )
    def test_multi_block_grid(self, one_helper, family, max_iter, require):
        # Early convergence, capped rows, a min_weight collapse, a
        # k-means collapse and a validation failure over four blocks.
        stack, initials = batch_tests.TestMultiBlock().grid(family)
        config = EMConfig(
            max_iter=max_iter, tol=1e-6, require_convergence=require
        )
        helper_blocks = 0
        for _ in range(2):  # the pool's first call, then a reused pool
            results, blocks = _assert_matches_serial(
                stack, family, config=config, initials=initials
            )
            helper_blocks += blocks
        assert helper_blocks > 0
        kinds = {
            type(r).__name__ for r in results if isinstance(r, Exception)
        }
        expected = {"FittingError"}
        if require:
            expected.add("ConvergenceWarningError")
        assert kinds == expected

    def test_helpers_killed_between_calls(self, one_helper):
        stack, initials = batch_tests.TestMultiBlock().grid(
            SKEW_NORMAL_FAMILY
        )
        config = EMConfig(max_iter=20, tol=1e-6)
        first, _ = _fanned_out(
            stack, SKEW_NORMAL_FAMILY, config=config, initials=initials
        )
        pool = fanout._POOL
        assert pool is not None and pool.booted
        for helper in pool.helpers:
            helper.process.kill()
            helper.process.join(timeout=10)
            assert not helper.process.is_alive()
        second, _ = _fanned_out(
            stack, SKEW_NORMAL_FAMILY, config=config, initials=initials
        )
        assert [batch_tests.canon_result(r) for r in second] == [
            batch_tests.canon_result(r) for r in first
        ]
        fresh = fanout._POOL
        assert fresh is not None and fresh is not pool and fresh.alive()
        assert {h.process.pid for h in fresh.helpers}.isdisjoint(
            h.process.pid for h in pool.helpers
        )


def _traced_fit(stack, family, **kwargs):
    session = TelemetrySession()
    with telemetry.activate(session):
        fit_mixture_em_batch(stack, family, **kwargs)
    return session


class TestHelperTelemetry:
    @pytest.mark.parametrize(
        "family", [SKEW_NORMAL_FAMILY, GAUSSIAN_FAMILY], ids=["sn", "normal"]
    )
    def test_fanned_out_fit_records_what_inline_records(
        self, one_helper, monkeypatch, family
    ):
        # Block 1 holds the row that collapses inside the loop; with
        # skew-normal components its ``moments.sample`` span comes
        # back from whichever process ran that block.
        stack, initials = batch_tests.TestMultiBlock().grid(family)
        config = EMConfig(max_iter=20, tol=1e-6)
        fanned = [
            _traced_fit(stack, family, config=config, initials=initials)
            for _ in range(2)  # the pool's first call, then a reused pool
        ]
        monkeypatch.setattr(fanout, "_helper_count", lambda: 0)
        inline = _traced_fit(stack, family, config=config, initials=initials)
        spans, _, _ = telemetry_shape(inline)
        assert spans["em.block"] == 4
        if family is SKEW_NORMAL_FAMILY:
            assert spans["moments.sample"] > 0
        for session in fanned:
            assert telemetry_shape(session) == telemetry_shape(inline)
        assert sum(
            session.metrics.snapshot()["counters"].get(
                "fanout.helper_blocks", 0
            )
            for session in fanned
        ) > 0

    def test_helper_spans_nest_under_the_callers_open_span(self, one_helper):
        stack, initials = batch_tests.TestMultiBlock().grid(
            SKEW_NORMAL_FAMILY
        )
        config = EMConfig(max_iter=20, tol=1e-6)
        _traced_fit(  # the helper imports the EM modules
            stack, SKEW_NORMAL_FAMILY, config=config, initials=initials
        )
        session = _traced_fit(
            stack, SKEW_NORMAL_FAMILY, config=config, initials=initials
        )
        records = session.tracer.records()
        by_id = {record.span_id: record for record in records}
        assert len(by_id) == len(records)
        (fit,) = [r for r in records if r.name == "em.fit_batch"]
        adopted = [r for r in records if r.tags.get("helper") == "h00"]
        blocks = [r for r in adopted if r.name == "em.block"]
        assert blocks
        for block in blocks:
            assert block.parent_id == fit.span_id
            assert block.tags["rows"] in (1, 2)
            assert block.tags["iterations"] > 0
            assert block.cpu > 0.0
            # On the caller's clock: inside the span that waited for it.
            assert fit.start <= block.start
            assert block.start + block.wall <= fit.start + fit.wall
        for record in adopted:
            assert record.parent_id in by_id


class TestWhoFansOut:
    def _fit_inline(self, monkeypatch):
        fanout._shutdown()
        monkeypatch.setattr(fanout, "_Helpers", _refuse)
        stack, initials = batch_tests.TestMultiBlock().grid(
            GAUSSIAN_FAMILY
        )
        _, helper_blocks = _assert_matches_serial(
            stack,
            GAUSSIAN_FAMILY,
            config=EMConfig(max_iter=12, tol=1e-6),
            initials=initials,
        )
        assert helper_blocks == 0
        assert fanout._POOL is None

    def test_child_process_runs_blocks_inline(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
        )
        monkeypatch.setattr(multiprocessing, "parent_process", object)
        self._fit_inline(monkeypatch)

    def test_one_usable_core_starts_no_process(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        self._fit_inline(monkeypatch)


class TestNormaliserFold:
    """The E-step normaliser is ``logaddexp.reduce``, bit for bit.

    ``_fit_block`` computes it as one ``np.logaddexp`` of the two lane
    views into a leading-row view of its workspace.  ``-inf`` lanes
    occur: a zero-weight component at ``min_weight=0`` keeps an all
    ``-inf`` log row.
    """

    def test_two_lane_logaddexp_matches_reduce(self):
        rng = np.random.default_rng([20261018, 2])
        lanes = rng.normal(-3.0, 40.0, size=(5, 2, 64))
        lanes[1, 0] = -np.inf  # a zero-weight first lane
        lanes[2, 1] = -np.inf  # a zero-weight second lane
        lanes[3] = -np.inf  # both lanes -inf
        lanes[4, :, ::7] = -np.inf
        expected = np.logaddexp.reduce(lanes, axis=1)
        workspace = np.empty((8, 64))
        out = np.logaddexp(lanes[:, 0], lanes[:, 1], out=workspace[:5])
        assert np.shares_memory(out, workspace)
        assert out.tobytes() == expected.tobytes()
