"""Byte identity of the lockstep EM when its blocks run on helpers.

``fit_mixture_em_batch`` hands the row blocks of one call to spawned
helper processes (``repro.runtime.fanout``) as well as running some
itself.  Rows are independent and each block is deterministic, so a
fanned-out fit must reproduce the serial reference
(``tests/stats/serial_em_reference.py``) bit for bit, errors included.
The helper count is forced to one here, so the suite fans out on a
one-core machine too.
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
from repro.stats import em as em_module
from repro.stats.em import EMConfig, fit_mixture_em_batch
from tests.stats import test_em_batch as batch_tests


@pytest.fixture
def one_helper(monkeypatch):
    """Fan out to one helper whatever the core count; stop it after."""
    monkeypatch.setattr(fanout, "_helper_count", lambda: 1)
    yield
    fanout._shutdown()


def _refuse(count):
    raise AssertionError(f"started {count} helper process(es)")


def _fanned_out(stack, family, n_components=2, **kwargs):
    """Fit with a session; return the results and helper-block count."""
    session = TelemetrySession()
    with telemetry.activate(session):
        results = fit_mixture_em_batch(
            stack, family, n_components, errors="capture", **kwargs
        )
    counters = session.metrics.snapshot()["counters"]
    return results, counters.get("fanout.helper_blocks", 0)


def _assert_matches_serial(stack, family, n_components=2, **kwargs):
    serial = batch_tests.serial_loop(
        stack,
        family,
        n_components,
        config=kwargs.get("config"),
        initials=kwargs.get("initials"),
    )
    results, helper_blocks = _fanned_out(
        stack, family, n_components, **kwargs
    )
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

    def test_dead_lane_rows_one_per_block(self, one_helper, monkeypatch):
        # Under-seeded and pruning rows (dead lanes) each in a block of
        # their own.
        dead = batch_tests.TestDeadLanes()
        stack = dead.stack()
        monkeypatch.setattr(em_module, "_BLOCK_BUDGET", 3 * dead.N * 8)
        assert em_module._block_rows(3, dead.N) == 1
        helper_blocks = 0
        for _ in range(2):
            results, blocks = _assert_matches_serial(
                stack, SKEW_NORMAL_FAMILY, 3, config=dead.CONFIG
            )
            helper_blocks += blocks
        assert helper_blocks > 0
        assert results[1].collapsed and results[2].collapsed

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
    """The E-step normaliser fold is ``logaddexp.reduce``, bit for bit."""

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_left_fold_matches_reduce(self, width):
        rng = np.random.default_rng([20261018, width])
        lanes = rng.normal(-3.0, 40.0, size=(5, width, 64))
        lanes[1, 0] = -np.inf  # a dead leading lane
        lanes[2, width - 1] = -np.inf  # a dead trailing lane
        lanes[3] = -np.inf  # every lane dead
        lanes[4, :, ::7] = -np.inf
        expected = np.logaddexp.reduce(lanes, axis=1)
        out = np.empty((5, 64))
        assert em_module._fold_lanes(lanes, out) is out
        assert out.tobytes() == expected.tobytes()
