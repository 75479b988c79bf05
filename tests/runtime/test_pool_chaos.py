"""Chaos-sweep harness: byte-identity under filesystem fault storms.

The pool's byte-identity contract (see ``test_pool_identity``) must
survive a *hostile* shared filesystem, not just a slow one: transient
``EIO``/``ESTALE`` reads, ``ENOSPC`` writes, torn checkpoint entries,
stale directory listings, delayed visibility and clock-skewed claim
mtimes.  Every fault in the model is either retried away, quarantined
and recomputed, or at worst costs duplicated work — never a changed
byte in the Liberty text or the fit-report JSON.

Each sweep draws a reproducible fault storm from a seeded RNG
(workers x fault mix x targeting mode); re-run a failure
via the sweep index in the parametrized test id.
``REPRO_CHAOS_SWEEPS`` bounds the sweep count (default 3; CI uses a
small value to keep the chaos-smoke job fast).

Fault storms are bounded by construction — `times` caps every
read/write error rule within the retry budget's reach, and a torn or
hidden checkpoint entry only ever causes a recompute — so every run
terminates.  A ``signal.alarm`` watchdog backstops that claim with a
hard per-test timeout.

The spawn start method re-imports this module in every worker, so any
task helpers must live at module level.
"""

from __future__ import annotations

import json
import os
import pickle
import signal

import numpy as np
import pytest

from repro.circuits import (
    CharacterizationConfig,
    GateTimingEngine,
    TT_GLOBAL_LOCAL_MC,
    build_cell,
    characterize_library,
)
from repro.runtime import FitPolicy, FitReport
from repro.runtime.checkpoint import QUARANTINE_SUFFIX, CheckpointStore
from repro.runtime.faults import FaultPlan, FaultRule
from repro.runtime.fsfaults import (
    FsFaultPlan,
    FsFaultRule,
    RetryPolicy,
    inject_fs,
    use_retry_policy,
)
from repro.runtime.pool import PoolConfig
from repro.runtime.pool.claims import ClaimStore

SWEEPS = int(os.environ.get("REPRO_CHAOS_SWEEPS", "3"))
WORKER_CHOICES = (2, 3, 4)
HARNESS_SEED = 20260808

#: Zero-backoff so injected transient errors are retried instantly.
FAST_RETRY = RetryPolicy(retries=2, backoff=0.0)

#: Hard per-test watchdog: a chaos storm must terminate long before
#: this; a hang here is a protocol bug, not slowness.
TEST_TIMEOUT_SECONDS = 300


@pytest.fixture(autouse=True)
def chaos_watchdog():
    def _expired(signum, frame):
        raise RuntimeError(
            f"chaos test exceeded {TEST_TIMEOUT_SECONDS}s watchdog"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TEST_TIMEOUT_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def make_engine_and_cells():
    engine = GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)
    cells = [build_cell("INV", 1.0), build_cell("NAND2", 1.0)]
    config = CharacterizationConfig(
        slews=(0.01, 0.05), loads=(0.01, 0.1), n_samples=64, seed=7
    )
    return engine, cells, config


def characterize(*, workers=1, pool=None, checkpoint=None):
    engine, cells, config = make_engine_and_cells()
    report = FitReport()
    library = characterize_library(
        engine,
        cells,
        config,
        policy=FitPolicy(),
        report=report,
        isolate_errors=True,
        workers=workers,
        pool=pool,
        checkpoint=checkpoint,
    )
    return library.to_text(), json.dumps(report.to_dict(), sort_keys=True)


def draw_storm_rules(rng, claim_skew):
    """One reproducible fault mix.

    Every read/write error rule keeps ``times`` within the retry
    budget's reach *or* lands on an op whose caller degrades an
    exhausted read to a miss/dead answer, so storms are recoverable
    by construction; torn writes are scoped to checkpoint entries and
    journal appends (never the export artifact, whose size check
    fails loudly by design).
    """
    rules = []
    if rng.random() < 0.7:
        rules.append(
            FsFaultRule(
                kind="torn_write",
                op="checkpoint.write",
                times=int(rng.integers(1, 3)),
                keep_fraction=float(rng.uniform(0.05, 0.95)),
            )
        )
    if rng.random() < 0.8:
        rules.append(
            FsFaultRule(
                kind="read_error",
                op=str(
                    rng.choice(
                        ("checkpoint.read", "claim.read", "claim.stat")
                    )
                ),
                error=str(rng.choice(("EIO", "ESTALE"))),
                times=int(rng.integers(1, 3)),
                probability=float(rng.uniform(0.3, 1.0)),
            )
        )
    if rng.random() < 0.5:
        rules.append(
            FsFaultRule(
                kind="write_error",
                op=str(
                    rng.choice(
                        (
                            "checkpoint.write",
                            "journal.append",
                            "claim.create",
                        )
                    )
                ),
                times=int(rng.integers(1, 3)),
                probability=float(rng.uniform(0.3, 1.0)),
            )
        )
    if rng.random() < 0.5:
        rules.append(
            FsFaultRule(
                kind="stale_listing",
                op=str(rng.choice(("checkpoint.list", "claim.list"))),
                times=int(rng.integers(1, 3)),
            )
        )
    if rng.random() < 0.5:
        rules.append(
            FsFaultRule(
                kind="hidden_entry",
                op="checkpoint.exists",
                times=1,
                probability=float(rng.uniform(0.3, 1.0)),
            )
        )
    if rng.random() < 0.5:
        rules.append(
            FsFaultRule(
                kind="clock_skew",
                op="claim.stat",
                times=None,
                skew_seconds=float(
                    rng.uniform(-2.0 * claim_skew, 2.0 * claim_skew)
                ),
            )
        )
    if not rules:
        rules.append(
            FsFaultRule(
                kind="read_error", op="checkpoint.read", times=1
            )
        )
    return tuple(rules)


def draw_storm(sweep):
    """One reproducible chaos configuration from the sweep index."""
    rng = np.random.default_rng([HARNESS_SEED, sweep])
    workers = int(rng.choice(WORKER_CHOICES))
    claim_skew = float(rng.uniform(1.0, 10.0))
    rules = draw_storm_rules(rng, claim_skew)
    kill_plans = None
    if rng.random() < 0.3:
        # Pile a mid-run worker death on top of the fs storm.
        victim = int(rng.integers(workers))
        kill_plans = {
            victim: FaultPlan(
                [
                    FaultRule(
                        kind="kill", after_arcs=int(rng.integers(1, 4))
                    )
                ]
            )
        }
    inherit = bool(rng.random() < 0.4)
    fs_plans = None
    if not inherit:
        fs_plans = {
            worker_id: FsFaultPlan(
                rules, seed=HARNESS_SEED + 16 * sweep + worker_id
            )
            for worker_id in range(workers)
        }
    pool = PoolConfig(
        n_workers=workers,
        seed=int(rng.integers(1 << 31)),
        claim_timeout=float(rng.uniform(20.0, 90.0)),
        claim_skew=claim_skew,
        fs_retry=FAST_RETRY,
        merge_traces=False,
        fault_plans=kill_plans,
        fs_fault_plans=fs_plans,
    )
    parent_plan = (
        FsFaultPlan(rules, seed=HARNESS_SEED + sweep)
        if inherit
        else None
    )
    return pool, parent_plan


@pytest.fixture(scope="module")
def serial():
    return characterize()


class TestChaosSweep:
    @pytest.mark.parametrize("sweep", range(SWEEPS))
    def test_fault_storm_matches_serial(self, sweep, serial, tmp_path):
        pool, parent_plan = draw_storm(sweep)
        store = CheckpointStore(tmp_path / "store", reuse=True)
        # ``inherit`` mode activates the plan in the parent: round-0
        # workers pick it up via active_fs_plan(), and the parent's
        # own assembly reads run through the same storm.
        context = (
            inject_fs(parent_plan)
            if parent_plan is not None
            else use_retry_policy(FAST_RETRY)
        )
        with use_retry_policy(FAST_RETRY), context:
            result = characterize(
                workers=pool.n_workers,
                pool=pool,
                checkpoint=store,
            )
        assert result == serial
        # Faults cost retries, quarantines or duplicated work — never
        # a live claim left behind after the run completes.
        claims = ClaimStore(store.directory, timeout=pool.claim_timeout)
        assert claims.scan(live_only=True) == ()


class TestTornWriteQuarantine:
    def test_torn_entries_quarantined_and_recomputed(
        self, serial, tmp_path
    ):
        # Run 1 tears *every* checkpoint entry (each save uses a fresh
        # temp name, so the per-path times bound never spends itself).
        store = CheckpointStore(tmp_path / "store", reuse=True)
        torn_everything = FsFaultPlan(
            rules=(
                FsFaultRule(
                    kind="torn_write",
                    op="checkpoint.write",
                    times=None,
                    keep_fraction=0.5,
                ),
            )
        )
        with inject_fs(torn_everything):
            first = characterize(checkpoint=store)
        assert first == serial
        assert store.writes > 0
        # Run 2 reads the debris: every entry fails its checksum, is
        # quarantined aside, recomputed and re-saved — never fatal,
        # and the output is still byte-identical.
        resumed = CheckpointStore(tmp_path / "store", reuse=True)
        second = characterize(checkpoint=resumed)
        assert second == serial
        assert resumed.quarantined > 0
        assert resumed.hits == 0
        corpses = sorted(
            resumed.directory.glob(f"*.ckpt{QUARANTINE_SUFFIX}")
        )
        assert len(corpses) == resumed.quarantined
        # Run 3 loads the repaired store cleanly.
        third_store = CheckpointStore(tmp_path / "store", reuse=True)
        third = characterize(checkpoint=third_store)
        assert third == serial
        assert third_store.quarantined == 0
        assert third_store.hits > 0


class TestFormatCompatibility:
    def test_v1_store_resumes_under_v2(self, serial, tmp_path):
        # A store written before the checksum bump must still resume:
        # rewrite every v2 entry in the v1 layout (payload object
        # stored directly, no sha256) and re-run against it.
        store = CheckpointStore(tmp_path / "store", reuse=True)
        first = characterize(checkpoint=store)
        assert first == serial
        rewritten = 0
        for path in sorted(store.directory.glob("*.ckpt")):
            entry = pickle.loads(path.read_bytes())
            downgraded = {
                "version": 1,
                "token": entry["token"],
                "payload": pickle.loads(entry["payload"]),
            }
            path.write_bytes(
                pickle.dumps(
                    downgraded, protocol=pickle.HIGHEST_PROTOCOL
                )
            )
            rewritten += 1
        assert rewritten > 0
        resumed = CheckpointStore(tmp_path / "store", reuse=True)
        second = characterize(checkpoint=resumed)
        assert second == serial
        assert resumed.hits > 0
        assert resumed.quarantined == 0
