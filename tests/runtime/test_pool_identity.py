"""Randomized cross-configuration byte-identity harness for the pool.

The pool's core contract is that *no* configuration knob may change
the output: worker count, claim timeout, pool seed, even a worker
killed mid-run — the Liberty library text and the fit-report JSON
must be byte-identical to a serial run in every case.
Rather than enumerate configurations by hand, this harness draws them
from a seeded RNG so each CI run sweeps a reproducible slice of the
configuration space (re-run a failure with the sweep index printed in
the parametrized test id).

``REPRO_IDENTITY_SWEEPS`` bounds the number of drawn configurations
(default 4; CI uses 2 to keep the smoke job fast).

The spawn start method re-imports this module in every worker, so any
task helpers must live at module level.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.circuits import (
    CharacterizationConfig,
    GateTimingEngine,
    TT_GLOBAL_LOCAL_MC,
    build_cell,
    characterize_library,
)
from repro.circuits.characterize import (
    characterization_tokens,
    characterization_work_items,
)
from repro.runtime import FitPolicy, FitReport
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faults import FaultPlan, FaultRule
from repro.runtime.pool import PoolConfig
from repro.runtime.pool.claims import ClaimStore

SWEEPS = int(os.environ.get("REPRO_IDENTITY_SWEEPS", "4"))
WORKER_CHOICES = (1, 2, 4, 7)
HARNESS_SEED = 20260805


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


def draw_configuration(sweep):
    """One reproducible pool configuration from the sweep index."""
    rng = np.random.default_rng([HARNESS_SEED, sweep])
    workers = int(rng.choice(WORKER_CHOICES))
    claim_timeout = float(rng.uniform(20.0, 90.0))
    plans = None
    if workers > 1 and rng.random() < 0.5:
        # Kill one randomly chosen worker after a random number of
        # completed units; the respawn round and the parent sweep
        # must absorb the loss without changing a byte.
        victim = int(rng.integers(workers))
        plans = {
            victim: FaultPlan(
                [
                    FaultRule(
                        kind="kill",
                        after_arcs=int(rng.integers(1, 4)),
                    )
                ]
            )
        }
    pool = PoolConfig(
        n_workers=workers,
        seed=int(rng.integers(1 << 31)),
        claim_timeout=claim_timeout,
        merge_traces=False,
        fault_plans=plans,
    )
    return pool


@pytest.fixture(scope="module")
def serial():
    return characterize()


class TestRandomizedIdentity:
    @pytest.mark.parametrize("sweep", range(SWEEPS))
    def test_random_configuration_matches_serial(
        self, sweep, serial, tmp_path
    ):
        pool = draw_configuration(sweep)
        store = CheckpointStore(tmp_path / "store", reuse=True)
        result = characterize(
            workers=pool.n_workers, pool=pool, checkpoint=store
        )
        assert result == serial
        # A finished pool never leaves a live claim behind, even when
        # one worker was killed mid-run (its debris is reclaimed by
        # the respawn round or the parent sweep).
        claims = ClaimStore(
            store.directory, timeout=pool.claim_timeout
        )
        assert claims.scan(live_only=True) == ()


class TestEdgeKillAndResume:
    def test_edge_run_resumes_from_partial_store(self, serial, tmp_path):
        # Simulate an interrupted pool run: every third edge payload is
        # already checkpointed.
        engine, cells, config = make_engine_and_cells()
        store = CheckpointStore(tmp_path / "store", reuse=True)
        items = characterization_work_items(
            engine, cells, config, policy=FitPolicy()
        )
        assert len(items) > 4
        for work in items[::3]:
            store.save(work.token, work.task(store, *work.args))
        # The resumed parallel run must fill only the gaps and still
        # assemble byte-identical output.
        pool = PoolConfig(
            n_workers=2, seed=11, merge_traces=False, claim_timeout=60.0
        )
        result = characterize(workers=2, pool=pool, checkpoint=store)
        assert result == serial
        assert ClaimStore(store.directory).scan(live_only=True) == ()

    def test_killed_run_then_resume_matches_serial(self, serial, tmp_path):
        # A run that lost a worker completes, then a second run over
        # the same store reuses its payloads — output identical both
        # times.
        store = CheckpointStore(tmp_path / "store", reuse=True)
        plan = FaultPlan([FaultRule(kind="kill", after_arcs=2)])
        pool = PoolConfig(
            n_workers=2,
            seed=3,
            merge_traces=False,
            claim_timeout=60.0,
            fault_plans={1: plan},
        )
        first = characterize(workers=2, pool=pool, checkpoint=store)
        assert first == serial
        second = characterize(
            workers=2,
            pool=PoolConfig(
                n_workers=2, seed=4, merge_traces=False, claim_timeout=60.0
            ),
            checkpoint=store,
        )
        assert second == serial


class TestCheckpointGc:
    def test_gc_keeps_edge_entries_and_drops_legacy_fit_entries(
        self, tmp_path
    ):
        # Pin-fit and grid-fit entries from older runs are no longer
        # read; gc against the run's tokens must drop them and keep
        # the edge payload with its Monte-Carlo companion.
        engine, cells, config = make_engine_and_cells()
        store = CheckpointStore(tmp_path / "store", reuse=True)
        work = characterization_work_items(
            engine, cells, config, policy=FitPolicy()
        )[0]
        store.save(work.token, work.task(store, *work.args))
        store.save("pin-fit|legacy", {})
        store.save("grid-fit|legacy", {})
        tokens = characterization_tokens(
            engine, cells, config, policy=FitPolicy()
        )
        assert store.gc(tokens) == 2
        assert store.contains(work.token)
        assert store.contains(work.companions[0])
