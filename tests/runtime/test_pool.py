"""Tests for the parallel characterisation worker pool.

The spawn start method re-imports this module in every worker, so all
task functions live at module level (they must pickle by reference).
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.circuits import (
    CharacterizationConfig,
    GateTimingEngine,
    TT_GLOBAL_LOCAL_MC,
    build_cell,
    characterize_library,
)
from repro.errors import FittingError, ParameterError
from repro.runtime import FitPolicy, FitReport, faults, telemetry
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faults import FaultPlan, FaultRule
from repro.runtime.pool import (
    EXIT_KILLED,
    PoolConfig,
    PoolJournal,
    PoolResult,
    WorkItem,
    pool_payloads,
    run_pool,
    shard_of,
    shards,
)
from repro.runtime.pool import pool as pool_module
from tests.runtime.test_claims import dead_pid, plant_claim


def square_task(store, value):
    return {"value": value * value}


def killable_task(store, value):
    payload = {"value": value * value}
    # The injection point: a plan with a kill rule dies here, after
    # the work but before the save — leaving claim-file debris.
    faults.arc_completed()
    return payload


def failing_task(store, value):
    raise FittingError(f"deterministic failure for {value}")


def make_items(count, task=square_task):
    return tuple(
        WorkItem(
            token=f"pool-test|{index}",
            label=f"item-{index}",
            task=task,
            args=(index,),
        )
        for index in range(count)
    )


@pytest.fixture
def store(tmp_path) -> CheckpointStore:
    return CheckpointStore(tmp_path / "store", reuse=True)


def config(**overrides) -> PoolConfig:
    base = dict(
        n_workers=2, seed=7, merge_traces=False, claim_timeout=60.0
    )
    base.update(overrides)
    return PoolConfig(**base)


class TestSharding:
    def test_shards_partition_the_items(self):
        items = make_items(10)
        parts = shards(items, 3)
        assert sorted(
            item.token for part in parts for item in part
        ) == sorted(item.token for item in items)
        for index, part in enumerate(parts):
            for item in part:
                assert shard_of(item, 3) == index

    def test_shard_is_a_pure_function_of_the_key(self):
        item = make_items(1)[0]
        assert shard_of(item, 4) == shard_of(item, 4)

    def test_duplicate_tokens_rejected(self):
        items = make_items(2) + make_items(1)
        with pytest.raises(ParameterError, match="duplicate"):
            shards(items, 2)


class TestRunPool:
    def test_completes_every_item(self, store):
        items = make_items(6)
        result = run_pool(items, store, config())
        assert isinstance(result, PoolResult)
        assert result.n_items == 6
        for item in items:
            assert store.load(item.token) == {
                "value": int(item.args[0]) ** 2
            }
        assert result.exit_families.get("ok") == 2
        # No claim debris remains after a clean run.
        assert not list(store.directory.glob("*.claim"))

    def test_empty_items_is_a_no_op(self, store):
        result = run_pool((), store, config())
        assert result.n_items == 0
        assert result.exit_codes == ()

    def test_journal_names_each_item_once(self, store):
        items = make_items(5)
        run_pool(items, store, config())
        journal = PoolJournal(store.directory)
        tasks = journal.events("task")
        assert len(tasks) == 5
        assert len({event["key"] for event in tasks}) == 5

    def test_fresh_store_invalidates_existing_entries(self, tmp_path):
        seed_store = CheckpointStore(tmp_path / "store", reuse=True)
        items = make_items(3)
        seed_store.save(items[0].token, {"value": "stale"})
        fresh = CheckpointStore(tmp_path / "store", reuse=False)
        result = run_pool(items, fresh, config())
        assert result.invalidated == 1
        assert seed_store.load(items[0].token) == {"value": 0}

    def test_failing_item_raises_like_serial(self, store):
        items = make_items(3, task=failing_task)
        with pytest.raises(FittingError, match="deterministic"):
            run_pool(items, store, config())
        # The failed claims were released, not leaked.
        assert not list(store.directory.glob("*.claim"))

    def test_invalid_worker_count_rejected(self, store):
        with pytest.raises(ParameterError, match="n_workers"):
            run_pool(make_items(1), store, config(n_workers=0))

    def test_fault_plan_for_unknown_worker_rejected(self, store):
        plan = FaultPlan([FaultRule(kind="kill")])
        with pytest.raises(ParameterError, match="unknown worker"):
            run_pool(
                make_items(1), store, config(fault_plans={5: plan})
            )


def fill(store, items):
    for item in items:
        store.save(item.token, item.task(store, *item.args))


def no_spawn(*args, **kwargs):
    raise AssertionError("a round of workers was started")


class TestResume:
    def test_complete_store_starts_no_worker(self, store, monkeypatch):
        items = make_items(5)
        fill(store, items)
        monkeypatch.setattr(pool_module, "_spawn_round", no_spawn)
        session = telemetry.TelemetrySession()
        with telemetry.activate(session):
            result = run_pool(items, store, config())
        assert result.exit_codes == ()
        assert result.parent_computed == 0
        assert PoolJournal(store.directory).events("task") == ()
        assert session.metrics.snapshot()["gauges"]["pool.workers"] == 0
        (span,) = [
            record
            for record in session.tracer.records()
            if record.name == "pool.run"
        ]
        assert span.tags["n_workers"] == 0
        session.close()

    def test_one_missing_item_starts_one_worker(self, store):
        items = make_items(6)
        fill(store, items[1:])
        result = run_pool(items, store, config(n_workers=2))
        assert len(result.exit_codes) == 1
        assert result.exit_families == {"ok": 1}
        (task,) = PoolJournal(store.directory).events("task")
        assert task["key"] == items[0].key
        assert store.load(items[0].token) == {"value": 0}

    def test_payloads_are_loaded_once(self, store):
        items = make_items(4)
        fill(store, items)
        payloads = pool_payloads(items, store, config())
        assert payloads == [{"value": index**2} for index in range(4)]
        assert store.hits == len(items)

    def test_torn_entry_is_repaired_in_parent(self, store, monkeypatch):
        items = make_items(3)
        fill(store, items)
        store.path_for(items[1].token).write_bytes(b"torn")
        monkeypatch.setattr(pool_module, "_spawn_round", no_spawn)
        session = telemetry.TelemetrySession()
        with telemetry.activate(session):
            payloads = pool_payloads(items, store, config())
        assert payloads[1] == {"value": 1}
        assert store.quarantined == 1
        counters = session.metrics.snapshot()["counters"]
        # The repair counts with the sweep, as in the result.
        assert counters["pool.parent_computed"] == 1
        assert counters["pool.repaired"] == 1
        session.close()


class TestWorkerDeath:
    def test_killed_worker_is_respawned_and_run_completes(self, store):
        items = make_items(6, task=killable_task)
        plan = FaultPlan([FaultRule(kind="kill", after_arcs=1)])
        # Both workers carry the plan: whichever completes an arc first
        # dies, so the kill cannot be dodged by the other worker
        # draining every item first.
        result = run_pool(
            items, store, config(fault_plans={0: plan, 1: plan})
        )
        assert EXIT_KILLED in result.exit_codes
        assert result.exit_families.get("injected-kill", 0) >= 1
        for item in items:
            assert store.contains(item.token)
        assert not list(store.directory.glob("*.claim"))

    def test_stale_claim_from_dead_owner_is_reclaimed(self, store):
        items = make_items(4)
        plant_claim(
            store.directory,
            items[0].token,
            pid=dead_pid(),
            host=socket.gethostname(),
        )
        result = run_pool(items, store, config(n_workers=1))
        for item in items:
            assert store.contains(item.token)
        assert result.exit_families.get("ok") == 1


class TestRacingPools:
    def test_two_pools_share_the_work_without_duplication(self, store):
        items = make_items(8)
        results = {}

        def race(name, seed):
            results[name] = run_pool(items, store, config(seed=seed))

        threads = [
            threading.Thread(target=race, args=("a", 1)),
            threading.Thread(target=race, args=("b", 2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for item in items:
            assert store.load(item.token) == {
                "value": int(item.args[0]) ** 2
            }
        # The union of both pools computed each payload exactly once:
        # the journal records one task event per content key.
        tasks = PoolJournal(store.directory).events("task")
        assert len(tasks) == len(items)
        assert len({event["key"] for event in tasks}) == len(items)


class TestWorkerTraces:
    def test_traces_merged_at_shutdown(self, store, tmp_path):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        items = make_items(4)
        result = run_pool(
            items,
            store,
            config(
                trace_dir=str(trace_dir),
                run_id="tracetest",
                merge_traces=True,
            ),
        )
        assert result.worker_traces
        assert result.merged_trace is not None
        workers = set()
        with open(result.merged_trace) as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("type") == "span":
                    workers.add(record["tags"].get("worker"))
        assert len(workers) >= 1  # at least one worker wrote spans


def characterize(workers=1, pool=None, checkpoint=None):
    engine = GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)
    cells = [build_cell("INV", 1.0), build_cell("NAND2", 1.0)]
    config = CharacterizationConfig(
        slews=(0.01, 0.05), loads=(0.01, 0.1), n_samples=64, seed=7
    )
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


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def serial(self):
        return characterize(workers=1)

    def test_parallel_is_byte_identical_to_serial(self, serial):
        assert characterize(workers=2) == serial

    def test_killed_worker_run_is_byte_identical_to_serial(self, serial):
        plan = FaultPlan([FaultRule(kind="kill", after_arcs=1)])
        pool = PoolConfig(
            n_workers=2,
            seed=7,
            merge_traces=False,
            claim_timeout=60.0,
            fault_plans={0: plan},
        )
        assert characterize(workers=2, pool=pool) == serial

    def test_resume_is_byte_identical_and_starts_no_worker(
        self, serial, tmp_path, monkeypatch
    ):
        store = CheckpointStore(tmp_path / "store", reuse=True)
        cold = characterize(workers=2, checkpoint=store)
        assert cold == serial
        monkeypatch.setattr(pool_module, "_spawn_round", no_spawn)
        resumed = characterize(
            workers=2, checkpoint=CheckpointStore(store.directory)
        )
        assert resumed == cold
