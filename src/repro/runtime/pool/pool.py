"""Pool orchestration: spawn workers, survive their deaths, finish.

:func:`run_pool` drives one parallel computation over a shared
checkpoint directory:

1. validate and shard the items by content key;
2. spawn ``min(n_workers, pending)`` processes (spawn context) over
   the *pending* items — those with no checkpoint entry yet — that
   drain their shards and steal leftovers, coordinating only through
   claim files; a resume over a complete store spawns none;
3. join them and aggregate their exit codes per error family;
4. if workers died retryably (injected kill, crash, signal) and items
   remain, respawn a fresh round **without** fault plans over what is
   still missing — the replacement workers reclaim the dead owners'
   claims;
5. run the *parent sweep*: the parent itself claims and computes
   anything still missing (the guarantee that a pool whose every
   worker died still terminates with a complete store), waiting out
   live foreign claims (another pool racing on the same directory)
   rather than duplicating their work;
6. load every payload once (the integrity pass) and recompute in the
   parent whatever fails to load;
7. optionally merge the per-worker JSONL traces into one worker-tagged
   trace file (the "automatic merge at pool shutdown").

Determinism: the pool's only output is the set of content-addressed
checkpoint entries, and every entry's bytes are a pure function of its
token (same code path as the serial run, per-condition seeds derived
from the run seed).  Scheduling, stealing, respawns and races change
*who* computes an entry, never *what* is computed — so a parallel run
is byte-identical to the serial run by construction.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import socket
import tempfile
import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

from repro.errors import EXIT_CODES, ParameterError
from repro.runtime import faults, fsfaults, telemetry
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faults import FaultPlan
from repro.runtime.fsfaults import FsFaultPlan, RetryPolicy
from repro.runtime.pool.claims import (
    DEFAULT_CLAIM_TIMEOUT,
    DEFAULT_SKEW_TOLERANCE,
    ClaimStore,
)
from repro.runtime.pool.journal import PoolJournal
from repro.runtime.pool.scheduler import WorkItem, shards
from repro.runtime.pool.status import (
    StatusWriter,
    finalize_pool_meta,
    write_pool_meta,
)
from repro.runtime.pool.worker import (
    EXIT_CRASH,
    EXIT_KILLED,
    EXIT_OK,
    WorkerSpec,
    execute_item,
    worker_main,
)

__all__ = ["PoolConfig", "PoolResult", "pool_payloads", "run_pool"]

#: Exit code -> error-family label for aggregation (read-only).
_FAMILY_BY_CODE = MappingProxyType(
    {
        EXIT_OK: "ok",
        1: "ReproError",
        EXIT_CRASH: "crash",
        EXIT_KILLED: "injected-kill",
        **{code: klass.__name__ for klass, code in EXIT_CODES.items()},
    }
)

#: Exit codes worth respawning replacement workers for: the worker
#: died (not: the work itself fails deterministically).
_RETRYABLE_CODES = frozenset({EXIT_KILLED, EXIT_CRASH})

#: Replacement rounds spawned when workers die retryably with items
#: still missing.
_RESPAWN_ROUNDS = 1

#: Parent-sweep wait between attempts on a live foreign claim (s).
_POLL_INTERVAL = 0.05


def exit_family(code: int) -> str:
    """Human label for one worker exit code."""
    if code < 0:
        return f"signal-{-code}"
    return _FAMILY_BY_CODE.get(code, f"exit-{code}")


@dataclass(frozen=True)
class PoolConfig:
    """Knobs of one pool run.

    Attributes:
        n_workers: Worker process count (>= 1).
        claim_timeout: Claim staleness threshold in seconds.
        seed: Run seed; per-worker RNG streams derive from it.
        run_id: Stable id for worker trace naming; derived from the
            parent pid/time when omitted.
        trace_dir: Directory for per-worker JSONL traces (None
            disables worker telemetry).
        trace_sample: Span sampling rate for worker sessions.
        fault_plans: Per-worker-id fault plans (tests kill *one*
            worker with ``{0: plan}``).  When None, the parent's
            active plan — if any — is forwarded to every worker.
        fs_fault_plans: Per-worker-id filesystem fault plans (the
            chaos harness storms *specific* workers).  When None, the
            parent's active fs plan — if any — is forwarded to every
            first-round worker; replacement rounds always run clean.
        fs_retry: Transient-filesystem-error retry policy installed
            in every worker.  When None, workers inherit the parent's
            process-wide policy at spawn time.
        claim_skew: Cross-host clock-skew tolerance (seconds) added
            to the claim timeout in every liveness judgement.
        merge_traces: Merge worker traces at shutdown into
            ``trace-<run_id>-merged.jsonl`` (callers that fold the
            worker traces into a bigger merge themselves turn this
            off).
    """

    n_workers: int = 2
    claim_timeout: float = DEFAULT_CLAIM_TIMEOUT
    seed: int = 0
    run_id: str | None = None
    trace_dir: str | None = None
    trace_sample: float = 1.0
    fault_plans: Mapping[int, FaultPlan] | None = None
    fs_fault_plans: Mapping[int, FsFaultPlan] | None = None
    fs_retry: RetryPolicy | None = None
    claim_skew: float = DEFAULT_SKEW_TOLERANCE
    merge_traces: bool = True


@dataclass
class PoolResult:
    """What one :func:`run_pool` call did.

    Attributes:
        run_id: The pool run id (worker traces embed it).
        n_items: Item count of the run.
        exit_codes: Worker exit codes, first round, worker order
            (empty when no item was pending).
        respawn_exit_codes: Exit codes of replacement rounds.
        exit_families: ``family label -> count`` over all rounds.
        respawned: Replacement workers spawned.
        parent_computed: Items the parent computed itself, in the
            sweep or the post-sweep repair.
        invalidated: Entries dropped up front for a fresh
            (``reuse=False``) run.
        reclaimed: Stale/dead claims the parent sweep reclaimed.
        worker_traces: Per-worker trace files that exist on disk.
        merged_trace: Path of the auto-merged worker trace, if made.
    """

    run_id: str
    n_items: int
    exit_codes: tuple[int, ...] = ()
    respawn_exit_codes: tuple[int, ...] = ()
    exit_families: dict[str, int] = field(default_factory=dict)
    respawned: int = 0
    parent_computed: int = 0
    invalidated: int = 0
    reclaimed: int = 0
    worker_traces: tuple[str, ...] = ()
    merged_trace: str | None = None


def _pending(
    items: tuple[WorkItem, ...], store: CheckpointStore
) -> tuple[WorkItem, ...]:
    """The items whose payload has no checkpoint entry yet, in order."""
    return tuple(item for item in items if not store.contains(item.token))


def _spawn_round(
    items: tuple[WorkItem, ...],
    store_dir: str,
    config: PoolConfig,
    run_id: str,
    round_index: int,
) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Spawn one round of workers over the pending ``items``; join them.

    The round is ``min(config.n_workers, len(items))`` workers wide,
    and that width is the sharding modulus every worker uses.
    """
    n_workers = min(config.n_workers, len(items))
    context = multiprocessing.get_context("spawn")
    specs = []
    for worker_id in range(n_workers):
        trace_path = None
        if config.trace_dir is not None:
            suffix = f"-r{round_index}" if round_index else ""
            trace_path = str(
                Path(config.trace_dir)
                / f"trace-{run_id}{suffix}-w{worker_id:02d}.jsonl"
            )
        plan = None
        fs_plan = None
        if round_index == 0:
            # Replacement rounds run clean: the plan already did its
            # damage and a retry is supposed to recover from it.
            if config.fault_plans is not None:
                plan = config.fault_plans.get(worker_id)
            else:
                plan = faults.active_plan()
            if config.fs_fault_plans is not None:
                fs_plan = config.fs_fault_plans.get(worker_id)
            else:
                fs_plan = fsfaults.active_fs_plan()
        specs.append(
            WorkerSpec(
                worker_id=worker_id,
                n_workers=n_workers,
                store_dir=store_dir,
                items=items,
                claim_timeout=config.claim_timeout,
                claim_skew=config.claim_skew,
                seed=config.seed,
                trace_path=trace_path,
                trace_sample=config.trace_sample,
                run_id=run_id,
                fault_plan=plan,
                fs_plan=fs_plan,
                fs_retry=config.fs_retry or fsfaults.retry_policy(),
            )
        )
    processes = [
        context.Process(
            target=worker_main,
            args=(spec,),
            name=f"repro-pool-w{spec.worker_id:02d}",
        )
        for spec in specs
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
    exit_codes = tuple(
        process.exitcode if process.exitcode is not None else EXIT_CRASH
        for process in processes
    )
    traces = tuple(
        spec.trace_path
        for spec in specs
        if spec.trace_path and os.path.exists(spec.trace_path)
    )
    return exit_codes, traces


def _parent_sweep(
    items: tuple[WorkItem, ...],
    pool_store: CheckpointStore,
    config: PoolConfig,
    journal: PoolJournal,
) -> tuple[int, int]:
    """Finish whatever the workers left; returns (computed, reclaimed).

    Items live-claimed by a foreign owner (a racing pool) are waited
    out — either their payload appears or their claim goes stale and
    the parent takes it — so the sweep terminates with every item's
    payload on disk, whoever produced it.
    """
    claims = ClaimStore(
        pool_store.directory,
        timeout=config.claim_timeout,
        skew_tolerance=config.claim_skew,
        owner=f"{socket.gethostname()}:{os.getpid()}:parent",
    )
    status = StatusWriter(pool_store.directory, "parent")
    writes_before = pool_store.writes
    for item in items:
        status.update("sweeping", item=item.label)
        while True:
            if execute_item(item, pool_store, claims, journal, "parent"):
                break
            time.sleep(_POLL_INTERVAL)
        status.advance()
    status.close("done")
    return pool_store.writes - writes_before, claims.reclaimed


def run_pool(
    items: Iterable[WorkItem],
    store: CheckpointStore,
    config: PoolConfig,
) -> PoolResult:
    """Compute every item's payload into ``store``; see module docs.

    Raises:
        ParameterError: On invalid configuration or duplicate tokens.
        ReproError: Whatever a deterministically failing item raises —
            re-raised from the parent or repair sweep with serial
            semantics.
    """
    return _run(tuple(items), store, config)[0]


def _run(
    sequence: tuple[WorkItem, ...],
    store: CheckpointStore,
    config: PoolConfig,
) -> tuple[PoolResult, list]:
    """:func:`run_pool`, also returning the payloads it verified.

    The integrity pass loads every entry once; those loads are the
    returned payloads, in item order.  A payload that still fails to
    load after the repair sweep is None.
    """
    if config.n_workers < 1:
        raise ParameterError(
            f"pool needs n_workers >= 1, got {config.n_workers}"
        )
    for label, plans in (
        ("fault_plans", config.fault_plans),
        ("fs_fault_plans", config.fs_fault_plans),
    ):
        if plans is None:
            continue
        unknown = [
            worker_id
            for worker_id in plans
            if not 0 <= worker_id < config.n_workers
        ]
        if unknown:
            raise ParameterError(
                f"{label} target unknown worker ids {unknown}"
            )
    run_id = config.run_id or hashlib.sha256(
        f"{os.getpid()}|{time.time_ns()}".encode()
    ).hexdigest()[:12]
    result = PoolResult(run_id=run_id, n_items=len(sequence))
    if not sequence:
        return result, []
    shards(sequence, config.n_workers)  # validates duplicate tokens
    # The pool always *reads* existing entries (content-addressed ==
    # identical bytes); fresh-run semantics are honoured by dropping
    # this run's entries up front instead.
    pool_store = (
        store
        if store.reuse
        else CheckpointStore(store.directory, reuse=True)
    )
    if not store.reuse:
        result.invalidated = pool_store.invalidate(
            token
            for item in sequence
            for token in (item.token, *item.companions)
        )
    # Workers are started for pending work only: a resume over a
    # complete store spawns none.  An entry that exists but is torn is
    # not pending here; the integrity pass below convicts and repairs it.
    pending = _pending(sequence, pool_store)
    n_workers = min(config.n_workers, len(pending))
    journal = PoolJournal(
        pool_store.directory, defaults={"run": run_id}
    )
    store_dir = str(pool_store.directory)
    try:
        write_pool_meta(
            store_dir,
            run_id=run_id,
            n_items=len(sequence),
            n_workers=n_workers,
            seed=config.seed,
        )
    except OSError:
        # Metadata is observability; a flaky mount losing it costs
        # `repro status` its denominator, never the run.
        telemetry.counter_inc("pool.status_write_errors")

    all_codes: list[int] = []
    all_traces: list[str] = []
    with telemetry.span(
        "pool.run", n_items=len(sequence), n_workers=n_workers
    ):
        if pending:
            result.exit_codes, traces = _spawn_round(
                pending, store_dir, config, run_id, round_index=0
            )
            all_codes.extend(result.exit_codes)
            all_traces.extend(traces)
        round_index = 0
        while (
            round_index < _RESPAWN_ROUNDS
            and any(
                code in _RETRYABLE_CODES or code < 0
                for code in all_codes
            )
            and (pending := _pending(sequence, pool_store))
        ):
            round_index += 1
            respawn_codes, respawn_traces = _spawn_round(
                pending, store_dir, config, run_id, round_index
            )
            result.respawn_exit_codes += respawn_codes
            result.respawned += len(respawn_codes)
            all_codes.extend(respawn_codes)
            all_traces.extend(respawn_traces)
        result.parent_computed, result.reclaimed = _parent_sweep(
            sequence, pool_store, config, journal
        )
    # Post-sweep integrity pass.  The sweep guarantees every item was
    # *executed*, but a hostile filesystem can still leave an entry
    # torn (checksum-quarantined on load) or temporarily invisible
    # (NFS close-to-open).  Only a failed *load* convicts an entry —
    # a bare existence probe lies both ways on a stale mount — and a
    # convicted item is recomputed in-parent: a corrupt cache entry
    # costs a recompute, never the run.  An item that is genuinely
    # uncomputable raises its own ReproError out of the repair sweep,
    # with the same serial semantics as the main sweep.
    payloads = [pool_store.load(item.token) for item in sequence]
    invalid = tuple(
        item
        for item, payload in zip(sequence, payloads)
        if payload is None
    )
    if invalid:
        repaired, reclaimed = _parent_sweep(
            invalid, pool_store, config, journal
        )
        result.parent_computed += repaired
        result.reclaimed += reclaimed
        telemetry.counter_inc("pool.repaired", len(invalid))
        payloads = [
            pool_store.load(item.token) if payload is None else payload
            for item, payload in zip(sequence, payloads)
        ]
    families: dict[str, int] = {}
    for code in all_codes:
        label = exit_family(code)
        families[label] = families.get(label, 0) + 1
    result.exit_families = families
    result.worker_traces = tuple(all_traces)
    try:
        finalize_pool_meta(store_dir)
    except OSError:
        telemetry.counter_inc("pool.status_write_errors")

    telemetry.gauge_set("pool.workers", n_workers)
    telemetry.counter_inc("pool.items", len(sequence))
    telemetry.counter_inc("pool.parent_computed", result.parent_computed)
    telemetry.counter_inc("pool.reclaimed", result.reclaimed)
    if result.respawned:
        telemetry.counter_inc("pool.respawned", result.respawned)
    for label, count in sorted(families.items()):
        telemetry.counter_inc(f"pool.worker_exit.{label}", count)

    if config.merge_traces and result.worker_traces:
        from repro.runtime.telemetry.merge import merge_trace_files

        merged = str(
            Path(config.trace_dir or store_dir)
            / f"trace-{run_id}-merged.jsonl"
        )
        merge_trace_files(result.worker_traces, merged)
        result.merged_trace = merged
    return result, payloads


def pool_payloads(
    items: Sequence[WorkItem],
    store: CheckpointStore | None,
    config: PoolConfig,
) -> list:
    """Run the pool over ``items`` and return their payloads in order.

    Without a caller-provided store the pool runs over a temporary
    directory, removed before returning (the payloads are held in
    memory by then).  Each payload is the one the pool's integrity
    pass loaded; an entry that still cannot be loaded after the
    repair sweep (torn or hidden by a hostile filesystem) is
    recomputed in-parent through the item's own task.
    """
    temp_dir = None
    if store is None:
        temp_dir = tempfile.mkdtemp(prefix="repro-pool-")
        store = CheckpointStore(temp_dir, reuse=True)
    try:
        sequence = tuple(items)
        payloads = _run(sequence, store, config)[1]
        reader = (
            store
            if store.reuse
            else CheckpointStore(store.directory, reuse=True)
        )
        return [
            item.task(reader, *item.args) if payload is None else payload
            for item, payload in zip(sequence, payloads)
        ]
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)
