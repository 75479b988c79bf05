"""Pool worker: claim, compute, checkpoint, repeat.

A worker is a spawned process (``multiprocessing`` spawn context — no
inherited RNG state, no forked locks) that receives a picklable
:class:`WorkerSpec`, walks its content-key shard first, then steals
any still-incomplete items other workers have not claimed.  Each item
is executed at most once across the whole pool: the claim file is the
lock, the content-addressed checkpoint entry is the result, and the
pool journal records who actually computed what.

Per-worker randomness (the steal-order shuffle that decorrelates
workers racing on the same leftovers) comes from a dedicated stream
derived from ``(run seed, worker id)`` — never from OS entropy — so a
re-run schedules identically.  The shuffle is output-neutral: results
are content-addressed and assembled in serial order by the parent.

Exit codes carry the error family (the same codes the CLI uses, from
:data:`repro.errors.EXIT_CODES`), plus two pool-specific codes:
:data:`EXIT_KILLED` (75, ``EX_TEMPFAIL``) for an injected/simulated
kill — retryable, claims deliberately left behind — and
:data:`EXIT_CRASH` (70, ``EX_SOFTWARE``) for an unexpected exception.
"""

from __future__ import annotations

import os
import socket
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError, exit_code_for
from repro.runtime import faults, fsfaults, telemetry
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faults import FaultPlan, InjectedKill
from repro.runtime.fsfaults import FsFaultPlan, RetryPolicy
from repro.runtime.pool.claims import (
    DEFAULT_CLAIM_TIMEOUT,
    DEFAULT_SKEW_TOLERANCE,
    ClaimStore,
)
from repro.runtime.pool.journal import PoolJournal
from repro.runtime.pool.scheduler import WorkItem, shard_of, shards
from repro.runtime.pool.status import StatusWriter

__all__ = [
    "EXIT_CRASH",
    "EXIT_KILLED",
    "EXIT_OK",
    "WorkerSpec",
    "execute_item",
    "run_worker",
    "worker_main",
]

EXIT_OK = 0
#: Unexpected non-repro exception escaped the worker (EX_SOFTWARE).
EXIT_CRASH = 70
#: The worker died to an :class:`InjectedKill` (EX_TEMPFAIL —
#: retryable; its claims are deliberately left for reclamation).
EXIT_KILLED = 75


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one spawned worker needs (must pickle).

    Attributes:
        worker_id: This worker's shard index in ``[0, n_workers)``.
        n_workers: Total shard count (the sharding modulus).
        store_dir: Shared checkpoint/claim directory.
        items: The round's pending items; the worker derives its own
            shard.
        claim_timeout: Claim staleness threshold in seconds.
        seed: Run seed; the worker RNG stream derives from
            ``(seed, worker_id)``.
        trace_path: Per-worker JSONL trace file (None disables
            telemetry in the worker).
        trace_sample: Span sampling rate forwarded to the worker's
            telemetry session.
        run_id: Pool run id; the worker session tags records with
            ``"<run_id>-wNN"``.
        fault_plan: Fault-injection plan activated inside the worker
            (tests target individual workers with this).
        claim_skew: Clock-skew tolerance forwarded to the worker's
            :class:`ClaimStore` staleness judgements.
        fs_plan: Filesystem fault plan activated inside the worker
            (chaos tests target individual workers with this).
        fs_retry: Transient-filesystem-error retry policy installed in
            the worker process (None keeps the process default).
    """

    worker_id: int
    n_workers: int
    store_dir: str
    items: tuple[WorkItem, ...]
    claim_timeout: float = DEFAULT_CLAIM_TIMEOUT
    seed: int = 0
    trace_path: str | None = None
    trace_sample: float = 1.0
    run_id: str | None = None
    fault_plan: FaultPlan | None = field(default=None)
    claim_skew: float = DEFAULT_SKEW_TOLERANCE
    fs_plan: FsFaultPlan | None = field(default=None)
    fs_retry: RetryPolicy | None = field(default=None)


def execute_item(
    item: WorkItem,
    store: CheckpointStore,
    claims: ClaimStore,
    journal: PoolJournal,
    worker: str,
) -> bool:
    """Claim and compute one item; True when it is complete on disk.

    Returns False when a live foreign claim blocked the attempt.  On
    an :class:`InjectedKill` the claims are *not* released — the point
    of the injection is to leave the crash debris (stale claim, no
    payload) that reclamation is tested against, exactly as a real
    SIGKILL would.
    """
    if store.contains(item.token):
        return True
    if not claims.acquire(item.token, companions=item.companions):
        return False
    held = (item.token, *item.companions)
    try:
        with claims.hold(held):
            # Re-check after winning the claim: the previous owner may
            # have finished the payload before abandoning the claim.
            if not store.contains(item.token):
                with telemetry.span("pool.item", label=item.label):
                    payload = item.task(store, *item.args)
                store.save(item.token, payload)
                journal.append(
                    "task",
                    key=item.key,
                    label=item.label,
                    worker=worker,
                    host=socket.gethostname(),
                    pid=os.getpid(),
                    ts=time.time(),
                )
                telemetry.counter_inc("pool.items_computed")
    except InjectedKill:
        raise  # simulated hard death: leave the claims in place
    except BaseException:
        claims.release(held)
        raise
    claims.release(held)
    return True


def _drain(
    spec: WorkerSpec,
    store: CheckpointStore,
    claims: ClaimStore,
    journal: PoolJournal,
    rng: np.random.Generator,
    status: StatusWriter,
) -> ReproError | None:
    """Own shard first, then steal; returns the first terminal error.

    The loop exits when every item is complete, when a sweep makes no
    progress (everything left is live-claimed by someone else — their
    owner or the parent sweep will finish it), or on the first
    :class:`ReproError` (fail fast, like the serial path; the parent
    sweep re-raises it with full context).
    """
    mine = shards(spec.items, spec.n_workers)[spec.worker_id]
    others = [
        item
        for item in spec.items
        if shard_of(item, spec.n_workers) != spec.worker_id
    ]
    # Decorrelate racing stealers with the per-worker stream; the
    # completion *set* — not the visit order — determines the output.
    order = list(mine) + [
        others[index] for index in rng.permutation(len(others))
    ]
    incomplete = {item.token for item in order}
    worker = f"w{spec.worker_id:02d}"
    while incomplete:
        progressed = False
        for item in order:
            if item.token not in incomplete:
                continue
            status.update("working", item=item.label)
            try:
                done = execute_item(item, store, claims, journal, worker)
            except ReproError as error:
                telemetry.counter_inc("pool.item_errors")
                return error
            if done:
                status.advance()
                incomplete.discard(item.token)
                progressed = True
        if not progressed:
            break  # leftovers are live-claimed elsewhere
    return None


def run_worker(spec: WorkerSpec) -> int:
    """In-process worker body; returns the process exit code."""
    if spec.fs_retry is not None:
        fsfaults.set_retry_policy(spec.fs_retry)
    store = CheckpointStore(spec.store_dir, reuse=True)
    claims = ClaimStore(
        spec.store_dir,
        timeout=spec.claim_timeout,
        skew_tolerance=spec.claim_skew,
        owner=(
            f"{socket.gethostname()}:{os.getpid()}"
            f":w{spec.worker_id:02d}"
        ),
    )
    journal = PoolJournal(
        spec.store_dir,
        defaults={"run": spec.run_id} if spec.run_id else None,
    )
    status = StatusWriter(spec.store_dir, f"w{spec.worker_id:02d}")
    rng = np.random.default_rng(
        np.random.SeedSequence([spec.seed, spec.worker_id])
    )
    session = None
    if spec.trace_path:
        run_id = spec.run_id or "pool"
        session = telemetry.TelemetrySession(
            trace_path=spec.trace_path,
            run_id=f"{run_id}-w{spec.worker_id:02d}",
            sample=spec.trace_sample,
        )
    plan_context = (
        faults.inject(spec.fault_plan)
        if spec.fault_plan is not None
        else nullcontext()
    )
    fs_context = (
        fsfaults.inject_fs(spec.fs_plan)
        if spec.fs_plan is not None
        else nullcontext()
    )
    telemetry_context = (
        telemetry.activate(session)
        if session is not None
        else nullcontext()
    )
    error: ReproError | None = None
    try:
        with plan_context, fs_context, telemetry_context, telemetry.span(
            "pool.worker",
            worker=spec.worker_id,
            n_workers=spec.n_workers,
            n_items=len(spec.items),
        ):
            error = _drain(spec, store, claims, journal, rng, status)
    except InjectedKill:
        # A real SIGKILL would leave a truncated trace; flushing here
        # is a concession to inspectability — the *protocol* debris
        # (stale claims, missing payload) is identical either way.
        # The status file is deliberately NOT finalised: a killed
        # worker's last heartbeat stays "working" and goes stale,
        # which is exactly what `repro status` should show.
        if session is not None:
            session.close()
        return EXIT_KILLED
    except ReproError as terminal:
        status.close("error")
        if session is not None:
            session.close()
        return exit_code_for(terminal)
    except Exception:
        status.close("error")
        if session is not None:
            session.close()
        return EXIT_CRASH
    status.close("error" if error is not None else "done")
    if session is not None:
        session.close()
    if error is not None:
        return exit_code_for(error)
    return EXIT_OK


def worker_main(spec: WorkerSpec) -> None:
    """Spawn-process entry point."""
    sys.exit(run_worker(spec))
