"""Parallel characterization pool: claims, sharding, workers.

Splits a characterization run across worker processes (and across
hosts sharing one checkpoint directory) without ever computing an item
twice or changing a single output byte relative to the serial run.

- :mod:`repro.runtime.pool.claims` — ``O_EXCL`` claim files with
  heartbeats and stale-claim reclamation (the cross-process mutex);
- :mod:`repro.runtime.pool.scheduler` — deterministic content-key
  sharding of :class:`WorkItem` lists;
- :mod:`repro.runtime.pool.journal` — append-only who-computed-what
  record backing the "never twice" invariant;
- :mod:`repro.runtime.pool.worker` — spawned worker lifecycle with
  per-error-family exit codes;
- :mod:`repro.runtime.pool.pool` — orchestration: spawn, respawn,
  parent sweep, trace merge;
- :mod:`repro.runtime.pool.status` — live run status: heartbeat
  files, run metadata, the ``repro status`` progress reader.

Submodules load lazily (PEP 562): importing the package costs nothing
until a name is touched, and ``pool.pool`` can lazily reach back into
:mod:`repro.runtime.checkpoint` without a cycle.
"""

from __future__ import annotations

from types import MappingProxyType

__all__ = [
    "ClaimInfo",
    "ClaimStore",
    "DEFAULT_CLAIM_TIMEOUT",
    "DEFAULT_STATUS_INTERVAL",
    "EXIT_CRASH",
    "EXIT_KILLED",
    "EXIT_OK",
    "JOURNAL_FILENAME",
    "META_FILENAME",
    "PoolConfig",
    "PoolJournal",
    "PoolResult",
    "PoolStatus",
    "StatusWriter",
    "WorkItem",
    "WorkerSpec",
    "WorkerStatus",
    "exit_family",
    "finalize_pool_meta",
    "pool_payloads",
    "read_pool_status",
    "render_status",
    "run_pool",
    "run_worker",
    "shard_of",
    "shards",
    "worker_main",
    "write_pool_meta",
]

#: Exported name -> defining submodule (read-only by construction).
_EXPORTS = MappingProxyType(
    {
        "ClaimInfo": "repro.runtime.pool.claims",
        "ClaimStore": "repro.runtime.pool.claims",
        "DEFAULT_CLAIM_TIMEOUT": "repro.runtime.pool.claims",
        "DEFAULT_STATUS_INTERVAL": "repro.runtime.pool.status",
        "EXIT_CRASH": "repro.runtime.pool.worker",
        "EXIT_KILLED": "repro.runtime.pool.worker",
        "EXIT_OK": "repro.runtime.pool.worker",
        "JOURNAL_FILENAME": "repro.runtime.pool.journal",
        "META_FILENAME": "repro.runtime.pool.status",
        "PoolConfig": "repro.runtime.pool.pool",
        "PoolJournal": "repro.runtime.pool.journal",
        "PoolResult": "repro.runtime.pool.pool",
        "PoolStatus": "repro.runtime.pool.status",
        "StatusWriter": "repro.runtime.pool.status",
        "WorkItem": "repro.runtime.pool.scheduler",
        "WorkerSpec": "repro.runtime.pool.worker",
        "WorkerStatus": "repro.runtime.pool.status",
        "exit_family": "repro.runtime.pool.pool",
        "finalize_pool_meta": "repro.runtime.pool.status",
        "pool_payloads": "repro.runtime.pool.pool",
        "read_pool_status": "repro.runtime.pool.status",
        "render_status": "repro.runtime.pool.status",
        "run_pool": "repro.runtime.pool.pool",
        "run_worker": "repro.runtime.pool.worker",
        "shard_of": "repro.runtime.pool.scheduler",
        "shards": "repro.runtime.pool.scheduler",
        "worker_main": "repro.runtime.pool.worker",
        "write_pool_meta": "repro.runtime.pool.status",
    }
)


def __getattr__(name: str) -> object:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(__all__)
