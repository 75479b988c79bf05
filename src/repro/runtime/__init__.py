"""Fault-tolerant runtime layer for long-running pipelines.

This package makes library-scale characterisation and the experiment
drivers survivable, observable and testable under failure:

- :mod:`repro.runtime.policy`     — the FitPolicy fallback ladder
  (LVF2 → reseeded LVF2 → Norm2 → LVF → Gaussian → placeholder);
- :mod:`repro.runtime.report`     — structured :class:`FitReport` of
  which rung every arc-condition landed on plus quarantined arcs;
- :mod:`repro.runtime.checkpoint` — content-addressed per-arc
  checkpoints with atomic writes, resume and garbage collection;
- :mod:`repro.runtime.faults`     — deterministic fault injection
  (NaN samples, forced EM non-convergence, mid-run kills, truncated
  or fsync-failing Liberty exports);
- :mod:`repro.runtime.fsfaults`   — flaky-filesystem fault model and
  the retrying FS-access seam the checkpoint/claim/journal/export
  layers route through (transient EIO/ESTALE/ENOSPC, torn writes,
  stale listings, clock-skewed mtimes);
- :mod:`repro.runtime.export`     — verified atomic text export;
- :mod:`repro.runtime.progress`   — logging-based progress reporting;
- :mod:`repro.runtime.telemetry`  — hierarchical tracing, metrics
  registry and structured run manifests;
- :mod:`repro.runtime.pool`       — parallel characterisation worker
  pool: claim-file coordination over the checkpoint directory,
  deterministic content-key sharding, per-worker traces merged at
  shutdown;
- :mod:`repro.runtime.fanout`     — runs the independent row blocks of
  one EM call on every usable core (spawned helpers, inline fallback).

The layering is strictly below :mod:`repro.circuits` and
:mod:`repro.experiments`: those packages import the runtime, never the
reverse.  Exports are resolved lazily (PEP 562) so low-level packages
(:mod:`repro.stats`, :mod:`repro.liberty`) can import
:mod:`repro.runtime.telemetry` for instrumentation without pulling the
policy ladder — which imports the model registry and the stats core —
back in underneath them.
"""

from __future__ import annotations

from importlib import import_module
from types import MappingProxyType

#: Exported name -> defining submodule (resolved on first access).
#: Read-only so parallel workers can never diverge on the export map.
_EXPORTS = MappingProxyType({
    "CheckpointStore": "repro.runtime.checkpoint",
    "ClaimStore": "repro.runtime.pool.claims",
    "PoolConfig": "repro.runtime.pool.pool",
    "PoolResult": "repro.runtime.pool.pool",
    "WorkItem": "repro.runtime.pool.scheduler",
    "run_pool": "repro.runtime.pool.pool",
    "merge_trace_files": "repro.runtime.telemetry.merge",
    "FaultPlan": "repro.runtime.faults",
    "FaultRule": "repro.runtime.faults",
    "InjectedKill": "repro.runtime.faults",
    "inject": "repro.runtime.faults",
    "FsFaultPlan": "repro.runtime.fsfaults",
    "FsFaultRule": "repro.runtime.fsfaults",
    "RetryPolicy": "repro.runtime.fsfaults",
    "inject_fs": "repro.runtime.fsfaults",
    "DEFAULT_RUNGS": "repro.runtime.policy",
    "FitPolicy": "repro.runtime.policy",
    "ProgressReporter": "repro.runtime.progress",
    "configure_progress_logging": "repro.runtime.progress",
    "FitAttempt": "repro.runtime.report",
    "FitContext": "repro.runtime.report",
    "FitOutcome": "repro.runtime.report",
    "FitRecord": "repro.runtime.report",
    "FitReport": "repro.runtime.report",
    "QuarantineRecord": "repro.runtime.report",
    "write_text_file": "repro.runtime.export",
    "TelemetrySession": "repro.runtime.telemetry",
    "telemetry": "repro.runtime",
})

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name == "telemetry":
        return import_module("repro.runtime.telemetry")
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(import_module(module_name), name)


def __dir__() -> list[str]:
    return __all__
