"""Telemetry sessions and the module-level instrumentation hooks.

A :class:`TelemetrySession` bundles one run's :class:`Tracer` and
:class:`MetricsRegistry` with any number of sinks.  Production code
never holds a session — it calls the module-level hooks
(:func:`span`, :func:`counter_inc`, :func:`observe`,
:func:`gauge_set`), which are cheap no-ops unless a session has been
activated with :func:`activate`, mirroring the fault-injection design
in :mod:`repro.runtime.faults`.

Activation is process-global (one run = one session); the tracer and
registry themselves are thread-safe, so parallel characterisation
workers inside the process share the session.  Cooperating *processes*
each build their own session and may append to a shared JSONL file —
span ids are only unique per process, so cross-process traces are
grouped by the session's ``run_id`` tag.

The session also assembles the end-of-run **run manifest**: config
hash, seed, per-phase self times, degradation counts, output
checksums — the machine-readable summary a scheduler reads instead of
scraping progress logs.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager, nullcontext

from repro.errors import ParameterError
from repro.runtime.telemetry.analyze import phase_totals
from repro.runtime.telemetry.metrics import MetricsRegistry
from repro.runtime.telemetry.sinks import CallableSink, JsonlSink
from repro.runtime.telemetry.tracer import NULL_TRACER, SpanRecord, Tracer

__all__ = [
    "MANIFEST_SCHEMA",
    "NEVER_SAMPLED",
    "TelemetrySession",
    "activate",
    "active_session",
    "checksum_text",
    "counter_inc",
    "gauge_set",
    "observe",
    "span",
]

#: Schema tag stamped into every run manifest.
MANIFEST_SCHEMA = "repro.run_manifest/2"

#: Span names exempt from sampling.  These are the low-frequency
#: structural spans (one per run / cell / arc / pin / worker) that
#: summaries, the work-unit and worker reports of ``repro trace
#: analyze`` and the parallel smoke checks key off — dropping any of
#: them would silently skew ``repro trace summarize`` and the merged
#: pool trace.  Only high-frequency leaf spans (e.g.
#: ``mc.condition``, one per grid point) are eligible for sampling;
#: error spans are never dropped regardless of name.
NEVER_SAMPLED = frozenset(
    {
        "characterize.run",
        "characterize.cell",
        "characterize.arc",
        "export.write",
        "liberty.tables",
        "pool.run",
        "pool.worker",
        "pool.item",
        "ssta.propagate",
        "experiment.table2",
        "yield.estimate",
    }
)


class TelemetrySession:
    """One run's tracer + metrics registry + sinks.

    Attributes:
        tracer: Hierarchical span collector.
        metrics: Counter/gauge/histogram registry.
        run_id: Short stable id tagging this session's records.
        sample: Sink-side span sampling rate in ``(0, 1]``.  At 1.0
            (default) every span record reaches the sinks.  Below 1.0,
            ``ok`` spans are downsampled **rate-adaptively per span
            name**: every name's first ``round(1/sample)`` occurrences
            always pass (so a rare span name is never thinned — only
            names frequent enough to fill a whole stride window get
            downsampled), after which every ``round(1/sample)``-th
            occurrence is kept.  Spans named in :data:`NEVER_SAMPLED`
            and spans whose status is not ``ok`` always pass.
            Sampling is sink-side only: the in-memory tracer keeps
            every span, so the manifest's phase times stay exact.
    """

    def __init__(
        self,
        *,
        trace_path: str | os.PathLike[str] | None = None,
        sinks=(),
        run_id: str | None = None,
        sample: float = 1.0,
    ) -> None:
        if not 0.0 < sample <= 1.0:
            raise ParameterError(
                f"trace sample rate must be in (0, 1], got {sample}"
            )
        self.sample = sample
        self._stride = max(1, round(1.0 / sample))
        self._span_counts: dict[str, int] = {}
        self._sample_lock = threading.Lock()
        self._sinks = [
            sink if hasattr(sink, "write") else CallableSink(sink)
            for sink in sinks
        ]
        if trace_path is not None:
            self._sinks.append(JsonlSink(trace_path))
        self.run_id = run_id or hashlib.sha256(
            f"{os.getpid()}|{time.time_ns()}".encode()
        ).hexdigest()[:12]
        self.tracer = Tracer(sink=self._emit_span)
        self.metrics = MetricsRegistry()
        self._started_at = time.time()
        self._closed = False

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit_span(self, record: SpanRecord) -> None:
        if self._stride > 1 and self._sampled_out(record):
            self.metrics.inc("telemetry.spans_sampled_out")
            return
        payload = record.to_dict()
        payload["run_id"] = self.run_id
        self.emit(payload)

    def _sampled_out(self, record: SpanRecord) -> bool:
        """True when this span record should be dropped by sampling."""
        if record.status != "ok" or record.name in NEVER_SAMPLED:
            return False
        with self._sample_lock:
            count = self._span_counts.get(record.name, 0)
            self._span_counts[record.name] = count + 1
        if count < self._stride:
            # Rate-adaptive grace window: a name must repeat beyond a
            # full stride before thinning starts, so span names too
            # rare to fill one window reach the sinks in full.
            return False
        return count % self._stride != 0

    def emit(self, record: dict) -> None:
        """Fan one record out to every sink."""
        for sink in self._sinks:
            sink.write(record)

    def add_sink(self, sink) -> None:
        """Attach another sink (object with ``write`` or a callable)."""
        self._sinks.append(
            sink if hasattr(sink, "write") else CallableSink(sink)
        )

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def manifest(self, **extra) -> dict:
        """Build the end-of-run manifest.

        Base keys: ``schema``, ``run_id``, ``started_at`` (epoch
        seconds), ``wall_total_s``, ``phases`` (per-phase self time
        in seconds, the numbers ``repro trace analyze`` reports for
        an unsampled trace), ``span_count`` and the full ``metrics``
        snapshot.  Keyword arguments are merged on
        top (callers add ``config_hash``, ``seed``, ``library`` ...).
        """
        base = {
            "schema": MANIFEST_SCHEMA,
            "run_id": self.run_id,
            "started_at": self._started_at,
            "wall_total_s": self.tracer.total_wall(),
            "phases": phase_totals(self.tracer.records()),
            "span_count": len(self.tracer),
            "metrics": self.metrics.snapshot(),
        }
        base.update(extra)
        return base

    def write_manifest(self, manifest: dict) -> None:
        """Emit ``manifest`` as a ``type: "manifest"`` trace record."""
        record = {"type": "manifest"}
        record.update(manifest)
        self.emit(record)

    def close(self) -> None:
        """Emit the final metrics record and release the sinks."""
        if self._closed:
            return
        self._closed = True
        self.emit(
            {
                "type": "metrics",
                "run_id": self.run_id,
                "metrics": self.metrics.snapshot(),
            }
        )
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


# ----------------------------------------------------------------------
# Active-session hooks (the no-op-cheap instrumentation surface)
# ----------------------------------------------------------------------
_ACTIVE: TelemetrySession | None = None

#: Shared no-op context manager returned while no session is active.
_NULL_SPAN = nullcontext()


def active_session() -> TelemetrySession | None:
    """The currently activated session, if any."""
    return _ACTIVE


@contextmanager
def activate(session: TelemetrySession):
    """Make ``session`` the process-wide telemetry target."""
    # Deliberate process-local activation: each parallel worker opens
    # its own session and the traces are merged afterwards (DESIGN.md
    # "Parallel-readiness rules").
    global _ACTIVE  # repro-lint: disable=PAR003
    previous = _ACTIVE
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = previous


def span(name: str, **tags: object):
    """Context manager timing one span; no-op without a session."""
    session = _ACTIVE
    if session is None:
        return _NULL_SPAN
    return session.tracer.span(name, **tags)


def counter_inc(name: str, amount: int = 1) -> None:
    """Increment a counter; no-op without a session."""
    session = _ACTIVE
    if session is not None:
        session.metrics.inc(name, amount)


def observe(name: str, value: float) -> None:
    """Record a histogram observation; no-op without a session."""
    session = _ACTIVE
    if session is not None:
        session.metrics.observe(name, value)


def gauge_set(name: str, value: float) -> None:
    """Set a gauge; no-op without a session."""
    session = _ACTIVE
    if session is not None:
        session.metrics.set_gauge(name, value)


def checksum_text(text: str) -> dict:
    """Checksum block for manifest output entries (sha256 + size)."""
    data = text.encode()
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
    }
