"""Zero-dependency observability: spans, metrics, structured emission.

Three parts (see DESIGN.md §"Telemetry schema"):

- :mod:`repro.runtime.telemetry.tracer`  — hierarchical wall/CPU-time
  spans with tags; ``NullTracer`` is the disabled default;
- :mod:`repro.runtime.telemetry.metrics` — counters, gauges and
  histograms with percentile summaries;
- :mod:`repro.runtime.telemetry.session` / ``sinks`` / ``summarize``
  — the per-run session, JSON-lines emission, run manifests and the
  ``repro trace summarize`` reader.

Production code uses only the module-level hooks re-exported here::

    from repro.runtime import telemetry

    with telemetry.span("em.fit", n=data.size):
        ...
    telemetry.observe("em.iterations", result.n_iter)

Without an activated session every hook is a cheap no-op (one function
call plus a shared null context manager), so the instrumented paths
stay within the <3% disabled-overhead budget enforced by
``benchmarks/bench_telemetry_overhead.py``.  The package imports
nothing from the rest of :mod:`repro` except :mod:`repro.errors`, so
any layer (stats, liberty, ssta) may instrument itself without import
cycles.
"""

from repro.runtime.telemetry.analyze import (
    PHASES,
    PhaseReport,
    TraceAnalysis,
    UnitReport,
    WorkerReport,
    analyze_trace,
    phase_of,
    phase_totals,
    render_analysis,
)
from repro.runtime.telemetry.merge import MERGE_SCHEMA, merge_trace_files
from repro.runtime.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.runtime.telemetry.session import (
    MANIFEST_SCHEMA,
    NEVER_SAMPLED,
    TelemetrySession,
    activate,
    active_session,
    checksum_text,
    counter_inc,
    gauge_set,
    observe,
    span,
)
from repro.runtime.telemetry.sinks import (
    CallableSink,
    JsonlSink,
    read_jsonl,
    read_jsonl_lenient,
)
from repro.runtime.telemetry.summarize import (
    TraceData,
    format_metrics,
    load_trace,
    summarize_trace,
)
from repro.runtime.telemetry.tracer import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
)

__all__ = [
    "CallableSink",
    "PHASES",
    "PhaseReport",
    "TraceAnalysis",
    "UnitReport",
    "WorkerReport",
    "analyze_trace",
    "phase_of",
    "phase_totals",
    "render_analysis",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MANIFEST_SCHEMA",
    "MERGE_SCHEMA",
    "MetricsRegistry",
    "NEVER_SAMPLED",
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "TelemetrySession",
    "TraceData",
    "Tracer",
    "activate",
    "active_session",
    "checksum_text",
    "counter_inc",
    "format_metrics",
    "gauge_set",
    "load_trace",
    "merge_trace_files",
    "observe",
    "percentile",
    "read_jsonl",
    "read_jsonl_lenient",
    "span",
    "summarize_trace",
]
