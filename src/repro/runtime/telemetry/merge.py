"""Merge per-worker JSONL traces into one coherent trace file.

Each pool worker process writes its own trace (span ids are only
unique per process; ``start`` offsets are relative to each tracer's
own epoch).  :func:`merge_trace_files` folds any number of such files
into a single trace that ``repro trace summarize`` reads like any
other:

- **span ids** are remapped with a per-file offset so they stay unique
  across the merged file, preserving each file's parent/child edges;
- every span's tags gain a ``worker: <label>`` entry naming its source
  (labels default to the source file stems), so the aggregated call
  tree shows who did what;
- **metrics** are combined: counters sum, gauges keep the maximum
  across sources (they are level readings — worker counts, queue
  depths — where the high-water mark is the useful merge), histograms
  merge exactly for count/mean/min/max and *approximately* for
  percentiles (count-weighted average of the per-source percentiles —
  cheap, and close enough for the merged overview; read the per-worker
  file when a percentile matters);
- **manifests** from the sources pass through unchanged, and the
  merged metrics plus a ``repro.trace_merge/1`` manifest are written
  *last*, so ``load_trace``'s last-record-wins rule surfaces the
  merged view while the per-worker records stay greppable.

Files are read leniently: a truncated final line — the signature of a
worker killed mid-write, which is exactly when traces get merged — is
counted and skipped instead of raising.  ``start`` offsets are left
untouched, so the merged timeline is per-worker-relative, not a global
clock; cross-worker ordering comes from the pool journal, not spans.

The output is written via :class:`JsonlSink` to a temporary file and
atomically renamed over the destination, so the destination may be one
of the inputs (the CLI merges worker traces *into* the main trace).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.errors import ParameterError
from repro.runtime.telemetry.sinks import JsonlSink, read_jsonl_lenient

__all__ = ["MERGE_SCHEMA", "merge_trace_files"]

#: Schema tag of the manifest record appended to every merged trace.
MERGE_SCHEMA = "repro.trace_merge/1"


def _merge_histogram(parts: list[dict]) -> dict:
    """Combine histogram summaries; percentiles are approximate."""
    live = [part for part in parts if part.get("count", 0) > 0]
    total = sum(part["count"] for part in live)
    if total == 0:
        return {"count": 0}
    merged = {
        "count": total,
        "mean": sum(part["count"] * part["mean"] for part in live)
        / total,
        "min": min(part["min"] for part in live),
        "max": max(part["max"] for part in live),
    }
    for quantile in ("p50", "p90", "p99"):
        merged[quantile] = (
            sum(part["count"] * part[quantile] for part in live) / total
        )
    return merged


def merge_trace_files(
    paths,
    out: str | os.PathLike[str],
    *,
    labels=None,
) -> dict:
    """Merge trace files into ``out``; returns the merge manifest.

    Args:
        paths: Source trace files, merged in the given order.
        out: Destination path (may be one of the sources; the write is
            staged to a temporary file and renamed over it).
        labels: Per-source worker labels for the ``worker`` span tag;
            defaults to the source file stems.

    Raises:
        ParameterError: No sources, label/source count mismatch, or a
            source file that is corrupt beyond a truncated tail.
    """
    sources = [str(path) for path in paths]
    if not sources:
        raise ParameterError("no trace files to merge")
    if labels is None:
        labels = [Path(source).stem for source in sources]
    labels = [str(label) for label in labels]
    if len(labels) != len(sources):
        raise ParameterError(
            f"{len(sources)} trace files but {len(labels)} labels"
        )
    out_path = Path(out)
    staging = out_path.with_name(out_path.name + ".tmp")

    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histogram_parts: dict[str, list[dict]] = {}
    source_summaries: list[dict] = []
    total_spans = 0
    total_skipped = 0

    sink = JsonlSink(staging)
    try:
        offset = 0
        for source, label in zip(sources, labels):
            records, skipped = read_jsonl_lenient(source)
            total_skipped += skipped
            max_id = 0
            span_count = 0
            file_metrics: dict = {}
            run_id = None
            for record in records:
                kind = record.get("type")
                if kind == "span":
                    span = dict(record)
                    span_id = int(span.get("span_id", 0))
                    max_id = max(max_id, span_id)
                    span["span_id"] = span_id + offset
                    parent_id = span.get("parent_id")
                    if parent_id is not None:
                        span["parent_id"] = int(parent_id) + offset
                    tags = dict(span.get("tags") or {})
                    tags["worker"] = label
                    span["tags"] = tags
                    run_id = span.get("run_id", run_id)
                    sink.write(span)
                    span_count += 1
                elif kind == "metrics":
                    # Mirrors load_trace: the last snapshot in a file
                    # is that file's final state.
                    file_metrics = record.get("metrics", {})
                    run_id = record.get("run_id", run_id)
                else:
                    # Manifests and unknown record kinds pass through.
                    sink.write(record)
            for name, value in file_metrics.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in file_metrics.get("gauges", {}).items():
                if value is None:
                    continue
                gauges[name] = (
                    value
                    if name not in gauges
                    else max(gauges[name], value)
                )
            for name, summary in file_metrics.get(
                "histograms", {}
            ).items():
                histogram_parts.setdefault(name, []).append(summary)
            source_summaries.append(
                {
                    "path": source,
                    "label": label,
                    "run_id": run_id,
                    "spans": span_count,
                    "truncated": bool(skipped),
                }
            )
            total_spans += span_count
            offset += max_id
        merged_metrics = {
            "counters": {
                name: counters[name] for name in sorted(counters)
            },
            "gauges": {name: gauges[name] for name in sorted(gauges)},
            "histograms": {
                name: _merge_histogram(histogram_parts[name])
                for name in sorted(histogram_parts)
            },
        }
        manifest = {
            "schema": MERGE_SCHEMA,
            "sources": source_summaries,
            "span_count": total_spans,
            "truncated_sources": total_skipped,
        }
        sink.write(
            {
                "type": "metrics",
                "run_id": "merged",
                "metrics": merged_metrics,
            }
        )
        record = {"type": "manifest"}
        record.update(manifest)
        sink.write(record)
    except BaseException:
        sink.close()
        staging.unlink(missing_ok=True)
        raise
    sink.close()
    os.replace(staging, out_path)
    return manifest
