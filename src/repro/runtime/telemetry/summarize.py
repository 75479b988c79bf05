"""Trace-file summarisation: what ``repro trace summarize`` prints.

Reads a JSON-lines trace written by :class:`JsonlSink` back into span
records, the final metrics snapshot and the run manifest, then renders
an aggregated call-tree (span names grouped under their parent's name,
with counts and summed wall/CPU time), the per-phase self times, the
metrics table and the manifest highlights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime.telemetry.analyze import phase_totals
from repro.runtime.telemetry.sinks import read_jsonl
from repro.runtime.telemetry.tracer import SpanRecord

__all__ = [
    "TraceData",
    "format_metrics",
    "load_trace",
    "summarize_trace",
]


@dataclass
class TraceData:
    """Parsed content of one JSONL trace file.

    Attributes:
        spans: Every span record, file order.
        metrics: Last ``type: "metrics"`` snapshot (``{}`` if none).
        manifest: Last ``type: "manifest"`` record (``None`` if none).
        unknown: Count of records with an unrecognised ``type``.
    """

    spans: list[SpanRecord] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    manifest: dict | None = None
    unknown: int = 0


def load_trace(path: str | Path) -> TraceData:
    """Parse a JSONL trace file into :class:`TraceData`."""
    data = TraceData()
    for record in read_jsonl(path):
        kind = record.get("type")
        if kind == "span":
            data.spans.append(SpanRecord.from_dict(record))
        elif kind == "metrics":
            data.metrics = record.get("metrics", {})
        elif kind == "manifest":
            manifest = dict(record)
            manifest.pop("type", None)
            data.manifest = manifest
        else:
            data.unknown += 1
    return data


@dataclass
class _Node:
    """Aggregated spans sharing a name path under one parent node."""

    name: str
    count: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    errors: int = 0
    children: dict[str, "_Node"] = field(default_factory=dict)


def _build_tree(spans: list[SpanRecord]) -> _Node:
    by_id = {span.span_id: span for span in spans}

    def name_path(span: SpanRecord) -> tuple[str, ...]:
        path = [span.name]
        parent_id = span.parent_id
        while parent_id is not None:
            parent = by_id.get(parent_id)
            if parent is None:
                break
            path.append(parent.name)
            parent_id = parent.parent_id
        return tuple(reversed(path))

    root = _Node(name="")
    for span in spans:
        node = root
        for name in name_path(span):
            node = node.children.setdefault(name, _Node(name=name))
        node.count += 1
        node.wall += span.wall
        node.cpu += span.cpu
        if span.status != "ok":
            node.errors += 1
    return root


def _render_tree(node: _Node, depth: int, lines: list[str]) -> None:
    children = sorted(
        node.children.values(), key=lambda child: -child.wall
    )
    for child in children:
        errors = f"  errors={child.errors}" if child.errors else ""
        lines.append(
            f"  {'  ' * depth}{child.name:<{max(1, 34 - 2 * depth)}s}"
            f" {child.count:>6d}x  wall={child.wall:9.4f}s"
            f"  cpu={child.cpu:9.4f}s{errors}"
        )
        _render_tree(child, depth + 1, lines)


def format_metrics(snapshot: dict) -> str:
    """Render a metrics snapshot as an aligned text block."""
    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        lines.append(f"  counter   {name:<40s} {value}")
    for name, value in snapshot.get("gauges", {}).items():
        lines.append(f"  gauge     {name:<40s} {value}")
    for name, summary in snapshot.get("histograms", {}).items():
        if summary.get("count", 0) == 0:
            lines.append(f"  histogram {name:<40s} count=0")
            continue
        lines.append(
            f"  histogram {name:<40s} count={summary['count']}"
            f" mean={summary['mean']:.4g} p50={summary['p50']:.4g}"
            f" p90={summary['p90']:.4g} p99={summary['p99']:.4g}"
            f" max={summary['max']:.4g}"
        )
    return "\n".join(lines) if lines else "  (no metrics)"


def summarize_trace(data: TraceData) -> str:
    """Human-readable summary of a parsed trace."""
    lines: list[str] = []
    spans = data.spans
    if spans:
        start = min(span.start for span in spans)
        end = max(span.start + span.wall for span in spans)
        total = end - start
        lines.append(
            f"trace: {len(spans)} spans, wall total {total:.4f}s"
        )
        lines.append("spans (aggregated by call path):")
        _render_tree(_build_tree(spans), 0, lines)
        phases = phase_totals(spans)
        share = 100.0 * sum(phases.values()) / total if total > 0 else 0.0
        parts = "  ".join(
            f"{phase}={wall:.4f}s" for phase, wall in phases.items()
        )
        lines.append(f"phases: {parts}  (self time, {share:.1f}% of wall)")
    else:
        lines.append("trace: no spans")
    if data.metrics:
        lines.append("metrics:")
        lines.append(format_metrics(data.metrics))
    if data.manifest is not None:
        lines.append("manifest:")
        for key in sorted(data.manifest):
            if key in ("metrics", "phases"):
                continue
            lines.append(f"  {key}: {data.manifest[key]}")
    if data.unknown:
        lines.append(f"({data.unknown} unrecognised records skipped)")
    return "\n".join(lines)
