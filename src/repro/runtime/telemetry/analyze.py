"""Trace analysis: waterfall, phase attribution, pool utilization.

``repro trace summarize`` answers "what ran"; this module answers
*where the time went*.  It consumes a parsed :class:`TraceData`
(serial trace or merged pool trace — the ``worker`` tag the merge
stamps onto every span is what separates the two) and produces one
:class:`TraceAnalysis` with four reports:

- **phase attribution** — every span's *self time* (wall minus the
  wall of its direct children) is charged to one phase derived from
  the span name (``lhs`` / ``mc`` / ``moments`` / ``kmeans`` / ``em``
  / ``fallback`` / ``checkpoint`` / ``export`` / ``fs`` / ``pool`` /
  ``status`` / ``other``).  Self-time attribution means nested spans
  never double count, and the phase walls sum to the accounted span
  time — this is the report the paper's Table 2 characterization-cost
  claims (and every later optimization PR) are judged against;
- **span waterfall** — the largest spans laid out on a text timeline
  (start offset → bar), so stragglers and serialization stalls are
  visible at a glance.  Offsets in a merged pool trace are relative
  to each worker's own tracer epoch (the merge leaves ``start``
  untouched), so bars align *within* a worker, not across workers;
- **worker utilization** — per ``worker`` label: lifetime
  (``pool.worker`` wall), busy time (summed ``pool.item`` walls),
  idle share, item count, and the longest idle gap between
  consecutive claims (a long gap means the worker starved waiting on
  live foreign claims);
- **stragglers / critical path** — the top-N slowest work units
  (``pool.item`` spans, or ``characterize.arc`` in a serial trace)
  and the worker whose lifetime bounds the pool's wall clock;
- **EM fit health** — from the trace's metrics record: EM fits, how
  many stopped at ``max_iter`` unconverged (``em.nonconverged``) and
  their share, the ``em.iterations`` p50/p90, and how many fits
  returned an iterate earlier than their last (``em.best_earlier``).

Everything here is read-side only: no imports beyond the telemetry
package itself, no filesystem access — callers load the trace with
:func:`~repro.runtime.telemetry.summarize.load_trace` first.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.runtime.telemetry.tracer import SpanRecord

if TYPE_CHECKING:
    from repro.runtime.telemetry.summarize import TraceData

__all__ = [
    "PHASES",
    "EMHealth",
    "PhaseReport",
    "TraceAnalysis",
    "UnitReport",
    "WorkerReport",
    "analyze_trace",
    "phase_of",
    "phase_totals",
    "render_analysis",
]

#: Span-name prefix -> phase label, matched in order (first wins).
#: The one place that decides which layer a span's time belongs to.
#: Kept as a tuple of pairs, not a dict: matching is ordered and the
#: table is read-only (PAR001).
_PHASE_PREFIXES: tuple[tuple[str, str], ...] = (
    ("lhs.", "lhs"),
    ("mc.", "mc"),
    ("moments.", "moments"),
    ("kmeans.", "kmeans"),
    ("em.", "em"),
    ("fit.ladder", "fallback"),
    ("fit.", "fitting"),
    ("checkpoint.", "checkpoint"),
    ("export.", "export"),
    ("liberty.", "export"),
    ("fs.", "fs"),
    ("status.", "status"),
    ("claim.", "pool"),
    ("pool.", "pool"),
    ("ssta.", "ssta"),
    ("characterize.", "characterize"),
    ("experiment", "experiment"),
)

#: Every phase label the prefix table can produce, plus the catch-all.
PHASES: tuple[str, ...] = tuple(
    dict.fromkeys([label for _, label in _PHASE_PREFIXES] + ["other"])
)

def phase_of(name: str) -> str:
    """Phase label for a span name (first matching prefix wins)."""
    for prefix, label in _PHASE_PREFIXES:
        if name.startswith(prefix):
            return label
    return "other"


@dataclass(frozen=True)
class PhaseReport:
    """Wall time charged to one phase.

    Attributes:
        phase: Phase label from :data:`PHASES`.
        wall: Summed self time of the phase's spans, seconds.
        count: Number of spans charged to the phase.
        share: ``wall`` as a fraction of the total accounted time.
    """

    phase: str
    wall: float
    count: int
    share: float

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "wall_s": self.wall,
            "count": self.count,
            "share": self.share,
        }


@dataclass(frozen=True)
class WorkerReport:
    """Utilization of one worker in a merged pool trace.

    Attributes:
        worker: Merge label (``w00``, ``r1-w00``, ``main``).
        wall: Worker lifetime — its ``pool.worker`` span's wall, or
            the span of its items when no lifetime span survived.
        busy: Summed wall of the worker's work-unit spans.
        items: Work units the worker executed.
        longest_gap: Longest idle stretch between consecutive units,
            seconds (0 with fewer than two units).
    """

    worker: str
    wall: float
    busy: float
    items: int
    longest_gap: float

    @property
    def utilization(self) -> float:
        """Busy share of the worker's lifetime, in [0, 1]."""
        return self.busy / self.wall if self.wall > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "wall_s": self.wall,
            "busy_s": self.busy,
            "items": self.items,
            "utilization": self.utilization,
            "longest_gap_s": self.longest_gap,
        }


@dataclass(frozen=True)
class UnitReport:
    """One work unit (for the straggler ranking).

    Attributes:
        label: The unit's ``label`` tag (or span name as fallback).
        worker: Merge label of the executing worker ("" when serial).
        wall: Unit wall seconds.
    """

    label: str
    worker: str
    wall: float

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "worker": self.worker,
            "wall_s": self.wall,
        }


@dataclass(frozen=True)
class EMHealth:
    """How a run's EM fits ended, from its metrics record.

    Attributes:
        fits: EM fits (``em.fits``), at least one.
        capped: Fits that stopped at ``max_iter`` unconverged
            (``em.nonconverged``).
        iterations_p50: Median of ``em.iterations``.
        iterations_p90: 90th percentile of ``em.iterations``.
        best_earlier: Fits whose returned iterate is not their last
            (``em.best_earlier``).
    """

    fits: int
    capped: int
    iterations_p50: float
    iterations_p90: float
    best_earlier: int

    @property
    def capped_share(self) -> float:
        """Share of the fits that hit the iteration cap, in [0, 1]."""
        return self.capped / self.fits

    def to_dict(self) -> dict:
        return {
            "fits": self.fits,
            "capped": self.capped,
            "capped_share": self.capped_share,
            "iterations_p50": self.iterations_p50,
            "iterations_p90": self.iterations_p90,
            "best_earlier": self.best_earlier,
        }


def _em_health(metrics: dict) -> EMHealth | None:
    """The EM fit-health numbers, or ``None`` when no EM fit ran."""
    counters = metrics.get("counters", {})
    fits = int(counters.get("em.fits", 0))
    if not fits:
        return None
    iterations = metrics.get("histograms", {}).get("em.iterations", {})
    return EMHealth(
        fits=fits,
        capped=int(counters.get("em.nonconverged", 0)),
        iterations_p50=float(iterations.get("p50", 0.0)),
        iterations_p90=float(iterations.get("p90", 0.0)),
        best_earlier=int(counters.get("em.best_earlier", 0)),
    )


@dataclass
class TraceAnalysis:
    """Everything ``repro trace analyze`` reports.

    Attributes:
        total_wall: Earliest start to latest end over all spans.
        accounted_wall: Summed self time over all spans (the phase
            denominators).
        span_count: Spans analyzed.
        phases: Per-phase attribution, largest first.
        workers: Per-worker utilization, worker order (empty for a
            serial trace).
        stragglers: Slowest work units, slowest first.
        critical: The worker bounding the pool wall clock, or None.
        waterfall: Largest spans in start order (for rendering).
        em: EM fit health, or None when the trace's metrics record
            no EM fit.
    """

    total_wall: float = 0.0
    accounted_wall: float = 0.0
    span_count: int = 0
    phases: list[PhaseReport] = field(default_factory=list)
    workers: list[WorkerReport] = field(default_factory=list)
    stragglers: list[UnitReport] = field(default_factory=list)
    critical: WorkerReport | None = None
    waterfall: list[SpanRecord] = field(default_factory=list)
    em: EMHealth | None = None

    def to_dict(self, *, top: int = 10) -> dict:
        """JSON view (``repro trace analyze --json``)."""
        return {
            "schema": "repro.trace_analysis/1",
            "total_wall_s": self.total_wall,
            "accounted_wall_s": self.accounted_wall,
            "span_count": self.span_count,
            "phases": [phase.to_dict() for phase in self.phases],
            "workers": [worker.to_dict() for worker in self.workers],
            "stragglers": [
                unit.to_dict() for unit in self.stragglers[:top]
            ],
            "critical_worker": (
                None if self.critical is None else self.critical.to_dict()
            ),
            "em": None if self.em is None else self.em.to_dict(),
        }


def _self_times(spans: Sequence[SpanRecord]) -> dict[int, float]:
    """Per-span self time: wall minus the direct children's wall.

    Clamped at zero — a child that outlives its parent (clock jitter,
    or a merged trace whose parent edge crossed a truncated tail)
    must not produce negative attribution.
    """
    child_wall: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_wall[span.parent_id] = (
                child_wall.get(span.parent_id, 0.0) + span.wall
            )
    return {
        span.span_id: max(0.0, span.wall - child_wall.get(span.span_id, 0.0))
        for span in spans
    }


def phase_totals(spans: Sequence[SpanRecord]) -> dict[str, float]:
    """Summed self time per phase, seconds, largest first.

    The one per-layer sum: ``repro trace analyze``, the run manifest's
    ``phases`` and ``repro trace summarize`` all report it.
    """
    self_times = _self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        phase = phase_of(span.name)
        totals[phase] = totals.get(phase, 0.0) + self_times[span.span_id]
    return dict(sorted(totals.items(), key=lambda item: -item[1]))


def _worker_of(span: SpanRecord) -> str:
    return str(span.tags.get("worker", ""))


def _unit_spans(spans: list[SpanRecord]) -> list[SpanRecord]:
    """The work-unit spans of a trace, preferring the finest kind.

    A merged pool trace has ``pool.item`` spans; a serial trace only
    has ``characterize.arc``.  Only the first kind present is used, so
    a pool trace does not double-report the nested serial spans.
    """
    for name in ("pool.item", "characterize.arc"):
        units = [span for span in spans if span.name == name]
        if units:
            return units
    return []


def _unit_label(span: SpanRecord) -> str:
    label = span.tags.get("label")
    if label:
        return str(label)
    parts = [
        str(span.tags[key])
        for key in ("cell", "pin", "transition", "slew_index", "load_index")
        if key in span.tags
    ]
    return "/".join(parts) if parts else span.name


def _worker_reports(spans: list[SpanRecord]) -> list[WorkerReport]:
    units = [
        span for span in _unit_spans(spans) if span.name == "pool.item"
    ]
    lifetimes: dict[str, float] = {}
    for span in spans:
        if span.name == "pool.worker":
            worker = _worker_of(span)
            lifetimes[worker] = max(
                lifetimes.get(worker, 0.0), span.wall
            )
    by_worker: dict[str, list[SpanRecord]] = {}
    for span in units:
        by_worker.setdefault(_worker_of(span), []).append(span)
    reports = []
    for worker in sorted(set(lifetimes) | set(by_worker)):
        mine = sorted(
            by_worker.get(worker, []), key=lambda span: span.start
        )
        busy = sum(span.wall for span in mine)
        longest_gap = 0.0
        for previous, current in zip(mine, mine[1:]):
            gap = current.start - (previous.start + previous.wall)
            longest_gap = max(longest_gap, gap)
        reports.append(
            WorkerReport(
                worker=worker,
                wall=lifetimes.get(worker, busy),
                busy=busy,
                items=len(mine),
                longest_gap=longest_gap,
            )
        )
    return reports


def analyze_trace(data: TraceData, *, top: int = 10) -> TraceAnalysis:
    """Analyze a parsed trace; see the module docs for the reports.

    Args:
        data: Output of
            :func:`~repro.runtime.telemetry.summarize.load_trace`.
        top: How many stragglers and waterfall rows to keep.
    """
    analysis = TraceAnalysis(em=_em_health(data.metrics))
    spans = data.spans
    analysis.span_count = len(spans)
    if not spans:
        return analysis
    start = min(span.start for span in spans)
    end = max(span.start + span.wall for span in spans)
    analysis.total_wall = end - start

    phase_wall = phase_totals(spans)
    phase_count = Counter(phase_of(span.name) for span in spans)
    accounted = sum(phase_wall.values())
    analysis.accounted_wall = accounted
    analysis.phases = [
        PhaseReport(
            phase=phase,
            wall=wall,
            count=phase_count[phase],
            share=wall / accounted if accounted > 0 else 0.0,
        )
        for phase, wall in phase_wall.items()
    ]

    analysis.workers = _worker_reports(spans)
    if analysis.workers:
        analysis.critical = max(
            analysis.workers, key=lambda report: report.wall
        )

    units = _unit_spans(spans)
    analysis.stragglers = [
        UnitReport(
            label=_unit_label(span),
            worker=_worker_of(span),
            wall=span.wall,
        )
        for span in sorted(units, key=lambda span: -span.wall)[:top]
    ]

    analysis.waterfall = sorted(
        sorted(spans, key=lambda span: -span.wall)[:top],
        key=lambda span: span.start,
    )
    return analysis


_BAR_WIDTH = 40


def _waterfall_bar(
    span: SpanRecord, t0: float, total: float
) -> str:
    """One waterfall row's bar: offset dots, duration hashes."""
    if total <= 0:
        return "#" * _BAR_WIDTH
    lead = int((span.start - t0) / total * _BAR_WIDTH)
    lead = min(lead, _BAR_WIDTH - 1)
    body = max(1, round(span.wall / total * _BAR_WIDTH))
    body = min(body, _BAR_WIDTH - lead)
    return "." * lead + "#" * body + " " * (_BAR_WIDTH - lead - body)


def render_analysis(analysis: TraceAnalysis, *, top: int = 10) -> str:
    """Human-readable report (what ``repro trace analyze`` prints)."""
    lines: list[str] = []
    if analysis.span_count == 0:
        return "trace: no spans to analyze"
    lines.append(
        f"trace: {analysis.span_count} spans, "
        f"wall {analysis.total_wall:.4f}s, "
        f"accounted {analysis.accounted_wall:.4f}s"
    )
    lines.append("phases (self-time attribution):")
    for phase in analysis.phases:
        lines.append(
            f"  {phase.phase:<14s} {phase.wall:9.4f}s "
            f"{100.0 * phase.share:5.1f}%  spans={phase.count}"
        )
    if analysis.em is not None:
        em = analysis.em
        lines.append(
            f"EM fit health: {em.fits} fits, {em.capped} capped "
            f"({100.0 * em.capped_share:.1f}%), iterations "
            f"p50={em.iterations_p50:g} p90={em.iterations_p90:g}, "
            f"best_earlier={em.best_earlier}"
        )
    if analysis.workers:
        lines.append("workers:")
        for report in analysis.workers:
            lines.append(
                f"  {report.worker:<14s} items={report.items:<4d} "
                f"busy={report.busy:8.4f}s of {report.wall:8.4f}s "
                f"({100.0 * report.utilization:5.1f}%) "
                f"longest_gap={report.longest_gap:.4f}s"
            )
        if analysis.critical is not None:
            lines.append(
                f"critical path: worker {analysis.critical.worker} "
                f"({analysis.critical.wall:.4f}s lifetime bounds the "
                "pool wall clock)"
            )
    if analysis.stragglers:
        lines.append(f"slowest work units (top {top}):")
        for unit in analysis.stragglers[:top]:
            where = f" [{unit.worker}]" if unit.worker else ""
            lines.append(f"  {unit.wall:9.4f}s  {unit.label}{where}")
    if analysis.waterfall:
        t0 = min(span.start for span in analysis.waterfall)
        span_end = max(
            span.start + span.wall for span in analysis.waterfall
        )
        total = span_end - t0
        lines.append(
            f"waterfall (top {top} spans by wall; offsets are "
            "per-worker-relative in merged traces):"
        )
        for span in analysis.waterfall[:top]:
            worker = _worker_of(span)
            tag = f" [{worker}]" if worker else ""
            if "blocks" in span.tags:
                # How a batched EM fit split its grid into row blocks.
                tag += (
                    f" blocks={span.tags['blocks']}"
                    f" block_rows={span.tags.get('block_rows')}"
                )
            lines.append(
                f"  {_waterfall_bar(span, t0, total)} "
                f"{span.name}{tag} {span.wall:.4f}s"
            )
    return "\n".join(lines)
