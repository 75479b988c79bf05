"""Tests for trace analysis: phases, waterfall, worker utilization.

Builds synthetic :class:`SpanRecord` lists (no live tracer, no
filesystem) so each report's arithmetic — self-time attribution,
busy/idle accounting, straggler ranking, critical-path selection —
is checked against hand-computed values.
"""

from __future__ import annotations

from pathlib import Path

from repro.runtime import telemetry
from repro.runtime.telemetry import (
    PHASES,
    SpanRecord,
    TraceData,
    analyze_trace,
    phase_of,
    render_analysis,
)

GOLDEN_LIB = (
    Path(__file__).resolve().parents[1]
    / "integration"
    / "golden"
    / "inv_nand2_grid2_s128_seed7.lib"
)


def span(
    name,
    span_id,
    *,
    parent_id=None,
    start=0.0,
    wall=1.0,
    tags=None,
):
    return SpanRecord(
        name=name,
        span_id=span_id,
        parent_id=parent_id,
        start=start,
        wall=wall,
        cpu=0.0,
        tags=dict(tags or {}),
    )


def trace(spans):
    return TraceData(spans=list(spans))


class TestPhaseOf:
    def test_prefix_table(self):
        cases = {
            "lhs.sample": "lhs",
            "mc.condition": "mc",
            "moments.sample": "moments",
            "kmeans.seed": "kmeans",
            "em.fit": "em",
            "fit.ladder": "fallback",
            "fit.gaussian": "fitting",
            "checkpoint.load": "checkpoint",
            "export.lib": "export",
            "liberty.write": "export",
            "fs.read_text": "fs",
            "status.write": "status",
            "claim.acquire": "pool",
            "pool.item": "pool",
            "ssta.max": "ssta",
            "characterize.point": "characterize",
            "experiment": "experiment",
            "something.else": "other",
        }
        for name, expected in cases.items():
            assert phase_of(name) == expected, name

    def test_first_prefix_wins(self):
        # fit.ladder must hit the fallback row, not the broader fit. row.
        assert phase_of("fit.ladder.step") == "fallback"

    def test_phases_cover_table_and_other(self):
        assert "other" in PHASES
        assert phase_of("no.such.prefix") in PHASES


class TestSelfTimeAttribution:
    def test_nested_spans_do_not_double_count(self):
        # Parent (3s) with a child (2s): parent's self time is 1s.
        spans = [
            span("characterize.arc", 1, wall=3.0),
            span("em.fit", 2, parent_id=1, start=0.5, wall=2.0),
        ]
        analysis = analyze_trace(trace(spans))
        by_phase = {p.phase: p for p in analysis.phases}
        assert by_phase["characterize"].wall == 1.0
        assert by_phase["em"].wall == 2.0
        assert analysis.accounted_wall == 3.0

    def test_child_outliving_parent_clamps_to_zero(self):
        spans = [
            span("characterize.arc", 1, wall=1.0),
            span("em.fit", 2, parent_id=1, wall=5.0),
        ]
        analysis = analyze_trace(trace(spans))
        by_phase = {p.phase: p for p in analysis.phases}
        assert by_phase["characterize"].wall == 0.0
        assert by_phase["em"].wall == 5.0

    def test_shares_sum_to_one(self):
        spans = [
            span("lhs.sample", 1, wall=1.0),
            span("em.fit", 2, wall=3.0),
        ]
        analysis = analyze_trace(trace(spans))
        assert sum(p.share for p in analysis.phases) == 1.0
        # Largest phase first.
        assert analysis.phases[0].phase == "em"

    def test_empty_trace(self):
        analysis = analyze_trace(trace([]))
        assert analysis.span_count == 0
        assert analysis.phases == []
        assert render_analysis(analysis) == "trace: no spans to analyze"


class TestLibertyReadPath:
    def test_read_and_validate_land_in_export(self):
        from repro.liberty import read_library, validate_library

        text = GOLDEN_LIB.read_text()
        session = telemetry.TelemetrySession()
        with telemetry.activate(session):
            assert validate_library(read_library(text)) == []
        records = session.tracer.records()
        counters = session.metrics.snapshot()["counters"]
        session.close()

        by_name = {record.name: record for record in records}
        assert {"liberty.parse", "liberty.validate"} <= set(by_name)
        assert phase_of("liberty.parse") == "export"
        assert phase_of("liberty.validate") == "export"
        assert counters["liberty.parsed_bytes"] == len(text)
        analysis = analyze_trace(TraceData(spans=list(records)))
        assert [p.phase for p in analysis.phases] == ["export"]
        assert telemetry.phase_totals(records).keys() == {"export"}


class TestWorkerReports:
    def _pool_spans(self):
        # Two workers: w00 runs two items with a 1s gap, w01 runs one.
        return [
            span("pool.worker", 1, wall=10.0, tags={"worker": "w00"}),
            span(
                "pool.item",
                2,
                parent_id=1,
                start=0.0,
                wall=3.0,
                tags={"worker": "w00", "label": "INV/Y/rise"},
            ),
            span(
                "pool.item",
                3,
                parent_id=1,
                start=4.0,
                wall=4.0,
                tags={"worker": "w00", "label": "NAND2/Y/fall"},
            ),
            span("pool.worker", 4, wall=6.0, tags={"worker": "w01"}),
            span(
                "pool.item",
                5,
                parent_id=4,
                start=0.0,
                wall=5.0,
                tags={"worker": "w01", "label": "XOR2/Y/rise"},
            ),
        ]

    def test_busy_items_utilization_gap(self):
        analysis = analyze_trace(trace(self._pool_spans()))
        by_worker = {w.worker: w for w in analysis.workers}
        assert set(by_worker) == {"w00", "w01"}
        w00 = by_worker["w00"]
        assert w00.wall == 10.0
        assert w00.busy == 7.0
        assert w00.items == 2
        assert w00.utilization == 0.7
        # Gap between item end (3.0) and next start (4.0).
        assert w00.longest_gap == 1.0
        w01 = by_worker["w01"]
        assert w01.items == 1
        assert w01.longest_gap == 0.0

    def test_critical_path_is_longest_lifetime(self):
        analysis = analyze_trace(trace(self._pool_spans()))
        assert analysis.critical is not None
        assert analysis.critical.worker == "w00"

    def test_items_without_lifetime_span_fall_back_to_busy(self):
        spans = [
            span(
                "pool.item",
                1,
                wall=2.0,
                tags={"worker": "w03", "label": "a"},
            ),
        ]
        analysis = analyze_trace(trace(spans))
        (report,) = analysis.workers
        assert report.worker == "w03"
        assert report.wall == 2.0
        assert report.utilization == 1.0

    def test_serial_trace_has_no_workers(self):
        spans = [span("characterize.arc", 1, wall=1.0)]
        analysis = analyze_trace(trace(spans))
        assert analysis.workers == []
        assert analysis.critical is None


class TestStragglers:
    def test_ranked_slowest_first_and_top_limits(self):
        spans = [
            span(
                "pool.item",
                i,
                wall=float(i),
                tags={"worker": "w00", "label": f"unit{i}"},
            )
            for i in range(1, 6)
        ]
        analysis = analyze_trace(trace(spans), top=3)
        assert [u.label for u in analysis.stragglers] == [
            "unit5",
            "unit4",
            "unit3",
        ]

    def test_prefers_pool_items_over_nested_serial_spans(self):
        spans = [
            span("pool.item", 1, wall=4.0, tags={"label": "outer"}),
            span(
                "characterize.arc",
                2,
                parent_id=1,
                wall=3.0,
                tags={"label": "inner"},
            ),
        ]
        analysis = analyze_trace(trace(spans))
        assert [u.label for u in analysis.stragglers] == ["outer"]

    def test_label_fallback_from_part_tags(self):
        spans = [
            span(
                "characterize.arc",
                1,
                wall=1.0,
                tags={"cell": "INV", "pin": "Y", "transition": "rise"},
            ),
        ]
        analysis = analyze_trace(trace(spans))
        assert analysis.stragglers[0].label == "INV/Y/rise"


class TestSerialization:
    def test_to_dict_schema_and_top(self):
        spans = [
            span(
                "pool.item",
                i,
                wall=float(i),
                tags={"worker": "w00", "label": f"u{i}"},
            )
            for i in range(1, 15)
        ]
        report = analyze_trace(trace(spans), top=20).to_dict(top=5)
        assert report["schema"] == "repro.trace_analysis/1"
        assert report["span_count"] == 14
        assert len(report["stragglers"]) == 5
        assert report["critical_worker"]["worker"] == "w00"

    def test_render_sections(self):
        spans = [
            span("pool.worker", 1, wall=5.0, tags={"worker": "w00"}),
            span(
                "pool.item",
                2,
                parent_id=1,
                wall=4.0,
                tags={"worker": "w00", "label": "INV/Y/rise"},
            ),
        ]
        text = render_analysis(analyze_trace(trace(spans)))
        assert "phases (self-time attribution):" in text
        assert "workers:" in text
        assert "critical path: worker w00" in text
        assert "slowest work units" in text
        assert "waterfall" in text
        assert "#" in text  # at least one bar body

    def test_waterfall_shows_em_block_split(self):
        spans = [
            span(
                "em.fit_batch",
                1,
                wall=2.0,
                tags={"n_points": 64, "blocks": 4, "block_rows": 16},
            ),
            span("em.fit", 2, start=2.0, wall=1.0),
        ]
        lines = render_analysis(analyze_trace(trace(spans))).splitlines()
        (batch,) = [line for line in lines if "em.fit_batch" in line]
        assert "blocks=4 block_rows=16" in batch
        (single,) = [line for line in lines if line.endswith("em.fit 1.0000s")]
        assert "blocks=" not in single


class TestEMHealth:
    METRICS = {
        "counters": {
            "em.fits": 8,
            "em.nonconverged": 2,
            "em.best_earlier": 3,
        },
        "histograms": {
            "em.iterations": {"count": 8, "p50": 41.0, "p90": 200.0}
        },
    }

    def test_line_from_metrics(self):
        data = TraceData(spans=[span("em.fit", 1)], metrics=self.METRICS)
        lines = render_analysis(analyze_trace(data)).splitlines()
        assert (
            "EM fit health: 8 fits, 2 capped (25.0%), iterations "
            "p50=41 p90=200, best_earlier=3"
        ) in lines

    def test_json_view(self):
        data = TraceData(spans=[span("em.fit", 1)], metrics=self.METRICS)
        assert analyze_trace(data).to_dict()["em"] == {
            "fits": 8,
            "capped": 2,
            "capped_share": 0.25,
            "iterations_p50": 41.0,
            "iterations_p90": 200.0,
            "best_earlier": 3,
        }

    def test_absent_without_em_fits(self):
        analysis = analyze_trace(trace([span("mc.condition", 1)]))
        assert analysis.em is None
        assert analysis.to_dict()["em"] is None
        assert "EM fit health" not in render_analysis(analysis)
