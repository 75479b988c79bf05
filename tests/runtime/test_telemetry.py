"""Tests for the telemetry subsystem: spans, metrics, sessions.

Covers span nesting and timing, thread safety of tracer and registry,
the no-op disabled path, JSONL emission, the run manifest's phase
times, and the ``trace summarize`` round trip.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.errors import ParameterError
from repro.runtime import telemetry
from repro.runtime.telemetry import (
    MANIFEST_SCHEMA,
    MetricsRegistry,
    NullTracer,
    SpanRecord,
    TelemetrySession,
    Tracer,
    analyze_trace,
    load_trace,
    percentile,
    read_jsonl,
    summarize_trace,
)


class TestTracer:
    def test_nesting_parent_child(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        records = tracer.records()
        assert [r.name for r in records] == ["inner", "outer"]
        inner, outer = records
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["a"].parent_id == by_name["root"].span_id
        assert by_name["b"].parent_id == by_name["root"].span_id
        assert by_name["a"].span_id != by_name["b"].span_id

    def test_wall_time_measured(self):
        tracer = Tracer()
        with tracer.span("sleep"):
            time.sleep(0.01)
        (record,) = tracer.records()
        assert record.wall >= 0.009
        assert record.cpu >= 0.0

    def test_tags_and_status(self):
        tracer = Tracer()
        with tracer.span("tagged", cell="INV", n=3):
            pass
        (record,) = tracer.records()
        assert record.tags == {"cell": "INV", "n": 3}
        assert record.status == "ok"

    def test_error_status_records_exception_type(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (record,) = tracer.records()
        assert record.status == "error:ValueError"

    def test_thread_safety_stacks_are_independent(self):
        tracer = Tracer()
        errors: list[str] = []

        def worker(name: str) -> None:
            for _ in range(50):
                with tracer.span(f"outer-{name}"):
                    with tracer.span(f"inner-{name}"):
                        pass

        threads = [
            threading.Thread(target=worker, args=(str(i),))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = tracer.records()
        assert len(records) == 4 * 50 * 2
        by_id = {r.span_id: r for r in records}
        assert len(by_id) == len(records), "span ids must be unique"
        for record in records:
            if record.name.startswith("inner-"):
                suffix = record.name.split("-", 1)[1]
                parent = by_id[record.parent_id]
                assert parent.name == f"outer-{suffix}", errors

    def test_tag_set_inside_the_span(self):
        tracer = Tracer()
        with tracer.span("loop", rows=2) as tags:
            tags["iterations"] = 7
        (record,) = tracer.records()
        assert record.tags == {"rows": 2, "iterations": 7}

    def test_adopt_nests_foreign_spans_under_the_open_span(self):
        helper = Tracer()
        with helper.span("block"):
            with helper.span("leaf"):
                time.sleep(0.002)
        caller = Tracer(sink=(emitted := []).append)
        with caller.span("outer"):
            with caller.span("wait"):
                caller.adopt(helper.records(), helper.epoch, helper="h00")
        records = caller.records()
        assert [r.name for r in records] == ["leaf", "block", "wait", "outer"]
        assert emitted == list(records)
        leaf, block, wait, _ = records
        assert len({r.span_id for r in records}) == 4
        assert leaf.parent_id == block.span_id
        assert block.parent_id == wait.span_id
        assert leaf.tags == block.tags == {"helper": "h00"}
        assert leaf.wall == helper.records()[0].wall
        # Same instants on the caller's clock.
        offset = helper.epoch - caller.epoch
        assert block.start == helper.records()[1].start + offset
        assert block.start <= wait.start + wait.wall

    def test_adopt_without_an_open_span_makes_roots(self):
        helper = Tracer()
        with helper.span("block"):
            pass
        caller = Tracer()
        caller.adopt(helper.records(), helper.epoch)
        (record,) = caller.records()
        assert record.parent_id is None and record.span_id == 1

    def test_record_round_trip(self):
        tracer = Tracer()
        with tracer.span("x", k="v"):
            pass
        (record,) = tracer.records()
        clone = SpanRecord.from_dict(record.to_dict())
        assert clone == record


class TestNullTracer:
    def test_null_span_is_reusable_noop(self):
        tracer = NullTracer()
        with tracer.span("a", x=1):
            with tracer.span("b"):
                pass
        assert tracer.records() == ()

    def test_hooks_are_noops_without_session(self):
        assert telemetry.active_session() is None
        with telemetry.span("nothing", k="v"):
            telemetry.counter_inc("c")
            telemetry.observe("h", 1.0)
            telemetry.gauge_set("g", 2.0)
        assert telemetry.active_session() is None


class TestMetrics:
    def test_counter_values(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["a"] == 5

    def test_gauge_last_value_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 1.5)
        registry.set_gauge("g", 2.5)
        assert registry.snapshot()["gauges"]["g"] == 2.5

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in range(1, 101):
            registry.observe("h", float(value))
        summary = registry.snapshot()["histograms"]["h"]
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p99"] == pytest.approx(99.01)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.inc("x")
        with pytest.raises(ParameterError):
            registry.observe("x", 1.0)

    def test_percentile_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        assert percentile([5.0], 99) == 5.0

    def test_absorb_adds_a_raw_record(self):
        helper, caller = MetricsRegistry(), MetricsRegistry()
        for value in (3.0, 1.0, 2.0):
            helper.observe("h", value)
        helper.inc("n", 4)
        helper.set_gauge("g", 1.5)
        caller.inc("n", 1)
        caller.observe("h", 10.0)
        caller.absorb(helper.raw())
        snapshot = caller.snapshot()
        assert snapshot["counters"] == {"n": 5}
        assert snapshot["gauges"] == {"g": 1.5}
        assert snapshot["histograms"]["h"]["count"] == 4
        assert snapshot["histograms"]["h"]["p50"] == pytest.approx(2.5)

    def test_thread_safe_counts(self):
        registry = MetricsRegistry()

        def worker() -> None:
            for _ in range(1000):
                registry.inc("n")
                registry.observe("h", 1.0)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["n"] == 4000
        assert snapshot["histograms"]["h"]["count"] == 4000


class TestSessionEmission:
    def test_jsonl_trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        session = TelemetrySession(trace_path=path)
        with telemetry.activate(session):
            with telemetry.span("fit.root"):
                telemetry.counter_inc("k", 2)
        session.write_manifest(session.manifest(custom="extra"))
        session.close()
        records = list(read_jsonl(path))
        types = [r["type"] for r in records]
        assert types == ["span", "manifest", "metrics"]
        span_record = records[0]
        assert span_record["name"] == "fit.root"
        assert span_record["run_id"] == session.run_id
        manifest = records[1]
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["custom"] == "extra"
        assert manifest["metrics"]["counters"]["k"] == 2
        assert "fitting" in manifest["phases"]

    def test_bad_jsonl_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\nnot json\n')
        with pytest.raises(ParameterError, match=r"bad\.jsonl:2"):
            list(read_jsonl(path))

    def test_activation_restored_after_exit(self):
        session = TelemetrySession()
        with telemetry.activate(session):
            assert telemetry.active_session() is session
        assert telemetry.active_session() is None
        session.close()

    def test_close_is_idempotent(self, tmp_path):
        session = TelemetrySession(trace_path=tmp_path / "t.jsonl")
        session.close()
        session.close()
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        assert len(lines) == 1  # exactly one final metrics record


class TestSummarizeRoundTrip:
    def test_summarize_parses_own_output_format(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        session = TelemetrySession(trace_path=path)
        with telemetry.activate(session):
            with telemetry.span("run"):
                with telemetry.span("mc.work"):
                    telemetry.observe("speed", 10.0)
        session.write_manifest(session.manifest())
        session.close()
        data = load_trace(path)
        assert len(data.spans) == 2
        assert data.manifest is not None
        text = summarize_trace(data)
        assert "run" in text
        assert "mc.work" in text
        assert "mc=" in text
        assert "speed" in text

    def test_load_trace_missing_file_raises(self, tmp_path):
        with pytest.raises(ParameterError):
            load_trace(tmp_path / "nope.jsonl")


class TestCharacterizationTelemetry:
    """End-to-end: a 2-arc run emits the expected spans and metrics."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        from repro.circuits import (
            CharacterizationConfig,
            GateTimingEngine,
            TT_GLOBAL_LOCAL_MC,
            build_cell,
            characterize_library,
        )
        from repro.circuits.characterize import PAPER_LOADS, PAPER_SLEWS
        from repro.runtime import FitPolicy, FitReport

        path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
        session = TelemetrySession(trace_path=path)
        engine = GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)
        config = CharacterizationConfig(
            slews=PAPER_SLEWS[:2],
            loads=PAPER_LOADS[:2],
            n_samples=200,
            seed=7,
        )
        with telemetry.activate(session):
            with telemetry.span("characterize.run"):
                characterize_library(
                    engine,
                    [build_cell("INV", 1.0)],
                    config,
                    policy=FitPolicy(),
                    report=FitReport(),
                )
        session.write_manifest(session.manifest())
        session.close()
        return session, path

    def test_span_names_cover_all_stages(self, run):
        session, _ = run
        names = {r.name for r in session.tracer.records()}
        assert {
            "characterize.run",
            "characterize.cell",
            "characterize.arc",
            "mc.condition",
            "fit.ladder",
            "em.fit_batch",
            "liberty.tables",
        } <= names

    def test_metric_values_match_run_shape(self, run):
        session, _ = run
        snapshot = session.metrics.snapshot()
        counters = snapshot["counters"]
        # INV: 1 input pin x rise/fall = 2 arcs, 2x2 grid each.
        assert counters["mc.conditions"] == 8
        assert counters["mc.samples"] == 8 * 200
        assert counters["fit.rung.LVF2"] >= 1
        histograms = snapshot["histograms"]
        assert histograms["fit.fallback_rung"]["count"] == 16
        assert histograms["mc.samples_per_sec"]["count"] == 8
        assert histograms["em.iterations"]["count"] >= 16

    def test_stage_sums_cover_most_of_wall(self, run):
        session, _ = run
        totals = session.manifest()["phases"]
        assert {"mc", "em", "fitting", "export"} <= set(totals)
        covered = sum(totals.values())
        assert covered >= 0.9 * session.tracer.total_wall()

    def test_manifest_phases_equal_trace_analyze(self, run):
        _, path = run
        data = load_trace(path)
        analysis = analyze_trace(data)
        assert data.manifest["phases"] == {
            phase.phase: phase.wall for phase in analysis.phases
        }

    def test_trace_file_round_trips_through_summarize(self, run):
        _, path = run
        data = load_trace(path)
        text = summarize_trace(data)
        assert "characterize.run" in text
        assert "em.fit" in text
        manifest = data.manifest
        assert manifest["schema"] == MANIFEST_SCHEMA
        phase_sum = sum(manifest["phases"].values())
        assert phase_sum >= 0.9 * manifest["wall_total_s"]
        for line in path.read_text().splitlines():
            json.loads(line)  # every line is valid JSON


class TestSpanSampling:
    """Sink-side sampling: high-frequency ok spans thin out, structural
    and error spans always pass, and the in-memory tracer keeps all."""

    def collect(self, sample):
        records = []
        session = TelemetrySession(sinks=[records.append], sample=sample)
        return session, records

    def test_sample_one_keeps_everything(self):
        session, records = self.collect(1.0)
        with telemetry.activate(session):
            for _ in range(10):
                with telemetry.span("mc.condition"):
                    pass
        assert len(records) == 10
        session.close()

    def test_half_rate_thins_after_the_grace_window(self):
        session, records = self.collect(0.5)
        with telemetry.activate(session):
            for _ in range(10):
                with telemetry.span("mc.condition"):
                    pass
        spans = [r for r in records if r["type"] == "span"]
        # stride 2: occurrences 0-1 pass on the rate-adaptive grace
        # window, then every other one (2, 4, 6, 8) — 6 of 10.
        assert len(spans) == 6
        session.close()

    def test_rare_span_names_are_never_thinned(self):
        # Skewed distribution: one hot name, several rare ones.  The
        # rare names must reach the sink in full at any rate, while
        # the hot name is downsampled to roughly the requested rate.
        session, records = self.collect(0.1)
        rare_names = [f"rare.{index}" for index in range(4)]
        with telemetry.activate(session):
            for index in range(1000):
                with telemetry.span("mc.condition"):
                    pass
                if index % 250 == 0:
                    for name in rare_names:
                        with telemetry.span(name):
                            pass
        by_name: dict[str, int] = {}
        for record in records:
            if record["type"] == "span":
                by_name[record["name"]] = (
                    by_name.get(record["name"], 0) + 1
                )
        for name in rare_names:
            assert by_name[name] == 4  # fewer than the stride: all kept
        # Hot name: 10-span grace window + every 10th afterwards.
        assert by_name["mc.condition"] == 10 + 99
        session.close()

    def test_never_sampled_names_always_pass(self):
        from repro.runtime.telemetry import NEVER_SAMPLED

        assert "pool.item" in NEVER_SAMPLED
        session, records = self.collect(0.1)
        with telemetry.activate(session):
            for _ in range(10):
                with telemetry.span("pool.item"):
                    pass
        spans = [r for r in records if r["type"] == "span"]
        assert len(spans) == 10
        session.close()

    def test_error_spans_always_pass(self):
        session, records = self.collect(0.1)
        with telemetry.activate(session):
            for index in range(10):
                try:
                    with telemetry.span("mc.condition"):
                        if index:
                            raise ValueError("boom")
                except ValueError:
                    pass
        spans = [r for r in records if r["type"] == "span"]
        # 1 sampled-in ok span (the first) + 9 error spans.
        assert len(spans) == 10
        assert sum(r["status"] != "ok" for r in spans) == 9
        session.close()

    def test_tracer_keeps_all_spans_regardless(self):
        session, records = self.collect(0.1)
        with telemetry.activate(session):
            for _ in range(10):
                with telemetry.span("mc.condition"):
                    pass
        assert len(session.tracer) == 10  # manifests stay exact
        manifest = session.manifest()
        assert manifest["span_count"] == 10
        session.close()

    def test_dropped_spans_are_counted(self):
        session, records = self.collect(0.5)
        with telemetry.activate(session):
            for _ in range(10):
                with telemetry.span("mc.condition"):
                    pass
        snapshot = session.metrics.snapshot()
        # 10 spans at stride 2: 6 kept (grace window + every other),
        # 4 sampled out.
        assert snapshot["counters"]["telemetry.spans_sampled_out"] == 4
        session.close()

    def test_rate_out_of_range_rejected(self):
        for rate in (0.0, -0.5, 1.5):
            with pytest.raises(ParameterError, match="sample"):
                TelemetrySession(sample=rate)
