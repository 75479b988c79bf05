"""Tests for the perf-baseline subsystem: record and compare.

The comparison math is checked with hand-built reports so the
calibration normalisation (a uniformly slower machine compares at
ratio 1.0) and the gating rules are pinned exactly.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import ParameterError
from repro.perf import (
    BENCH_SCHEMA,
    build_report,
    calibrate,
    compare_reports,
    experiment_timings,
    load_report,
    render_comparison,
)
from repro.perf.record import _CAL_MIN_S


def report(timings, *, calibration=1.0, config=None):
    return {
        "schema": BENCH_SCHEMA,
        "config": dict(config or {}),
        "calibration_s": calibration,
        "timings_s": dict(timings),
    }


class TestCalibrate:
    def test_positive_and_repeatable_scale(self):
        first = calibrate(reps=2)
        second = calibrate(reps=2)
        assert first > 0
        assert second > 0
        # Same workload in the same process: within an order of
        # magnitude of each other even on a noisy machine.
        assert 0.1 < first / second < 10.0

    def test_reps_validated(self):
        with pytest.raises(ParameterError):
            calibrate(reps=0)

    def test_repeats_for_the_minimum_window(self):
        # A few back-to-back repetitions can all land in a slow BLAS
        # transient; the minimum must come from a window that outlasts it.
        start = time.perf_counter()
        calibrate(reps=1)
        assert time.perf_counter() - start >= _CAL_MIN_S


class TestExperimentTimings:
    def test_extracts_experiment_spans_only(self):
        records = [
            {"type": "span", "name": "experiment", "wall": 2.0,
             "tags": {"experiment": "fig3"}},
            {"type": "span", "name": "experiment", "wall": 3.0,
             "tags": {"experiment": "table1"}},
            {"type": "span", "name": "em.fit", "wall": 9.0, "tags": {}},
            {"type": "metrics", "counters": {}},
        ]
        timings = experiment_timings(records)
        assert timings == {"fig3": 2.0, "table1": 3.0, "total": 5.0}

    def test_repeated_tags_accumulate(self):
        records = [
            {"type": "span", "name": "experiment", "wall": 1.0,
             "tags": {"experiment": "fig3"}},
            {"type": "span", "name": "experiment", "wall": 2.0,
             "tags": {"experiment": "fig3"}},
        ]
        assert experiment_timings(records)["fig3"] == 3.0

    def test_untagged_experiment_span_ignored(self):
        records = [
            {"type": "span", "name": "experiment", "wall": 1.0, "tags": {}},
        ]
        assert experiment_timings(records) == {"total": 0.0}


class TestBuildReport:
    def test_schema_and_fields(self):
        built = build_report(
            {"fig3": 1.0, "total": 1.0},
            0.05,
            config={"samples": 200},
        )
        assert built["schema"] == BENCH_SCHEMA
        assert built["calibration_s"] == 0.05
        assert built["config"] == {"samples": 200}
        assert built["timings_s"] == {"fig3": 1.0, "total": 1.0}
        assert built["host"]["python"]
        # Must round-trip through JSON (that is its whole job).
        json.dumps(built)

    def test_nonpositive_calibration_rejected(self):
        with pytest.raises(ParameterError):
            build_report({"fig3": 1.0}, 0.0)


class TestCompareReports:
    def test_identical_reports_pass(self):
        base = report({"fig3": 2.0, "total": 2.0})
        rows = compare_reports(base, report({"fig3": 2.0, "total": 2.0}))
        assert all(not row.failed for row in rows)
        assert all(row.ratio == 1.0 for row in rows)

    def test_uniformly_slower_machine_cancels_out(self):
        base = report({"fig3": 2.0}, calibration=1.0)
        current = report({"fig3": 4.0}, calibration=2.0)
        (row,) = compare_reports(base, current)
        assert row.ratio == 1.0
        assert not row.failed

    def test_real_regression_fails(self):
        base = report({"fig3": 2.0})
        current = report({"fig3": 4.0})
        (row,) = compare_reports(base, current, max_regression_pct=50.0)
        assert row.ratio == 2.0
        assert row.regression_pct == 100.0
        assert row.failed

    def test_speedup_never_fails(self):
        base = report({"fig3": 2.0})
        current = report({"fig3": 1.0})
        (row,) = compare_reports(base, current)
        assert row.regression_pct == -50.0
        assert not row.failed

    def test_sub_threshold_timings_not_gated(self):
        base = report({"fig3": 0.01})
        current = report({"fig3": 0.09})
        (row,) = compare_reports(base, current)
        assert not row.gated
        assert not row.failed

    def test_only_shared_keys_compared(self):
        base = report({"fig3": 1.0})
        current = report({"fig3": 1.0, "fig4": 9.0})
        rows = compare_reports(base, current)
        assert [row.key for row in rows] == ["fig3"]

    def test_config_mismatch_rejected(self):
        base = report({"fig3": 1.0}, config={"samples": 200})
        current = report({"fig3": 1.0}, config={"samples": 2000})
        with pytest.raises(ParameterError):
            compare_reports(base, current)

    def test_no_shared_keys_rejected(self):
        with pytest.raises(ParameterError):
            compare_reports(report({"fig3": 1.0}), report({"fig4": 1.0}))

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ParameterError):
            compare_reports(
                report({"fig3": 1.0}),
                report({"fig3": 1.0}),
                max_regression_pct=0.0,
            )

    def test_row_to_dict_keys(self):
        (row,) = compare_reports(report({"fig3": 1.0}), report({"fig3": 1.0}))
        assert set(row.to_dict()) == {
            "key", "baseline_s", "current_s", "normalized_ratio",
            "regression_pct", "gated", "failed",
        }


class TestLoadReport:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(report({"fig3": 1.0})))
        assert load_report(str(path))["timings_s"] == {"fig3": 1.0}

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            load_report(str(tmp_path / "absent.json"))

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(ParameterError):
            load_report(str(path))

    def test_missing_calibration_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        body = report({"fig3": 1.0})
        del body["calibration_s"]
        path.write_text(json.dumps(body))
        with pytest.raises(ParameterError):
            load_report(str(path))


class TestRenderComparison:
    def test_verdict_lines(self):
        passing = compare_reports(report({"fig3": 1.0}), report({"fig3": 1.0}))
        text = render_comparison(passing, max_regression_pct=50.0)
        assert "ok: no experiment regressed" in text
        failing = compare_reports(report({"fig3": 1.0}), report({"fig3": 3.0}))
        text = render_comparison(failing, max_regression_pct=50.0)
        assert "perf regression: fig3" in text
        assert "FAIL" in text

    def test_not_gated_marker(self):
        rows = compare_reports(report({"fig3": 0.01}), report({"fig3": 0.05}))
        text = render_comparison(rows, max_regression_pct=50.0)
        assert "(not gated)" in text
