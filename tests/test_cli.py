"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in (
            ["models"],
            ["fo4"],
            ["fit", "x.npy"],
            ["scenario"],
            ["characterize"],
            ["liberty", "x.lib"],
            ["bench"],
            ["yield", "x.npy"],
        ):
            args = parser.parse_args(command)
            assert args.command == command[0]


class TestCommands:
    def test_models_lists_registry(self, capsys):
        assert main(["models"]) == 0
        output = capsys.readouterr().out
        for name in ("LVF2", "Norm2", "LESN", "LVF"):
            assert name in output

    def test_fo4(self, capsys):
        assert main(["fo4"]) == 0
        assert "FO4 delay" in capsys.readouterr().out

    def test_fit_from_npy(self, tmp_path, capsys, bimodal_samples):
        path = tmp_path / "samples.npy"
        np.save(path, bimodal_samples)
        assert main(["fit", str(path), "--model", "LVF2", "--score"]) == 0
        output = capsys.readouterr().out
        assert "LVF2:" in output
        assert "binning_reduction" in output

    def test_fit_from_text(self, tmp_path, capsys, gaussian_samples):
        path = tmp_path / "samples.txt"
        np.savetxt(path, gaussian_samples)
        assert main(["fit", str(path), "--model", "Gaussian"]) == 0
        assert "Gaussian:" in capsys.readouterr().out

    def test_fit_unknown_model_errors(self, tmp_path, capsys):
        path = tmp_path / "samples.npy"
        np.save(path, np.random.default_rng(0).normal(size=100))
        # ParameterError family -> exit code 2.
        assert main(["fit", str(path), "--model", "Bogus"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_yield_text(self, tmp_path, capsys, gaussian_samples):
        path = tmp_path / "samples.npy"
        np.save(path, gaussian_samples)
        code = main(
            [
                "yield",
                str(path),
                "--engine",
                "is",
                "--budget",
                "2048",
                "--target-sigma",
                "3.0",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "is:" in output and "P(fail)=" in output

    def test_yield_json(self, tmp_path, capsys, gaussian_samples):
        import json

        path = tmp_path / "samples.npy"
        np.save(path, gaussian_samples)
        code = main(
            [
                "yield",
                str(path),
                "--budget",
                "2048",
                "--seed",
                "7",
                "--json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.yield_estimate/1"
        assert document["engine"] == "adaptive-is"
        assert 0.0 <= document["failure_probability"] <= 1.0

    def test_yield_explicit_threshold_raw_sampler(
        self, tmp_path, capsys, gaussian_samples
    ):
        # --model none routes the bootstrap sampler (no analytic CDF)
        # through the surrogate path.
        path = tmp_path / "samples.npy"
        np.save(path, gaussian_samples)
        code = main(
            [
                "yield",
                str(path),
                "--model",
                "none",
                "--threshold",
                "1.2",
                "--budget",
                "2048",
            ]
        )
        assert code == 0
        assert "threshold" in capsys.readouterr().out

    def test_yield_unknown_engine_errors(self, tmp_path, capsys):
        path = tmp_path / "samples.npy"
        np.save(path, np.random.default_rng(0).normal(size=100))
        with pytest.raises(SystemExit):
            main(["yield", str(path), "--engine", "bogus"])

    def test_scenario_single(self, capsys):
        code = main(
            ["scenario", "--name", "Saddle", "--samples", "4000"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Saddle" in output and "LVF2" in output

    def test_validate_clean_library(self, tmp_path, capsys):
        out = tmp_path / "v.lib"
        assert (
            main(
                [
                    "characterize",
                    "--cells",
                    "INV",
                    "--grid",
                    "2",
                    "--samples",
                    "300",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert main(["validate", str(out)]) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_characterize_and_liberty(self, tmp_path, capsys):
        out = tmp_path / "lib.lib"
        code = main(
            [
                "characterize",
                "--cells",
                "INV",
                "--grid",
                "2",
                "--samples",
                "300",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        roundtrip = tmp_path / "rt.lib"
        code = main(
            ["liberty", str(out), "--roundtrip", str(roundtrip)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "INV_X1" in output
        assert roundtrip.exists()


class TestExitCodes:
    def test_family_mapping(self):
        from repro.cli import exit_code_for
        from repro.errors import (
            CharacterizationError,
            CheckpointError,
            ExperimentError,
            FittingError,
            LibertyError,
            ParameterError,
            ReproError,
            SSTAError,
        )

        assert exit_code_for(ParameterError("x")) == 2
        assert exit_code_for(FittingError("x")) == 3
        assert exit_code_for(LibertyError("x")) == 4
        assert exit_code_for(CharacterizationError("x")) == 5
        assert exit_code_for(SSTAError("x")) == 6
        assert exit_code_for(ExperimentError("x")) == 7
        assert exit_code_for(CheckpointError("x")) == 8
        assert exit_code_for(ReproError("x")) == 1

    def test_subclass_maps_to_family(self):
        from repro.cli import exit_code_for
        from repro.liberty.parser import LibertySyntaxError

        assert exit_code_for(LibertySyntaxError("x")) == 4

    def test_malformed_samples_file(self, tmp_path, capsys):
        # A corrupt .npy must exit with the ParameterError code and a
        # single error line, not a numpy traceback.
        path = tmp_path / "samples.npy"
        path.write_bytes(b"this is not a numpy file")
        assert main(["fit", str(path), "--model", "LVF2"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_validate_ragged_values_grid(self, tmp_path, capsys):
        # A ragged LUT is a Liberty error (exit 4, one line), not a
        # numpy traceback.
        path = tmp_path / "ragged.lib"
        path.write_text(
            "library (x) { cell (A) { pin (Z) { direction : output; "
            "timing () { related_pin : A; cell_rise (t) { "
            'index_1 ("0.1, 0.2"); index_2 ("1, 2"); '
            'values ("1, 2", "3"); } } } } }\n'
        )
        assert main(["validate", str(path)]) == 4
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "ragged" in err
        assert len(err.splitlines()) == 1

    def test_missing_samples_file(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "nope.npy")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_fallback_fit_failure_exits_fitting_family(self, capsys):
        # --no-fallback is the one-rung ladder, so an injected LVF2
        # failure reaches it and aborts the run naming the condition.
        from repro.runtime.faults import FaultPlan, FaultRule, inject

        rule = FaultRule(
            "em_failure",
            transition="fall",
            quantity="delay",
            slew_index=0,
            load_index=1,
            rungs=("LVF2",),
        )
        with inject(FaultPlan([rule])):
            code = main(
                [
                    "characterize",
                    "--cells",
                    "INV",
                    "--grid",
                    "2",
                    "--samples",
                    "128",
                    "--no-fallback",
                ]
            )
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "error: every ladder rung failed for INV_X1/A/fall[0,1]:delay"
        )


class TestCheckpointFlags:
    def test_resume_requires_checkpoint_dir(self, capsys):
        code = main(
            ["characterize", "--cells", "INV", "--grid", "2", "--resume"]
        )
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_characterize_resume_reuses_store(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        out1 = tmp_path / "a.lib"
        out2 = tmp_path / "b.lib"
        base = [
            "characterize",
            "--cells",
            "INV",
            "--grid",
            "2",
            "--samples",
            "300",
            "--checkpoint-dir",
            str(ckpt),
        ]
        assert main(base + ["--out", str(out1)]) == 0
        # INV has one input pin: rise + fall arcs checkpointed.
        assert len(list(ckpt.glob("*.ckpt"))) == 2
        assert main(base + ["--resume", "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        capsys.readouterr()


class TestObservabilityFlags:
    BASE = [
        "characterize",
        "--cells",
        "INV",
        "--grid",
        "2",
        "--samples",
        "300",
    ]

    def test_trace_metrics_report_manifest(self, tmp_path, capsys):
        import json

        out = tmp_path / "lib.lib"
        trace = tmp_path / "t.jsonl"
        report = tmp_path / "r.json"
        manifest_path = tmp_path / "m.json"
        code = main(
            self.BASE
            + [
                "--out",
                str(out),
                "--trace",
                str(trace),
                "--metrics",
                "--report-json",
                str(report),
                "--manifest",
                str(manifest_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "em.fits" in output  # --metrics summary printed

        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
        ]
        types = {record["type"] for record in records}
        assert types == {"span", "manifest", "metrics"}
        names = {
            record["name"]
            for record in records
            if record["type"] == "span"
        }
        assert {
            "characterize.run",
            "mc.condition",
            "em.fit_batch",
            "fit.ladder",
            "export.write",
        } <= names

        manifest = json.loads(manifest_path.read_text())
        assert manifest["config_hash"]
        assert manifest["seed"] == 2024
        assert manifest["library"]["n_cells"] == 1
        phase_sum = sum(manifest["phases"].values())
        assert phase_sum >= 0.9 * manifest["wall_total_s"]

        fit_report = json.loads(report.read_text())
        assert fit_report["rung_counts"].get("LVF2", 0) >= 1

    def test_trace_summarize_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert (
            main(
                self.BASE
                + ["--out", str(tmp_path / "l.lib"), "--trace", str(trace)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        output = capsys.readouterr().out
        assert "characterize.run" in output
        assert "phases:" in output

    def test_trace_summarize_missing_file(self, tmp_path, capsys):
        code = main(["trace", "summarize", str(tmp_path / "no.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_summarize_empty_file_exits_gracefully(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert main(["trace", "summarize", str(trace)]) == 2
        assert "is empty" in capsys.readouterr().err

    def test_trace_summarize_truncated_file_exits_gracefully(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "cut.jsonl"
        trace.write_text(
            '{"type": "span", "name": "a", "span_id": 1, '
            '"parent_id": null, "start": 0.0, "wall": 0.1, "cpu": 0.1}\n'
            '{"type": "span", "na'  # writer killed mid-record
        )
        assert main(["trace", "summarize", str(trace)]) == 2
        assert "truncated mid-record" in capsys.readouterr().err

    def test_checkpoint_gc_requires_dir(self, capsys):
        code = main(self.BASE + ["--checkpoint-gc"])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_gc_drops_orphans(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        base = self.BASE + ["--checkpoint-dir", str(ckpt)]
        assert main(base + ["--out", str(tmp_path / "a.lib")]) == 0
        assert len(list(ckpt.glob("*.ckpt"))) == 2
        # A different sample count orphans the old entries.
        changed = [
            "characterize",
            "--cells",
            "INV",
            "--grid",
            "2",
            "--samples",
            "200",
            "--checkpoint-dir",
            str(ckpt),
            "--resume",
            "--checkpoint-gc",
        ]
        assert main(changed + ["--out", str(tmp_path / "b.lib")]) == 0
        err = capsys.readouterr().err
        assert "removed 2 stale entries" in err
        assert len(list(ckpt.glob("*.ckpt"))) == 2  # only new tokens

    def test_checkpoint_max_bytes_caps_store(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        base = self.BASE + ["--checkpoint-dir", str(ckpt)]
        assert main(base + ["--out", str(tmp_path / "a.lib")]) == 0
        assert len(list(ckpt.glob("*.ckpt"))) == 2
        capsys.readouterr()
        # A 1-byte cap cannot hold any entry: everything is evicted.
        code = main(
            base
            + [
                "--resume",
                "--checkpoint-max-bytes",
                "1",
                "--out",
                str(tmp_path / "b.lib"),
            ]
        )
        assert code == 0
        # Both entries exceeded the cap and were evicted before the
        # run, which then re-characterized and saved fresh ones.
        assert "removed 2 stale entries" in capsys.readouterr().err
        assert len(list(ckpt.glob("*.ckpt"))) == 2


class TestExportFaultExitCode:
    def test_truncated_export_exits_liberty_family(self, tmp_path, capsys):
        from repro.runtime.faults import FaultPlan, FaultRule, inject

        out = tmp_path / "lib.lib"
        plan = FaultPlan([FaultRule("export_truncate", truncate_bytes=16)])
        with inject(plan):
            code = main(
                [
                    "characterize",
                    "--cells",
                    "INV",
                    "--grid",
                    "2",
                    "--samples",
                    "300",
                    "--out",
                    str(out),
                ]
            )
        assert code == 4  # LibertyError family
        assert "short write" in capsys.readouterr().err
        assert not out.exists()

    def test_fsync_fault_exits_liberty_family(self, tmp_path, capsys):
        from repro.runtime.faults import FaultPlan, FaultRule, inject

        out = tmp_path / "lib.lib"
        plan = FaultPlan([FaultRule("export_fsync")])
        with inject(plan):
            code = main(
                [
                    "characterize",
                    "--cells",
                    "INV",
                    "--grid",
                    "2",
                    "--samples",
                    "300",
                    "--out",
                    str(out),
                ]
            )
        assert code == 4
        assert "fsync" in capsys.readouterr().err
        assert not out.exists()


class TestParallelFlags:
    def test_workers_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["characterize"])
        assert args.workers == 1
        assert args.claim_timeout == 600.0
        assert args.trace_sample == 1.0

    def test_trace_merge_parses(self):
        args = build_parser().parse_args(
            [
                "trace",
                "merge",
                "a.jsonl",
                "b.jsonl",
                "-o",
                "out.jsonl",
                "--labels",
                "w00",
                "w01",
            ]
        )
        assert args.trace_command == "merge"
        assert args.inputs == ["a.jsonl", "b.jsonl"]
        assert args.out == "out.jsonl"
        assert args.labels == ["w00", "w01"]

    def test_parallel_characterize_matches_serial(self, tmp_path, capsys):
        base = [
            "characterize",
            "--cells",
            "INV",
            "NAND2",
            "--grid",
            "2",
            "--samples",
            "64",
            "--seed",
            "7",
        ]
        serial = tmp_path / "serial.lib"
        parallel = tmp_path / "parallel.lib"
        trace = tmp_path / "trace.jsonl"
        assert main(base + ["--out", str(serial)]) == 0
        assert (
            main(
                base
                + [
                    "--out",
                    str(parallel),
                    "--workers",
                    "2",
                    "--trace",
                    str(trace),
                    "--trace-sample",
                    "0.5",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()
        # The per-worker traces were merged into the main trace and
        # the loose worker files removed.
        import json

        workers = set()
        for line in trace.read_text().splitlines():
            record = json.loads(line)
            if record.get("type") == "span":
                workers.add(record.get("tags", {}).get("worker"))
        assert "main" in workers
        assert any(w and w.startswith("w") for w in workers)
        assert not list(tmp_path.glob("trace-*-w??.jsonl"))

    def test_trace_merge_label_mismatch_errors(self, tmp_path, capsys):
        source = tmp_path / "a.jsonl"
        source.write_text(
            '{"type": "span", "span_id": 1, "name": "x", '
            '"start": 0, "wall": 0, "cpu": 0, "tags": {}, '
            '"status": "ok"}\n'
        )
        code = main(
            [
                "trace",
                "merge",
                str(source),
                "-o",
                str(tmp_path / "out.jsonl"),
                "--labels",
                "a",
                "b",
            ]
        )
        assert code != 0
        assert "labels" in capsys.readouterr().err

    def test_invalid_trace_sample_errors(self, tmp_path, capsys):
        code = main(
            [
                "characterize",
                "--cells",
                "INV",
                "--grid",
                "2",
                "--samples",
                "64",
                "--trace",
                str(tmp_path / "t.jsonl"),
                "--trace-sample",
                "2.0",
            ]
        )
        assert code != 0
        assert "sample" in capsys.readouterr().err


class _StubExperiment:
    """Cheap stand-in for the experiments the bench test skips."""

    def __init__(self, name):
        self.name = name

    def to_text(self):
        return f"[{self.name} stub]"


class TestBenchParallel:
    @pytest.fixture
    def tiny_suite(self, monkeypatch):
        # Keep only the Table 2 sweep real (that is the experiment
        # the pool flags actually route through) and shrink it; the
        # other five experiments become text stubs so the three bench
        # runs below stay fast.
        from repro.experiments import runner, table2

        for name in (
            "run_fig3",
            "run_table1",
            "run_fig4",
            "run_fig5",
            "run_clt_convergence",
            "run_fit_throughput",
        ):
            stub = name.removeprefix("run_")
            monkeypatch.setattr(
                runner, name, lambda *a, _s=stub, **k: _StubExperiment(_s)
            )
        tiny = table2.Table2Config(
            cell_types=("INV",),
            drives=(1.0,),
            n_samples=64,
            slews=(0.01, 0.05),
            loads=(0.01, 0.1),
            max_arcs_per_cell=1,
            seed=7,
        )
        monkeypatch.setattr(
            table2.Table2Config, "auto", classmethod(lambda cls: tiny)
        )

    def test_parallel_bench_output_matches_serial(
        self, tiny_suite, capsys
    ):
        def bench(extra=()):
            assert main(["bench", "--quiet", *extra]) == 0
            return capsys.readouterr().out

        serial = bench()
        assert "[fig3 stub]" in serial
        assert "Table 2" in serial
        assert bench(["--workers", "2"]) == serial

    def test_bench_json_records_comparable_report(
        self, tiny_suite, tmp_path, capsys
    ):
        import json

        path = tmp_path / "report.json"
        assert main(["bench", "--quiet", "--json", str(path)]) == 0
        capsys.readouterr()
        report = json.loads(path.read_text())
        assert report["schema"] == "repro.bench/1"
        assert report["calibration_s"] > 0
        assert "table2" in report["timings_s"]
        assert report["timings_s"]["total"] > 0
        assert report["config"]["samples"] > 0
        # A report always passes the gate against itself.
        assert main(["bench", "compare", str(path), str(path)]) == 0


def _write_trace(path, records):
    import json

    path.write_text(
        "".join(json.dumps(record) + "\n" for record in records)
    )


def _span_record(name, span_id, *, wall=1.0, start=0.0, tags=None):
    return {
        "type": "span",
        "name": name,
        "span_id": span_id,
        "parent_id": None,
        "start": start,
        "wall": wall,
        "cpu": 0.0,
        "tags": dict(tags or {}),
    }


class TestTraceAnalyzeCli:
    def test_analyze_file(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        _write_trace(
            trace,
            [
                _span_record("em.fit", 1, wall=2.0),
                _span_record(
                    "pool.item",
                    2,
                    wall=3.0,
                    tags={"worker": "w00", "label": "INV/Y/rise"},
                ),
            ],
        )
        assert main(["trace", "analyze", str(trace)]) == 0
        output = capsys.readouterr().out
        assert "phases (self-time attribution):" in output
        assert "INV/Y/rise" in output

    def test_analyze_json(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.jsonl"
        _write_trace(trace, [_span_record("em.fit", 1, wall=2.0)])
        assert main(["trace", "analyze", str(trace), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.trace_analysis/1"
        assert report["span_count"] == 1

    def test_em_fit_health_line_and_json(self, tmp_path, capsys):
        import json

        from repro.models.lvf2 import SKEW_NORMAL_FAMILY
        from repro.runtime import telemetry
        from repro.runtime.telemetry import TelemetrySession
        from repro.stats.em import EMConfig, fit_mixture_em_batch

        rng = np.random.default_rng(5)
        stack = np.concatenate(
            [rng.normal(0.0, 1.0, (3, 300)), rng.normal(4.0, 1.0, (3, 100))],
            axis=1,
        )
        trace = tmp_path / "em.jsonl"
        session = TelemetrySession(trace_path=trace)
        with telemetry.activate(session):
            outcomes = fit_mixture_em_batch(
                stack, SKEW_NORMAL_FAMILY, config=EMConfig(max_iter=8)
            )
        session.close()
        capped = sum(not result.converged for result in outcomes)
        earlier = sum(
            result.loglik != result.history[-1] for result in outcomes
        )
        iterations = sorted(result.n_iter for result in outcomes)

        assert main(["trace", "analyze", str(trace)]) == 0
        (line,) = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("EM fit health:")
        ]
        assert line.startswith(
            f"EM fit health: 3 fits, {capped} capped "
            f"({100.0 * capped / 3:.1f}%), iterations p50="
        )
        assert line.endswith(f"best_earlier={earlier}")

        assert main(["trace", "analyze", str(trace), "--json"]) == 0
        em = json.loads(capsys.readouterr().out)["em"]
        assert em["fits"] == 3
        assert em["capped"] == capped
        assert em["capped_share"] == pytest.approx(capped / 3)
        assert em["iterations_p50"] == iterations[1]
        assert iterations[1] <= em["iterations_p90"] <= iterations[2]
        assert em["best_earlier"] == earlier

    def test_trace_without_em_fits_has_no_health_line(
        self, tmp_path, capsys
    ):
        import json

        trace = tmp_path / "t.jsonl"
        _write_trace(trace, [_span_record("mc.condition", 1, wall=2.0)])
        assert main(["trace", "analyze", str(trace)]) == 0
        assert "EM fit health" not in capsys.readouterr().out
        assert main(["trace", "analyze", str(trace), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["em"] is None

    def test_directory_with_single_trace(self, tmp_path, capsys):
        _write_trace(
            tmp_path / "merged.jsonl",
            [_span_record("em.fit", 1, wall=2.0)],
        )
        assert main(["trace", "analyze", str(tmp_path)]) == 0
        assert "phases" in capsys.readouterr().out

    def test_directory_with_manifest_but_no_traces(
        self, tmp_path, capsys
    ):
        import json

        (tmp_path / "pool-meta.json").write_text(
            json.dumps(
                {
                    "schema": "repro.pool_meta/1",
                    "run_id": "r1",
                    "n_items": 4,
                }
            )
        )
        assert main(["trace", "summarize", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "no spans" in output
        assert "pool-meta.json" in output
        assert main(["trace", "analyze", str(tmp_path)]) == 0
        assert "no spans" in capsys.readouterr().out

    def test_directory_with_multiple_traces_is_ambiguous(
        self, tmp_path, capsys
    ):
        for name in ("a.jsonl", "b.jsonl"):
            _write_trace(
                tmp_path / name, [_span_record("em.fit", 1)]
            )
        assert main(["trace", "analyze", str(tmp_path)]) == 2
        assert "merge" in capsys.readouterr().err

    def test_empty_directory_is_an_error(self, tmp_path, capsys):
        assert main(["trace", "analyze", str(tmp_path)]) == 2
        assert "nothing to summarise" in capsys.readouterr().err


class TestStatusCli:
    def _seed(self, tmp_path, *, done=1, total=3):
        import time

        from repro.runtime.pool import (
            PoolJournal,
            StatusWriter,
            write_pool_meta,
        )

        write_pool_meta(tmp_path, run_id="r1", n_items=total, n_workers=1)
        journal = PoolJournal(tmp_path, defaults={"run": "r1"})
        for index in range(done):
            journal.append(
                "task", key=f"k{index}", worker=0, ts=time.time()
            )
        StatusWriter(tmp_path, "w00").update("working", item="INV")

    def test_parser_defaults(self):
        args = build_parser().parse_args(["status", "x"])
        assert args.command == "status"
        assert args.directory == "x"
        assert not args.watch
        assert args.interval == 2.0
        assert args.claim_timeout == 600.0

    def test_status_text(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(["status", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "1/3 units" in output
        assert "w00" in output

    def test_status_json(self, tmp_path, capsys):
        import json

        self._seed(tmp_path, done=3, total=3)
        assert main(["status", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.pool_status_report/1"
        assert report["complete"] is True

    def test_status_on_bare_directory_errors(self, tmp_path, capsys):
        assert main(["status", str(tmp_path)]) == 2
        assert "no pool run" in capsys.readouterr().err

    def test_watch_exits_when_complete(self, tmp_path, capsys):
        self._seed(tmp_path, done=3, total=3)
        assert main(["status", str(tmp_path), "--watch"]) == 0


class TestBenchCompareCli:
    def _report(self, tmp_path, name, timings, *, calibration=1.0):
        import json

        path = tmp_path / name
        path.write_text(
            json.dumps(
                {
                    "schema": "repro.bench/1",
                    "config": {"samples": 200},
                    "calibration_s": calibration,
                    "timings_s": timings,
                }
            )
        )
        return str(path)

    def test_parser(self):
        args = build_parser().parse_args(
            ["bench", "compare", "base.json", "cur.json"]
        )
        assert args.bench_command == "compare"
        assert args.baseline == "base.json"
        assert args.current == "cur.json"
        assert args.max_regression == 50.0

    def test_bench_shares_pool_flags(self):
        args = build_parser().parse_args(["bench"])
        assert args.workers == 1
        assert args.claim_timeout == 600.0
        assert args.claim_skew == 5.0
        assert not args.smoke

    def test_paper_and_smoke_conflict(self, capsys):
        assert main(["bench", "--paper", "--smoke"]) == 2
        assert "opposite scales" in capsys.readouterr().err

    def test_compare_passes(self, tmp_path, capsys):
        base = self._report(tmp_path, "base.json", {"fig3": 2.0})
        cur = self._report(tmp_path, "cur.json", {"fig3": 2.1})
        assert main(["bench", "compare", base, cur]) == 0
        assert "ok: no experiment regressed" in capsys.readouterr().out

    def test_compare_fails_on_regression(self, tmp_path, capsys):
        base = self._report(tmp_path, "base.json", {"fig3": 2.0})
        cur = self._report(tmp_path, "cur.json", {"fig3": 5.0})
        assert main(["bench", "compare", base, cur]) == 1
        assert "perf regression: fig3" in capsys.readouterr().out

    def test_compare_json_output(self, tmp_path, capsys):
        import json

        base = self._report(tmp_path, "base.json", {"fig3": 2.0})
        cur = self._report(tmp_path, "cur.json", {"fig3": 2.0})
        assert main(["bench", "compare", base, cur, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["comparison"][0]["key"] == "fig3"
        assert payload["comparison"][0]["failed"] is False
        # No fit_serial/fit_batch keys: the invariant is vacuous.
        assert payload["speedups"] == []

    def test_compare_speedup_gate_passes(self, tmp_path, capsys):
        timings = {"fig3": 2.0, "fit_serial": 2.0, "fit_batch": 0.5}
        base = self._report(tmp_path, "base.json", timings)
        cur = self._report(tmp_path, "cur.json", timings)
        assert main(["bench", "compare", base, cur]) == 0
        out = capsys.readouterr().out
        assert "ok: all speedup invariants hold" in out
        assert "4.00x" in out

    def test_compare_speedup_gate_fails(self, tmp_path, capsys):
        # Batched fit slower than serial: the intra-report invariant
        # must fail the gate even with zero baseline regression.
        timings = {"fig3": 2.0, "fit_serial": 1.0, "fit_batch": 1.2}
        base = self._report(tmp_path, "base.json", timings)
        cur = self._report(tmp_path, "cur.json", timings)
        assert main(["bench", "compare", base, cur]) == 1
        assert "speedup regression: fit_batch" in capsys.readouterr().out

    def test_compare_missing_baseline_errors(self, tmp_path, capsys):
        cur = self._report(tmp_path, "cur.json", {"fig3": 2.0})
        assert main(["bench", "compare", str(tmp_path / "no.json"), cur]) == 2
        assert "error:" in capsys.readouterr().err
