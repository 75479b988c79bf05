"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands:

- ``models``        — list registered timing models
- ``fit``           — fit a model to samples from a file and report
- ``scenario``      — sample a Fig. 3 scenario and compare all models
- ``characterize``  — Monte-Carlo characterise cells into a `.lib`
- ``liberty``       — parse and summarise a Liberty file
- ``bench``         — regenerate the paper's tables and figures
  (``--json`` records a perf report; ``bench compare`` judges one
  against a committed baseline)
- ``yield``         — far-tail yield estimation at a k-sigma target
  (MC / mean-shift IS / adaptive-IS engines)
- ``status``        — live progress of a pool checkpoint directory
- ``trace``         — summarise, merge or analyze telemetry traces
- ``lint``          — static determinism lint over Python sources
- ``lint-lib``      — domain lint over Liberty/LVF2 artifacts
- ``fo4``           — print the technology FO4 delay
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

import numpy as np

from repro.errors import (
    EXIT_CODES,
    ParameterError,
    ReproError,
    exit_code_for,
)

__all__ = ["main", "build_parser", "exit_code_for", "EXIT_CODES"]


def _load_samples(path: str) -> np.ndarray:
    """Load samples from ``.npy`` or whitespace-separated text / stdin.

    Raises:
        ParameterError: When the file is missing or not parseable as
            numeric samples — the CLI reports one line, not a numpy
            traceback.
    """
    try:
        if path == "-":
            return np.loadtxt(sys.stdin)
        if path.endswith(".npy"):
            return np.load(path)
        return np.loadtxt(path)
    except (OSError, ValueError) as error:
        raise ParameterError(
            f"cannot load samples from {path!r}: {error}"
        ) from error


def _checkpoint_store(args: argparse.Namespace):
    """Build the checkpoint store requested by --checkpoint-dir/--resume."""
    from repro.runtime.checkpoint import CheckpointStore

    if not args.checkpoint_dir:
        if args.resume:
            raise ParameterError(
                "--resume requires --checkpoint-dir pointing at the "
                "store of the interrupted run"
            )
        return None
    return CheckpointStore(args.checkpoint_dir, reuse=args.resume)


def _cmd_models(_: argparse.Namespace) -> int:
    from repro.models import available_models, get_model

    for name in available_models():
        cls = get_model(name)
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"{name:10s} {doc}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.binning import evaluate_models
    from repro.models import fit_model
    from repro.stats import EmpiricalDistribution

    samples = _load_samples(args.samples)
    model = fit_model(args.model, samples)
    summary = model.moments()
    print(
        f"{args.model}: mean={summary.mean:.6g} std={summary.std:.6g} "
        f"skew={summary.skewness:+.4g} kurt={summary.kurtosis:+.4g} "
        f"params={model.n_parameters}"
    )
    if args.score:
        golden = EmpiricalDistribution(samples)
        report = evaluate_models(
            {args.model: model, "LVF": fit_model("LVF", samples)},
            golden,
        )
        row = report[args.model]
        print(
            f"binning_reduction={row['binning_reduction']:.2f}x "
            f"yield_reduction={row['yield_reduction']:.2f}x "
            f"rmse_reduction={row['rmse_reduction']:.2f}x"
        )
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.circuits import get_scenario, scenario_names
    from repro.experiments import score_paper_models

    names = [args.name] if args.name else list(scenario_names())
    stack = np.stack(
        [
            get_scenario(name).sample(args.samples, rng=args.seed)
            for name in names
        ]
    )
    for name, report in zip(names, score_paper_models(stack)):
        print(f"{name}:")
        for model, row in report.items():
            print(
                f"  {model:6s} binning={row['binning_reduction']:8.2f}x "
                f"yield={row['yield_reduction']:8.2f}x "
                f"rmse={row['rmse_reduction']:8.2f}x"
            )
    return 0


def _run_checkpoint_gc(args, store, engine, cells, config, *, policy) -> None:
    """Drop checkpoint entries orphaned by the current configuration."""
    from repro.circuits.characterize import characterization_tokens

    if store is None:
        raise ParameterError(
            "--checkpoint-gc/--checkpoint-max-age/--checkpoint-max-bytes "
            "require --checkpoint-dir pointing at the store to collect"
        )
    # The full valid set — per-edge Monte-Carlo and fit tokens — so
    # payloads a pool run left behind survive gc.
    tokens = characterization_tokens(engine, cells, config, policy=policy)
    max_age = (
        args.checkpoint_max_age * 3600.0
        if args.checkpoint_max_age is not None
        else None
    )
    removed = store.gc(
        tokens,
        max_age_seconds=max_age,
        max_total_bytes=args.checkpoint_max_bytes,
    )
    print(
        f"checkpoint gc: removed {removed} stale entries "
        f"from {store.directory}",
        file=sys.stderr,
    )


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.circuits import (
        CharacterizationConfig,
        GateTimingEngine,
        TT_GLOBAL_LOCAL_MC,
        build_cell,
        characterize_library,
    )
    from repro.circuits.characterize import (
        PAPER_LOADS,
        PAPER_SLEWS,
        run_fingerprint,
    )
    from repro.runtime import FitPolicy, FitReport, ProgressReporter
    from repro.runtime import fsfaults, telemetry
    from repro.runtime.export import write_text_file
    from repro.runtime.progress import configure_progress_logging

    configure_progress_logging()
    fsfaults.set_retry_policy(
        fsfaults.RetryPolicy(
            retries=args.fs_retries, backoff=args.fs_backoff
        )
    )
    engine = GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)
    grid = args.grid
    config = CharacterizationConfig(
        slews=PAPER_SLEWS[:grid],
        loads=PAPER_LOADS[:grid],
        n_samples=args.samples,
        seed=args.seed,
    )
    cells = [build_cell(name, args.drive) for name in args.cells]
    policy = FitPolicy(rungs=("LVF2",)) if args.no_fallback else FitPolicy()
    isolate_errors = not args.no_fallback
    store = _checkpoint_store(args)
    if (
        args.checkpoint_gc
        or args.checkpoint_max_age is not None
        or args.checkpoint_max_bytes is not None
    ):
        _run_checkpoint_gc(args, store, engine, cells, config, policy=policy)

    session = None
    if args.trace or args.metrics or args.manifest:
        session = telemetry.TelemetrySession(
            trace_path=args.trace, sample=args.trace_sample
        )
    context = (
        telemetry.activate(session)
        if session is not None
        else nullcontext()
    )
    pool_config = None
    if args.workers > 1:
        from repro.runtime.pool import PoolConfig

        trace_dir = None
        if args.trace:
            import os

            trace_dir = os.path.dirname(os.path.abspath(args.trace))
        pool_config = PoolConfig(
            n_workers=args.workers,
            claim_timeout=args.claim_timeout,
            claim_skew=args.claim_skew,
            fs_retry=fsfaults.retry_policy(),
            seed=args.seed,
            run_id=session.run_id if session is not None else None,
            trace_dir=trace_dir,
            trace_sample=args.trace_sample,
            merge_traces=False,
        )
    report = FitReport()
    try:
        with context, telemetry.span(
            "characterize.run",
            cells=",".join(args.cells),
            grid=grid,
            n_samples=args.samples,
        ):
            library = characterize_library(
                engine,
                cells,
                config,
                checkpoint=store,
                policy=policy,
                report=report,
                isolate_errors=isolate_errors,
                progress=ProgressReporter(enabled=args.progress),
                workers=args.workers,
                pool=pool_config,
            )
            text = library.to_text()
            if args.out:
                write_text_file(args.out, text)
                print(
                    f"wrote {args.out}: {len(library.cells)} cells, "
                    f"{grid}x{grid} grid, "
                    f"{args.samples} samples/condition"
                )
            else:
                print(text)
        if session is not None:
            manifest = session.manifest(
                command="characterize",
                config_hash=run_fingerprint(engine, cells, config),
                seed=args.seed,
                workers=args.workers,
                n_samples=args.samples,
                grid=[grid, grid],
                cells=list(args.cells),
                degradations={
                    "rung_counts": report.rung_counts(),
                    "degraded": len(report.degraded_records()),
                    "quarantined": len(report.quarantined),
                },
                library={
                    **telemetry.checksum_text(text),
                    "n_cells": len(library.cells),
                    "path": args.out,
                },
                checkpoint=(
                    None
                    if store is None
                    else {
                        "hits": store.hits,
                        "misses": store.misses,
                        "writes": store.writes,
                    }
                ),
            )
            session.write_manifest(manifest)
            if args.manifest:
                write_text_file(
                    args.manifest,
                    json.dumps(manifest, indent=2, default=str) + "\n",
                )
                print(f"wrote manifest {args.manifest}", file=sys.stderr)
    finally:
        if session is not None:
            session.close()
    if session is not None and args.trace and args.workers > 1:
        _merge_worker_traces(args.trace, session.run_id)
    if args.report_json:
        write_text_file(
            args.report_json,
            json.dumps(report.to_dict(), indent=2) + "\n",
        )
        print(f"wrote fit report {args.report_json}", file=sys.stderr)
    if args.metrics and session is not None:
        print(telemetry.format_metrics(session.metrics.snapshot()))
    if report.n_fits and (
        report.degraded_records() or report.quarantined
    ):
        print(report.summary())
    return 0


def _merge_worker_traces(trace_path: str, run_id: str) -> None:
    """Fold a pool run's per-worker traces into the main trace file.

    Worker trace names are deterministic
    (``trace-<run_id>[-rN]-wNN.jsonl`` next to the main trace), so the
    files are found by pattern; each is labelled by its worker suffix
    and removed once merged.
    """
    import glob
    import os

    from repro.runtime.telemetry import merge_trace_files

    trace_dir = os.path.dirname(os.path.abspath(trace_path))
    worker_traces = sorted(
        glob.glob(
            os.path.join(
                trace_dir, f"trace-{glob.escape(run_id)}*-w??.jsonl"
            )
        )
    )
    if not worker_traces:
        return
    labels = ["main"]
    for path in worker_traces:
        stem = os.path.splitext(os.path.basename(path))[0]
        labels.append(stem.split(f"trace-{run_id}-", 1)[-1])
    merge_trace_files(
        [trace_path, *worker_traces], trace_path, labels=labels
    )
    for path in worker_traces:
        os.unlink(path)
    print(
        f"merged {len(worker_traces)} worker trace(s) into {trace_path}",
        file=sys.stderr,
    )


def _resolve_trace_dir(directory: str) -> str | None:
    """Resolve a directory argument to its single trace file.

    Returns None — after printing an explicit "no spans" summary —
    when the directory documents a run (a manifest or pool metadata
    file) but holds no trace files: a run that simply was not traced
    is an answer, not a usage error.

    Raises:
        ParameterError: When the directory holds several trace files
            (ambiguous — merge or name one) or no trace of a run at
            all.
    """
    import glob
    import os

    traces = sorted(glob.glob(os.path.join(directory, "*.jsonl")))
    if len(traces) == 1:
        return traces[0]
    if len(traces) > 1:
        names = ", ".join(os.path.basename(path) for path in traces[:4])
        more = "..." if len(traces) > 4 else ""
        raise ParameterError(
            f"{directory!r} holds {len(traces)} trace files "
            f"({names}{more}); merge them first "
            "(`repro trace merge <files> -o merged.jsonl`) or name one"
        )
    manifests = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        try:
            with open(path) as handle:
                body = json.load(handle)
        except (OSError, ValueError):
            continue
        if isinstance(body, dict) and str(
            body.get("schema", "")
        ).startswith("repro."):
            manifests.append((os.path.basename(path), body))
    if not manifests:
        raise ParameterError(
            f"{directory!r} contains no .jsonl trace files and no run "
            "manifest — nothing to summarise"
        )
    print(f"no spans: {directory} documents a run but holds no trace files")
    for name, body in manifests:
        detail = ", ".join(
            f"{key}={body[key]}"
            for key in ("schema", "command", "run_id", "n_items")
            if key in body
        )
        print(f"  {name}: {detail}")
    print("hint: re-run with --trace FILE to record spans")
    return None


def _load_trace_checked(path: str):
    """Load a trace file, turning empty/recordless files into clear
    one-line errors instead of tracebacks or blank summaries."""
    import os

    from repro.runtime.telemetry import load_trace

    try:
        empty = os.path.getsize(path) == 0
    except OSError as error:
        raise ParameterError(
            f"cannot read trace file {path!r}: {error}"
        ) from error
    if empty:
        raise ParameterError(
            f"trace file {path!r} is empty — the traced run "
            "wrote no records (killed before the first span?)"
        )
    data = load_trace(path)
    if not data.spans and not data.metrics and data.manifest is None:
        raise ParameterError(
            f"trace file {path!r} contains no trace records"
        )
    return data


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    import os

    from repro.runtime.telemetry import summarize_trace

    target = args.file
    if os.path.isdir(target):
        resolved = _resolve_trace_dir(target)
        if resolved is None:
            return 0
        target = resolved
    print(summarize_trace(_load_trace_checked(target)))
    return 0


def _cmd_trace_analyze(args: argparse.Namespace) -> int:
    import os

    from repro.runtime.telemetry import analyze_trace, render_analysis

    target = args.file
    if os.path.isdir(target):
        resolved = _resolve_trace_dir(target)
        if resolved is None:
            return 0
        target = resolved
    analysis = analyze_trace(_load_trace_checked(target), top=args.top)
    if args.json:
        print(
            json.dumps(
                analysis.to_dict(top=args.top), indent=2, sort_keys=True
            )
        )
    else:
        print(render_analysis(analysis, top=args.top))
    return 0


def _cmd_trace_merge(args: argparse.Namespace) -> int:
    from repro.runtime.telemetry import merge_trace_files

    if args.labels is not None and len(args.labels) != len(args.inputs):
        raise ParameterError(
            f"--labels needs one label per input trace "
            f"({len(args.inputs)} inputs, {len(args.labels)} labels)"
        )
    manifest = merge_trace_files(
        args.inputs, args.out, labels=args.labels
    )
    print(
        f"merged {len(args.inputs)} trace(s), "
        f"{manifest['span_count']} spans -> {args.out}"
    )
    if manifest["truncated_sources"]:
        print(
            f"note: {manifest['truncated_sources']} source(s) ended "
            "mid-record (killed writer); the truncated tail lines "
            "were skipped",
            file=sys.stderr,
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    handlers = {
        "summarize": _cmd_trace_summarize,
        "merge": _cmd_trace_merge,
        "analyze": _cmd_trace_analyze,
    }
    return handlers[args.trace_command](args)


def _cmd_status(args: argparse.Namespace) -> int:
    import time

    from repro.runtime.pool import read_pool_status, render_status

    while True:
        status = read_pool_status(
            args.directory, claim_timeout=args.claim_timeout
        )
        if args.json:
            print(json.dumps(status.to_dict(), sort_keys=True))
        else:
            print(render_status(status))
        if not args.watch or status.complete:
            return 0
        sys.stdout.flush()
        time.sleep(args.interval)
        if not args.json:
            print()


def _lint_report(args: argparse.Namespace, findings, sources) -> int:
    """Shared waiver/report/exit tail of ``lint`` and ``lint-lib``."""
    from repro.analysis import (
        apply_baseline,
        apply_suppressions,
        fails,
        load_baseline,
        render_jsonl,
        render_sarif,
        render_stats,
        render_text,
        scan_stats,
        write_baseline,
    )

    if args.stats and args.format == "sarif":
        raise ParameterError(
            "--stats is not available with --format sarif; the SARIF "
            "document carries results only"
        )
    findings = apply_suppressions(findings, sources)
    if args.write_baseline:
        if not args.baseline:
            raise ParameterError(
                "--write-baseline requires --baseline FILE to name "
                "the baseline to create"
            )
        count = write_baseline(args.baseline, findings)
        print(
            f"wrote baseline {args.baseline}: {count} grandfathered "
            "finding(s)",
            file=sys.stderr,
        )
        return 0
    if args.baseline:
        findings = apply_baseline(findings, load_baseline(args.baseline))
    if args.format == "jsonl":
        render_jsonl(findings, sys.stdout)
        if args.stats:
            print(json.dumps(scan_stats(findings, sources), sort_keys=True))
    elif args.format == "sarif":
        render_sarif(findings, sys.stdout)
    else:
        render_text(findings, sys.stdout)
        if args.stats:
            render_stats(findings, sources, sys.stdout)
    return 1 if fails(findings) else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import REGISTRY, lint_paths

    if args.rules:
        print(REGISTRY.table())
        return 0
    if not args.paths:
        raise ParameterError(
            "lint needs at least one file or directory "
            "(e.g. `repro lint src/repro`)"
        )
    findings, sources = lint_paths(args.paths)
    if args.flow:
        from repro.analysis import Finding, lint_flow_sources

        findings = sorted(
            findings + lint_flow_sources(sources), key=Finding.sort_key
        )
    return _lint_report(args, findings, sources)


def _cmd_lint_lib(args: argparse.Namespace) -> int:
    from repro.analysis import lint_library_paths

    findings, sources = lint_library_paths(args.paths)
    return _lint_report(args, findings, sources)


def _cmd_liberty(args: argparse.Namespace) -> int:
    from repro.liberty import read_library

    with open(args.library) as handle:
        library = read_library(handle.read())
    print(f"library {library.name}: {len(library.cells)} cells")
    print(f"LVF2 extension present: {library.is_lvf2}")
    for cell in library.cells.values():
        arcs = cell.arcs()
        statistical = sum(arc.is_statistical for _, arc in arcs)
        lvf2 = sum(arc.is_lvf2 for _, arc in arcs)
        print(
            f"  {cell.name:14s} arcs={len(arcs)} "
            f"statistical={statistical} lvf2={lvf2}"
        )
    if args.roundtrip:
        from repro.runtime.export import write_text_file

        out = args.roundtrip
        write_text_file(out, library.to_text())
        print(f"round-tripped to {out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.liberty import Severity, read_library, validate_library

    with open(args.library) as handle:
        library = read_library(handle.read())
    diagnostics = validate_library(library)
    for diagnostic in diagnostics:
        print(diagnostic)
    errors = sum(
        1 for d in diagnostics if d.severity is Severity.ERROR
    )
    print(
        f"{len(diagnostics)} diagnostics ({errors} errors) in "
        f"library {library.name}"
    )
    return 1 if errors else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import os

    if getattr(args, "bench_command", None) == "compare":
        return _cmd_bench_compare(args)
    if args.paper and args.smoke:
        raise ParameterError(
            "--paper and --smoke are opposite scales; pick one"
        )
    if args.paper:
        os.environ["REPRO_PAPER"] = "1"
    from repro.experiments import run_all
    from repro.runtime import telemetry
    from repro.runtime.progress import configure_progress_logging

    if not args.quiet:
        configure_progress_logging()
    pool_config = None
    if args.workers > 1:
        from repro.runtime.pool import PoolConfig

        pool_config = PoolConfig(
            n_workers=args.workers,
            claim_timeout=args.claim_timeout,
            claim_skew=args.claim_skew,
        )
    table2_config = None
    scale_kwargs: dict = {}
    samples = args.samples
    if args.smoke:
        from repro.experiments import Table2Config

        # Sub-minute CI scale: every experiment shrunk, and the scale
        # recorded in the report config so a smoke report can never be
        # compared against a full-scale baseline.
        table2_config = Table2Config.smoke()
        samples = min(samples, 2000)
        scale_kwargs = {
            "fig4_samples": 500,
            "fig5_samples": 500,
            "clt_samples": 2000,
            "yield_budgets": (1024, 4096),
            "yield_repeats": 2,
            "fit_points": 24,
            "fit_samples": 200,
        }
    session = None
    records: list[dict] = []
    calibration = 0.0
    if args.json:
        from repro.perf import calibrate

        # Calibrate before the run, in the same process, so the
        # report's machine-speed reference sees the same interpreter
        # and BLAS state the timed suite does.
        calibration = calibrate()
        session = telemetry.TelemetrySession(sinks=(records.append,))
    context = (
        telemetry.activate(session)
        if session is not None
        else nullcontext()
    )
    try:
        with context:
            suite = run_all(
                scenario_samples=samples,
                table2_config=table2_config,
                progress=not args.quiet,
                checkpoint=_checkpoint_store(args),
                workers=args.workers,
                pool=pool_config,
                **scale_kwargs,
            )
    finally:
        if session is not None:
            session.close()
    print(suite.to_text())
    if args.json:
        from repro.perf import build_report, experiment_timings
        from repro.runtime.export import write_text_file

        report = build_report(
            experiment_timings(records),
            calibration,
            config={
                "samples": samples,
                "workers": args.workers,
                "paper": bool(args.paper),
                "smoke": bool(args.smoke),
            },
        )
        write_text_file(
            args.json,
            json.dumps(report, indent=2, sort_keys=True) + "\n",
        )
        print(f"wrote perf report {args.json}", file=sys.stderr)
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.perf import (
        check_speedups,
        compare_reports,
        load_report,
        render_comparison,
        render_speedups,
    )

    current = load_report(args.current)
    rows = compare_reports(
        load_report(args.baseline),
        current,
        max_regression_pct=args.max_regression,
    )
    # Intra-report invariants (e.g. the batched fit must beat the
    # serial loop) are judged on the *current* report alone — they
    # need no baseline and no calibration.
    speedups = check_speedups(current)
    if args.json:
        print(
            json.dumps(
                {
                    "comparison": [row.to_dict() for row in rows],
                    "speedups": [row.to_dict() for row in speedups],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            render_comparison(
                rows, max_regression_pct=args.max_regression
            )
        )
        print(render_speedups(speedups))
    failed = any(row.failed for row in rows) or any(
        row.failed for row in speedups
    )
    return 1 if failed else 0


def _cmd_yield(args: argparse.Namespace) -> int:
    from repro.stats.moments import sample_moments
    from repro.yield_est import estimate_yield

    samples = _load_samples(args.samples)
    summary = sample_moments(samples)
    if args.threshold is not None:
        threshold = args.threshold
    else:
        threshold = summary.sigma_point(args.target_sigma)
    if args.model == "none":
        from repro.stats import EmpiricalDistribution

        # Raw-sampler path: the engines bootstrap-resample the file
        # and (for IS) fit their own surrogate — exercises exactly the
        # pipeline an SSTA path-delay sampler would use.
        target: object = EmpiricalDistribution(samples)
    else:
        from repro.models import fit_model

        target = fit_model(args.model, samples)
    estimate = estimate_yield(
        target,
        threshold,
        engine=args.engine,
        budget=args.budget,
        rng=args.seed,
    )
    if args.json:
        print(estimate.to_json())
        return 0
    reference = (
        f"--threshold {threshold:.6g}"
        if args.threshold is not None
        else f"{args.target_sigma:g} sigma -> T={threshold:.6g}"
    )
    print(
        f"target: {reference} "
        f"(sample mean={summary.mean:.6g} std={summary.std:.6g})"
    )
    print(estimate.summary())
    return 0


def _cmd_fo4(_: argparse.Namespace) -> int:
    from repro.circuits import GateTimingEngine, TT_GLOBAL_LOCAL_MC
    from repro.ssta import fo4_condition, fo4_delay

    engine = GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)
    delay = fo4_delay(engine)
    slew, load = fo4_condition(engine)
    print(f"FO4 delay: {delay * 1e3:.3f} ps")
    print(f"FO4 condition: slew={slew * 1e3:.3f} ps load={load:.5f} pF")
    return 0


def _add_pool_flags(
    parser: argparse.ArgumentParser, *, sweep: str
) -> None:
    """Shared worker-pool flags (``characterize`` and ``bench``).

    Args:
        parser: The subcommand parser to extend.
        sweep: What ``--workers`` splits, for the help text
            ("characterisation", "the Table 2 library sweep").
    """
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=f"split {sweep} across N worker processes (claim-file "
        "coordination; output is byte-identical to a serial run)",
    )
    parser.add_argument(
        "--claim-timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="with --workers: seconds without a heartbeat before a "
        "dead worker's claim is reclaimed",
    )
    parser.add_argument(
        "--claim-skew",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="with --workers: extra cross-host clock skew tolerated "
        "on top of --claim-timeout before a claim is judged stale "
        "(NFS mtimes come from the server's clock)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "LVF2 statistical timing models, Liberty LVF2 extension, "
            "Monte-Carlo characterisation and SSTA (DAC'24 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list registered timing models")

    fit = sub.add_parser("fit", help="fit a model to a sample file")
    fit.add_argument("samples", help=".npy / text file or '-' for stdin")
    fit.add_argument("--model", default="LVF2")
    fit.add_argument(
        "--score",
        action="store_true",
        help="also report error reductions vs LVF",
    )

    scenario = sub.add_parser(
        "scenario", help="evaluate models on the Fig. 3 scenarios"
    )
    scenario.add_argument("--name", default=None)
    scenario.add_argument("--samples", type=int, default=50_000)
    scenario.add_argument("--seed", type=int, default=0)

    characterize = sub.add_parser(
        "characterize", help="characterise cells into a Liberty library"
    )
    characterize.add_argument(
        "--cells", nargs="+", default=["INV", "NAND2"]
    )
    characterize.add_argument("--drive", type=float, default=1.0)
    characterize.add_argument("--samples", type=int, default=2000)
    characterize.add_argument(
        "--grid", type=int, default=3, help="grid points per axis (<=8)"
    )
    characterize.add_argument("--seed", type=int, default=2024)
    characterize.add_argument("--out", default=None)
    characterize.add_argument(
        "--checkpoint-dir",
        default=None,
        help="per-arc checkpoint store for kill-and-resume runs",
    )
    characterize.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed arcs from --checkpoint-dir",
    )
    characterize.add_argument(
        "--no-fallback",
        action="store_true",
        help="strict mode: fit LVF2 only (a one-rung fallback ladder) "
        "and disable per-arc isolation, so a failed fit aborts the run",
    )
    characterize.add_argument(
        "--progress",
        action="store_true",
        help="log one line per characterised arc",
    )
    characterize.add_argument(
        "--checkpoint-gc",
        action="store_true",
        help="before running, drop checkpoint entries whose token no "
        "longer matches the current configuration",
    )
    characterize.add_argument(
        "--checkpoint-max-age",
        type=float,
        default=None,
        metavar="HOURS",
        help="with --checkpoint-gc semantics: also drop checkpoint "
        "entries older than this many hours",
    )
    characterize.add_argument(
        "--checkpoint-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="with --checkpoint-gc semantics: after dropping stale "
        "entries, evict oldest checkpoints until the store fits "
        "under this size cap",
    )
    _add_pool_flags(characterize, sweep="characterisation")
    characterize.add_argument(
        "--fs-retries",
        type=int,
        default=2,
        metavar="N",
        help="extra attempts after a transient filesystem error "
        "(EIO/ESTALE/ENOSPC) on checkpoint, claim, journal and "
        "export I/O before giving up",
    )
    characterize.add_argument(
        "--fs-backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="base delay before the first filesystem retry; doubles "
        "per retry",
    )
    characterize.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSONL telemetry trace (spans, metrics, manifest)",
    )
    characterize.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="span sampling rate in (0, 1] for the trace sinks; "
        "structural and error spans are always kept",
    )
    characterize.add_argument(
        "--metrics",
        action="store_true",
        help="print the end-of-run metrics summary",
    )
    characterize.add_argument(
        "--report-json",
        default=None,
        metavar="FILE",
        help="write the fit report (rungs, degradations, quarantines) "
        "as JSON",
    )
    characterize.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="write the run manifest (config hash, phase timings, "
        "library checksum) as JSON",
    )

    liberty = sub.add_parser("liberty", help="inspect a Liberty file")
    liberty.add_argument("library")
    liberty.add_argument(
        "--roundtrip", default=None, help="write the re-serialised text"
    )

    validate = sub.add_parser(
        "validate", help="lint a Liberty file (LVF/LVF2 contracts)"
    )
    validate.add_argument("library")

    bench = sub.add_parser(
        "bench", help="regenerate the paper's tables and figures"
    )
    bench.add_argument("--paper", action="store_true")
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="sub-minute CI scale: shrink every experiment; perf "
        "reports record the scale so smoke and full-scale runs never "
        "compare against each other",
    )
    bench.add_argument("--samples", type=int, default=50_000)
    bench.add_argument("--quiet", action="store_true")
    bench.add_argument(
        "--checkpoint-dir",
        default=None,
        help="per-arc checkpoint store for the Table 2 library sweep",
    )
    bench.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed arcs from --checkpoint-dir",
    )
    _add_pool_flags(bench, sweep="the Table 2 library sweep")
    bench.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write a repro.bench/1 perf report (per-experiment wall "
        "times plus a machine calibration) for `bench compare`",
    )
    bench_sub = bench.add_subparsers(dest="bench_command")
    bench_compare = bench_sub.add_parser(
        "compare",
        help="judge a perf report against a baseline "
        "(calibration-normalised; exits 1 on regression)",
    )
    bench_compare.add_argument(
        "baseline", help="committed baseline report (benchmarks/baseline.json)"
    )
    bench_compare.add_argument(
        "current", help="freshly recorded report (`repro bench --json`)"
    )
    bench_compare.add_argument(
        "--max-regression",
        type=float,
        default=50.0,
        metavar="PCT",
        help="normalised slowdown (percent) above which an "
        "experiment fails the gate",
    )
    bench_compare.add_argument(
        "--json",
        action="store_true",
        help="print the comparison rows as JSON instead of the table",
    )

    yield_cmd = sub.add_parser(
        "yield",
        help="estimate far-tail yield at a k-sigma target "
        "(variance-reduced engines resolve 4-5 sigma where the "
        "empirical CDF saturates)",
    )
    yield_cmd.add_argument(
        "samples", help=".npy / text file or '-' for stdin"
    )
    yield_cmd.add_argument(
        "--model",
        default="LVF2",
        help="model family fitted to the samples before estimation; "
        "'none' treats the file as a raw sampler (bootstrap + "
        "surrogate for the IS engines)",
    )
    yield_cmd.add_argument(
        "--engine",
        choices=("mc", "is", "adaptive-is"),
        default="adaptive-is",
        help="estimation engine (mc = unbiased golden baseline)",
    )
    yield_cmd.add_argument(
        "--budget",
        type=int,
        default=8192,
        metavar="N",
        help="total simulator-call budget, pilot/adaptation included",
    )
    yield_cmd.add_argument(
        "--target-sigma",
        type=float,
        default=4.0,
        metavar="K",
        help="design target at sample mean + K sigma",
    )
    yield_cmd.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="T",
        help="explicit delay target (overrides --target-sigma)",
    )
    yield_cmd.add_argument(
        "--seed",
        type=int,
        default=0,
        help="estimation seed; same seed, byte-identical --json output",
    )
    yield_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the repro.yield_estimate/1 document instead of "
        "the summary line",
    )

    status = sub.add_parser(
        "status",
        help="live progress of a pool checkpoint directory "
        "(units done/total, per-worker heartbeats, throughput, ETA)",
    )
    status.add_argument(
        "directory",
        help="the --checkpoint-dir of the running (or finished) pool",
    )
    status.add_argument(
        "--json",
        action="store_true",
        help="print one machine-readable status object per report",
    )
    status.add_argument(
        "--watch",
        action="store_true",
        help="keep reporting every --interval seconds until the run "
        "completes",
    )
    status.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period for --watch",
    )
    status.add_argument(
        "--claim-timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="claim liveness threshold used for the in-flight count "
        "(match the run's --claim-timeout)",
    )

    trace = sub.add_parser(
        "trace",
        help="summarise, merge or profile JSONL telemetry traces",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize",
        help="pretty-print the span tree, phase times and metrics",
    )
    trace_summarize.add_argument(
        "file",
        help="trace file, or a directory holding one trace "
        "(a run directory with a manifest but no traces reports "
        "'no spans' instead of erroring)",
    )
    trace_analyze = trace_sub.add_parser(
        "analyze",
        help="profile a (merged) trace: per-phase wall-time "
        "attribution, worker utilization, stragglers, span waterfall",
    )
    trace_analyze.add_argument(
        "file", help="trace file (or a directory holding one)"
    )
    trace_analyze.add_argument(
        "--json",
        action="store_true",
        help="print the repro.trace_analysis/1 report as JSON",
    )
    trace_analyze.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="straggler / critical-path / waterfall row count",
    )
    trace_merge = trace_sub.add_parser(
        "merge",
        help="merge per-worker JSONL traces into one worker-tagged "
        "trace file",
    )
    trace_merge.add_argument(
        "inputs", nargs="+", help="source trace files, in merge order"
    )
    trace_merge.add_argument(
        "-o",
        "--out",
        required=True,
        help="destination trace file (may be one of the inputs)",
    )
    trace_merge.add_argument(
        "--labels",
        nargs="+",
        default=None,
        help="per-source worker labels (default: source file stems)",
    )

    def add_lint_output_flags(lint_parser: argparse.ArgumentParser) -> None:
        lint_parser.add_argument(
            "--format",
            choices=("text", "jsonl", "sarif"),
            default="text",
            help="report format (jsonl follows the telemetry sink "
            "conventions; sarif targets GitHub code scanning)",
        )
        lint_parser.add_argument(
            "--stats",
            action="store_true",
            help="append per-rule finding counts and scanned "
            "file/loc totals to the report",
        )
        lint_parser.add_argument(
            "--baseline",
            default=None,
            metavar="FILE",
            help="baseline file of grandfathered findings to apply",
        )
        lint_parser.add_argument(
            "--write-baseline",
            action="store_true",
            help="write the current findings to --baseline and exit 0",
        )

    lint = sub.add_parser(
        "lint",
        help="static determinism lint over Python sources (AST-based)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (e.g. src/repro)",
    )
    lint.add_argument(
        "--rules",
        action="store_true",
        help="print the rule table (all engines) and exit",
    )
    lint.add_argument(
        "--flow",
        action="store_true",
        help="also run the interprocedural flow pass (FLOW0xx "
        "determinism provenance + POOL0xx filesystem-race rules)",
    )
    add_lint_output_flags(lint)

    lint_lib = sub.add_parser(
        "lint-lib",
        help="domain lint for Liberty/LVF2 artifacts (AST-based)",
    )
    lint_lib.add_argument(
        "paths",
        nargs="+",
        help=".lib files or directories to lint",
    )
    add_lint_output_flags(lint_lib)

    sub.add_parser("fo4", help="print the technology FO4 delay")
    return parser


_COMMANDS = {
    "models": _cmd_models,
    "fit": _cmd_fit,
    "scenario": _cmd_scenario,
    "characterize": _cmd_characterize,
    "liberty": _cmd_liberty,
    "validate": _cmd_validate,
    "bench": _cmd_bench,
    "yield": _cmd_yield,
    "status": _cmd_status,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
    "lint-lib": _cmd_lint_lib,
    "fo4": _cmd_fo4,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return exit_code_for(error)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — not an error.  Point
        # stdout at devnull so the interpreter's final flush of the
        # dead pipe cannot raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
