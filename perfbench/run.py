"""perfbench: the repository benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload char_arc --seed 1 --seconds 5 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs the workload's first unit once untraced and once
under a telemetry session and prints the per-layer metrics.  The last
line of standard output is the JSON result.  See README.md here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Thread pools that would otherwise fight over a small box's cores.
SINGLE_THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("char_arc", "path_yield", "lib_resume"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_untraced(workload, seed: int, seconds: float, scratch: Path):
    """Timed run: every end-to-end metric."""
    from harness import (
        Layers, SignOff, Tally, median, peak_rss_mb, percentile,
        time_setup,
    )

    setup_s, state = time_setup(ROOT, lambda: workload.build(seed))
    setup_s += workload.prepare(state, scratch, None)
    layers, tally, sign = Layers(), Tally(), SignOff()
    units = []
    started = time.perf_counter()
    while (
        len(units) < workload.min_units
        or time.perf_counter() - started < seconds
    ):
        gc.collect()
        units.append(
            workload.unit(state, len(units), layers, tally, sign)
        )
    fixed = units[: workload.min_units]
    cdf_gain, binning_gain = workload.quality(state, fixed)
    fits = sum(unit.report.n_fits for unit in units)
    degraded = sum(len(unit.report.degraded_records()) for unit in units)
    details = {
        "units": len(units),
        "items": sum(unit.items for unit in units),
        "yield_calls": len(sign.latencies),
        "skipped_targets": sign.skipped_targets,
        "redrawn_inputs": state.get("redrawn_inputs", 0),
        "fail_frac": tally.failed / tally.attempted,
        "degraded_frac": degraded / fits,
        "chain_s": [unit.chain_s for unit in units],
    }
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "items_per_s": metric(
            details["items"] / sum(unit.chain_s for unit in units), "1/s"
        ),
        "yield_p50_ms": metric(percentile(sign.latencies, 50) * 1e3, "ms"),
        "yield_p90_ms": metric(percentile(sign.latencies, 90) * 1e3, "ms"),
        "yield_rel_err": metric(
            median(err for unit in fixed for err in unit.rel_errors), "ratio"
        ),
        "ok_frac": metric(1.0 - details["fail_frac"], "ratio"),
        "lvf2_frac": metric(1.0 - details["degraded_frac"], "ratio"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "cdf_rmse_gain": metric(cdf_gain, "x"),
        "binning_gain": metric(binning_gain, "x"),
    }
    return tally, metrics, details


def run_traced(workload, seed: int, scratch: Path):
    """Traced run: every per-layer metric, from the first unit."""
    from harness import (
        Layers, SignOff, Tally, TraceCapture, check_repeat,
        directory_usage, per_layer, repeat_counts, source_digest,
    )

    state = workload.build(seed)
    capture = TraceCapture()
    traces = scratch / "traces"
    traces.mkdir()
    with capture.segment():
        workload.prepare(state, scratch, traces)
    # Traced runs report no latencies, so they skip the per-call
    # reference kernel, which no layer span would cover.
    tally = Tally()
    started = time.perf_counter()
    workload.unit(state, 0, Layers(), tally, SignOff(normalize=False))
    untraced_wall = time.perf_counter() - started

    layers, sign = Layers(), SignOff(normalize=False)
    started = time.perf_counter()
    with capture.segment():
        unit = workload.unit(state, 0, layers, tally, sign, traces)
    traced_wall = time.perf_counter() - started
    for path in sorted(traces.glob("trace-*-merged.jsonl")):
        capture.add_trace_file(str(path))

    extra = {"path_samples": unit.path_samples}
    if "store" in state:
        files, size = directory_usage(state["store"], "*.ckpt")
        extra.update(checkpoint_files=files, checkpoint_bytes=size)
    report = state.get("cold_report", unit.report)
    values = per_layer(
        capture, layers, extra, sign, traced_wall, untraced_wall,
        models_fits=unit.fits,
        degraded=len(report.degraded_records()),
        liberty_bytes=unit.liberty_bytes,
    )
    key = f"{workload.name}-seed{seed}-{source_digest(ROOT)}"
    check_repeat(ROOT, key, repeat_counts(values), tally)
    metrics = {name: metric(v, u) for name, (v, u) in values.items()}
    return tally, metrics, {
        "repeat_key": key,
        "skipped_targets": sign.skipped_targets,
        "redrawn_inputs": state.get("redrawn_inputs", 0),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for name in SINGLE_THREAD_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from harness import stop_children
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        if args.trace:
            tally, metrics, details = run_traced(workload, args.seed, scratch)
        else:
            tally, metrics, details = run_untraced(
                workload, args.seed, args.seconds, scratch
            )
    finally:
        stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
    print(
        "perfbench:",
        json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "env": environment(), **details},
            sort_keys=True,
        ),
    )
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
