"""Parallel characterisation scaling: wall time at 1/2/4 workers.

Runs the same small library characterisation serially and through the
worker pool at 2 and 4 workers, records wall times and speedups, and
verifies the outputs are byte-identical across all worker counts (the
pool's core guarantee).

A second section runs a *single* cell with a deep slew/load grid
(INV, 8x8) at 1 and 2 workers: the workload where one pin dominates,
so the pool has only the pin's two edges to spread.  Throughput (grid
conditions per second) is reported per worker count.

A third section runs the Fig. 5 path propagation (16-bit adder, the
four paper models) inline and fanned out to the EM helper processes:
once on a cold helper pool (its start-up included) and once on the
warm pool.  It runs on each side of ``propagate_path``'s choice: at
500 samples per stage each model's pipeline is one fan-out task; at
4000 the widest stage fit has more EM blocks than there are models,
so the models run in turn and their fits' blocks fan out.

Speedup is *recorded, not asserted*: CI containers often pin a single
core, where extra workers cannot help and spawn overhead makes them
slower.  The byte-identity check is the hard gate; the timings are the
signal an operator reads on real hardware.

Run directly (CI does)::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py

Exits non-zero only when a parallel run's output diverges from serial
(for Fig. 5: when any run's binning errors differ from the inline run's).
"""

from __future__ import annotations

import json
import os
import sys
import time
from unittest import mock

WORKER_COUNTS = (1, 2, 4)
GRID = 2
SAMPLES = 256

# Single-cell section: one cell, deep grid, 1 and 2 workers.
CELL_GRID = 8
CELL_SAMPLES = 96
CELL_WORKERS = (1, 2)

# Fig. 5 section: the adder path at the perfbench sample count (the
# pipelines fan out) and where its fits' EM blocks fan out instead.
PATH_BITS = 16
PATH_SAMPLES = (500, 4000)


def _characterize(
    workers: int, cell_names=("INV", "NAND2"), grid=GRID, samples=SAMPLES
) -> tuple[str, str, float]:
    from repro.circuits import (
        CharacterizationConfig,
        GateTimingEngine,
        TT_GLOBAL_LOCAL_MC,
        build_cell,
        characterize_library,
    )
    from repro.circuits.characterize import PAPER_LOADS, PAPER_SLEWS
    from repro.runtime import FitPolicy, FitReport

    engine = GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)
    cells = [build_cell(name, 1.0) for name in cell_names]
    config = CharacterizationConfig(
        slews=PAPER_SLEWS[:grid],
        loads=PAPER_LOADS[:grid],
        n_samples=samples,
        seed=7,
    )
    report = FitReport()
    start = time.perf_counter()
    library = characterize_library(
        engine,
        cells,
        config,
        policy=FitPolicy(),
        report=report,
        isolate_errors=True,
        workers=workers,
    )
    elapsed = time.perf_counter() - start
    return (
        library.to_text(),
        json.dumps(report.to_dict(), sort_keys=True),
        elapsed,
    )


def _single_cell_section() -> bool:
    """Run INV on the deep grid at each worker count; True on divergence."""
    print(
        f"single cell: INV, {CELL_GRID}x{CELL_GRID} grid, "
        f"{CELL_SAMPLES} samples"
    )
    # One input pin x two edges x CELL_GRID^2 conditions.
    conditions = 2 * CELL_GRID * CELL_GRID
    serial_lib = serial_report = None
    failed = False
    for workers in CELL_WORKERS:
        lib, report, elapsed = _characterize(
            workers, ("INV",), CELL_GRID, CELL_SAMPLES
        )
        if serial_lib is None:
            serial_lib, serial_report = lib, report
        identical = lib == serial_lib and report == serial_report
        throughput = (
            conditions / elapsed if elapsed > 0 else float("inf")
        )
        print(
            f"  workers={workers}  wall={elapsed:8.3f}s  "
            f"throughput={throughput:7.1f} cond/s  "
            f"byte-identical={'yes' if identical else 'NO'}"
        )
        if not identical:
            failed = True
    return failed


def _fig5_section(samples: int) -> bool:
    """Propagate the adder inline, then fanned out; True on divergence."""
    from repro.circuits.gate import GateTimingEngine
    from repro.circuits.process import TT_GLOBAL_LOCAL_MC
    from repro.runtime import fanout
    from repro.ssta.fo4 import fo4_delay
    from repro.ssta.paths import build_carry_adder_path, simulate_path_stages
    from repro.ssta.propagate import propagate_path

    engine = GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)
    simulations = simulate_path_stages(
        engine, build_carry_adder_path(PATH_BITS), samples, seed=7
    )
    fo4 = fo4_delay(engine)

    def timed():
        start = time.perf_counter()
        result = propagate_path(simulations, fo4=fo4)
        return result.binning_errors, time.perf_counter() - start

    fanout._shutdown()
    with mock.patch.object(fanout, "_helper_count", return_value=0):
        inline, inline_wall = timed()
    print(
        f"fig5 propagation: {PATH_BITS}-bit adder, {len(simulations)} "
        f"stages, {samples} samples, {fanout._helper_count()} "
        "helper(s)"
    )
    print(f"  inline              wall={inline_wall:8.3f}s")
    failed = False
    for label in ("fanned out, cold", "fanned out, warm"):
        errors, wall = timed()
        identical = errors == inline
        speedup = inline_wall / wall if wall > 0 else float("inf")
        print(
            f"  {label:<18}  wall={wall:8.3f}s  speedup={speedup:5.2f}x  "
            f"identical={'yes' if identical else 'NO'}"
        )
        failed = failed or not identical
    return failed


def main() -> int:
    results: dict[int, tuple[str, str, float]] = {}
    for workers in WORKER_COUNTS:
        results[workers] = _characterize(workers)

    serial_lib, serial_report, serial_time = results[1]
    print(
        f"parallel scaling: {GRID}x{GRID} grid, {SAMPLES} samples, "
        f"{os.cpu_count()} cpu(s) visible"
    )
    failed = False
    for workers in WORKER_COUNTS:
        lib, report, elapsed = results[workers]
        identical = lib == serial_lib and report == serial_report
        speedup = serial_time / elapsed if elapsed > 0 else float("inf")
        print(
            f"  workers={workers}  wall={elapsed:8.3f}s  "
            f"speedup={speedup:5.2f}x  "
            f"byte-identical={'yes' if identical else 'NO'}"
        )
        if not identical:
            failed = True
    failed = _single_cell_section() or failed
    for samples in PATH_SAMPLES:
        failed = _fig5_section(samples) or failed
    if failed:
        print(
            "FAIL: a parallel run diverged from the serial output",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
