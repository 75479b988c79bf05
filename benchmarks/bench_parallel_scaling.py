"""Parallel characterisation scaling: wall time at 1/2/4 workers.

Runs the same small library characterisation serially and through the
worker pool at 2 and 4 workers, records wall times and speedups, and
verifies the outputs are byte-identical across all worker counts (the
pool's core guarantee).

A second section runs a *single* cell with a deep slew/load grid
(INV, 8x8) at 1 and 2 workers: the workload where one pin dominates,
so the pool has only the pin's two edges to spread.  Throughput (grid
conditions per second) is reported per worker count.

Speedup is *recorded, not asserted*: CI containers often pin a single
core, where extra workers cannot help and spawn overhead makes them
slower.  The byte-identity check is the hard gate; the timings are the
signal an operator reads on real hardware.

Run directly (CI does)::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py

Exits non-zero only when a parallel run's output diverges from serial.
"""

from __future__ import annotations

import json
import os
import sys
import time

WORKER_COUNTS = (1, 2, 4)
GRID = 2
SAMPLES = 256

# Single-cell section: one cell, deep grid, 1 and 2 workers.
CELL_GRID = 8
CELL_SAMPLES = 96
CELL_WORKERS = (1, 2)


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
    if failed:
        print(
            "FAIL: a parallel run diverged from the serial output",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
