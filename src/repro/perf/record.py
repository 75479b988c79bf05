"""Record one bench run's timings as a stable-schema perf report.

The report exists so CI can hold a perf-regression line without a
dedicated benchmarking fleet: ``repro bench --json`` writes one after
a normal bench run, ``benchmarks/baseline.json`` commits one, and
``repro bench compare`` (:mod:`repro.perf.compare`) judges the pair.

Raw wall-clock numbers are meaningless across machines — a laptop, a
CI runner and a build server disagree by integer factors.  Every
report therefore embeds a **calibration**: the wall time of a fixed,
seeded numpy workload (:func:`calibrate`) measured in the same
process, right before the bench run.  The comparison normalises each
timing by the calibration ratio, so "this runner is 2x slower" cancels
out and what remains is the code's own regression.  The workload mixes
the kernels the suite actually spends time in — dense linear algebra,
transcendental evaluation and sorting — so machine-speed scaling
tracks the suite reasonably, which is all the normalisation needs.

Schema ``repro.bench/1``::

    {
      "schema": "repro.bench/1",
      "created_at": <epoch seconds>,
      "host": {"machine": ..., "python": ..., "numpy": ...},
      "config": {"samples": ..., "workers": ..., "paper": ..., "smoke": ...},
      "calibration_s": <seconds>,
      "timings_s": {"fig3": ..., "table1": ..., ..., "total": ...}
    }

``timings_s`` keys are the ``experiment=...`` tags of the runner's
``experiment`` spans plus ``total`` (their sum) — adding an experiment
extends the report without breaking the comparison, which only judges
keys present in both reports.
"""

from __future__ import annotations

import platform
import time
from collections.abc import Iterable

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "BENCH_SCHEMA",
    "build_report",
    "calibrate",
    "experiment_timings",
]

#: Schema tag of every perf report.
BENCH_SCHEMA = "repro.bench/1"

#: Size of the calibration workload's square matrices.
_CAL_DIM = 160

#: Calibration repetitions; the *minimum* is reported (classic
#: microbenchmark practice: the minimum estimates the noise floor).
_CAL_REPS = 5

#: Least wall time the repetitions span, in seconds.  Right after a
#: quiet spell, the threaded BLAS calls can run ~25x slow for up to
#: ~2 s (measured on a shared 2-vCPU x86 host: 45 ms a repetition
#: instead of 1.7 ms) while the single-threaded suite slows far less,
#: so a few back-to-back repetitions may all land in that transient.
#: Repeating for this long lets the minimum reach the settled speed.
_CAL_MIN_S = 2.0


def calibrate(reps: int = _CAL_REPS) -> float:
    """Time the fixed machine-calibration workload, in seconds.

    The workload is seeded and allocation-stable, so its time varies
    only with machine speed — matmul, eigendecomposition, ``erf``-like
    transcendentals and a sort, roughly the kernel mix of the bench
    suite itself.  Returns the minimum over at least ``reps``
    repetitions spanning at least ``_CAL_MIN_S`` seconds.
    """
    if reps < 1:
        raise ParameterError(f"calibration reps must be >= 1, got {reps}")
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((_CAL_DIM, _CAL_DIM))
    vector = rng.standard_normal(_CAL_DIM * _CAL_DIM)
    best = float("inf")
    first = time.perf_counter()
    done = 0
    while done < reps or time.perf_counter() - first < _CAL_MIN_S:
        done += 1
        start = time.perf_counter()
        product = matrix @ matrix
        np.linalg.eigvalsh(product @ product.T)
        np.sort(np.tanh(vector) * np.exp(-0.5 * vector * vector))
        best = min(best, time.perf_counter() - start)
    return best


def experiment_timings(records: Iterable[dict]) -> dict[str, float]:
    """Extract per-experiment wall times from emitted trace records.

    Args:
        records: Trace records as emitted by a telemetry session sink
            (dicts with ``type``/``name``/``tags``/``wall``).

    Returns:
        ``experiment tag -> wall seconds`` for every ``experiment``
        span, plus their sum under ``"total"``.  Repeated tags (a
        re-run experiment) accumulate.
    """
    timings: dict[str, float] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        if record.get("name") != "experiment":
            continue
        tag = str(record.get("tags", {}).get("experiment", ""))
        if not tag:
            continue
        timings[tag] = timings.get(tag, 0.0) + float(
            record.get("wall", 0.0)
        )
    timings["total"] = sum(timings.values())
    return timings


def build_report(
    timings: dict[str, float],
    calibration: float,
    *,
    config: dict | None = None,
) -> dict:
    """Assemble one ``repro.bench/1`` report.

    Args:
        timings: Per-experiment wall seconds (``experiment_timings``).
        calibration: :func:`calibrate` result from the same process.
        config: Run configuration worth refusing to compare across
            (sample count, workers, paper/smoke scale).
    """
    if calibration <= 0.0:
        raise ParameterError(
            f"calibration time must be positive, got {calibration}"
        )
    return {
        "schema": BENCH_SCHEMA,
        "created_at": time.time(),
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "config": dict(config or {}),
        "calibration_s": calibration,
        "timings_s": {
            key: float(value) for key, value in sorted(timings.items())
        },
    }
