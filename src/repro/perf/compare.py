"""Judge a current perf report against a committed baseline.

The comparison is calibration-normalised: each report carries the
wall time of the same fixed workload on its machine
(:func:`repro.perf.record.calibrate`), so a timing is first divided
by its report's calibration before ratios are taken.  A CI runner
that is uniformly 2x slower than the machine that recorded the
baseline then compares at ratio 1.0 — only *disproportionate*
slowdowns (the code got slower relative to raw machine speed) count
as regressions.

The gate is deliberately coarse: the bench suite is a smoke-scale
run, not a benchmarking fleet, and calibration normalisation cancels
machine speed but not scheduler noise.  The default threshold
(:data:`DEFAULT_MAX_REGRESSION_PCT`) is wide enough that CI only
fails on the regressions worth failing on — an accidental
quadratic loop, a dropped cache — not on a noisy neighbour.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import ParameterError
from repro.perf.record import BENCH_SCHEMA

__all__ = [
    "DEFAULT_MAX_REGRESSION_PCT",
    "DEFAULT_SPEEDUP_GATES",
    "ComparisonRow",
    "SpeedupRow",
    "check_speedups",
    "compare_reports",
    "load_report",
    "render_comparison",
    "render_speedups",
]

#: Normalised slowdown (percent) above which an experiment fails the
#: gate.  Wide by design — see the module docstring.
DEFAULT_MAX_REGRESSION_PCT = 50.0

#: Timings shorter than this (seconds) are reported but never failed:
#: at sub-100ms scale, interpreter and allocator noise dwarfs any
#: real regression signal.
_MIN_GATED_SECONDS = 0.1

#: Intra-report speedup invariants: ``(fast_key, slow_key,
#: min_ratio)`` — the ``slow_key`` timing must be at least
#: ``min_ratio`` times the ``fast_key`` timing *within one report*.
#: Unlike the baseline comparison, this needs no calibration: both
#: timings come from the same machine and process.  The fit
#: experiment (one stacked batch against a per-point loop of batches
#: of one) measures 4.6-5.8x at its default grid; the gate floor
#: sits at the smoke scale (24 points x 200 samples), where the
#: batch amortises less, and leaves headroom for scheduler noise.
DEFAULT_SPEEDUP_GATES: tuple[tuple[str, str, float], ...] = (
    ("fit_batch", "fit_serial", 1.5),
)


def load_report(path: str) -> dict:
    """Load and schema-check one ``repro.bench/1`` report file."""
    try:
        with open(path) as handle:
            report = json.load(handle)
    except (OSError, ValueError) as error:
        raise ParameterError(
            f"cannot load perf report {path!r}: {error}"
        ) from error
    if not isinstance(report, dict) or report.get("schema") != BENCH_SCHEMA:
        raise ParameterError(
            f"{path!r} is not a {BENCH_SCHEMA} perf report "
            "(write one with `repro bench --json FILE`)"
        )
    if not report.get("calibration_s"):
        raise ParameterError(
            f"{path!r} has no calibration time; re-record it"
        )
    return report


@dataclass(frozen=True)
class ComparisonRow:
    """One experiment's baseline-vs-current judgement.

    Attributes:
        key: Experiment key (``fig3``, ``table2``, ``total`` ...).
        baseline: Baseline wall seconds (raw, un-normalised).
        current: Current wall seconds (raw).
        ratio: Calibration-normalised current/baseline ratio.
        regression_pct: ``(ratio - 1) * 100``; negative is a speedup.
        gated: Whether this row can fail the gate (long enough to
            carry signal).
        failed: Whether this row exceeded the threshold.
    """

    key: str
    baseline: float
    current: float
    ratio: float
    regression_pct: float
    gated: bool
    failed: bool

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "baseline_s": self.baseline,
            "current_s": self.current,
            "normalized_ratio": self.ratio,
            "regression_pct": self.regression_pct,
            "gated": self.gated,
            "failed": self.failed,
        }


def compare_reports(
    baseline: dict,
    current: dict,
    *,
    max_regression_pct: float = DEFAULT_MAX_REGRESSION_PCT,
) -> tuple[ComparisonRow, ...]:
    """Compare two perf reports key by key.

    Only keys present in both reports are judged — a new experiment
    in the current report is ignored until the baseline is
    re-recorded.  The reports must agree on their run configuration
    (sample counts etc.); comparing a 2k-sample run against a
    50k-sample baseline would be noise dressed as signal.

    Raises:
        ParameterError: On config mismatch, a missing shared key set,
            or a non-positive threshold.
    """
    if max_regression_pct <= 0.0:
        raise ParameterError(
            f"max regression must be > 0 percent, "
            f"got {max_regression_pct}"
        )
    base_config = baseline.get("config", {})
    current_config = current.get("config", {})
    if base_config != current_config:
        raise ParameterError(
            f"perf reports were recorded with different configs "
            f"(baseline {base_config}, current {current_config}); "
            "re-record the baseline or re-run the bench to match"
        )
    base_timings = baseline.get("timings_s", {})
    current_timings = current.get("timings_s", {})
    shared = sorted(set(base_timings) & set(current_timings))
    if not shared:
        raise ParameterError(
            "perf reports share no timing keys; nothing to compare"
        )
    base_cal = float(baseline["calibration_s"])
    current_cal = float(current["calibration_s"])
    rows = []
    for key in shared:
        base_t = float(base_timings[key])
        current_t = float(current_timings[key])
        if base_t <= 0.0:
            continue
        ratio = (current_t / current_cal) / (base_t / base_cal)
        regression = (ratio - 1.0) * 100.0
        gated = (
            base_t >= _MIN_GATED_SECONDS
            and current_t >= _MIN_GATED_SECONDS
        )
        rows.append(
            ComparisonRow(
                key=key,
                baseline=base_t,
                current=current_t,
                ratio=ratio,
                regression_pct=regression,
                gated=gated,
                failed=gated and regression > max_regression_pct,
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class SpeedupRow:
    """One intra-report speedup invariant's judgement.

    Attributes:
        fast_key: Timing key expected to be the faster side.
        slow_key: Timing key expected to be the slower side.
        fast: Wall seconds of the fast side.
        slow: Wall seconds of the slow side.
        ratio: ``slow / fast`` — the achieved speedup.
        min_ratio: Required floor for ``ratio``.
        failed: Whether the invariant was violated.
    """

    fast_key: str
    slow_key: str
    fast: float
    slow: float
    ratio: float
    min_ratio: float
    failed: bool

    def to_dict(self) -> dict:
        return {
            "fast_key": self.fast_key,
            "slow_key": self.slow_key,
            "fast_s": self.fast,
            "slow_s": self.slow,
            "speedup": self.ratio,
            "min_speedup": self.min_ratio,
            "failed": self.failed,
        }


def check_speedups(
    report: dict,
    gates: tuple[tuple[str, str, float], ...] = DEFAULT_SPEEDUP_GATES,
) -> tuple[SpeedupRow, ...]:
    """Check intra-report speedup invariants on one perf report.

    Each gate asserts the report's ``slow_key`` timing is at least
    ``min_ratio`` times its ``fast_key`` timing.  Gates whose keys
    the report does not carry are skipped — an old baseline without
    the fit-throughput experiment passes vacuously until re-recorded.

    Raises:
        ParameterError: When a gate's ``min_ratio`` is not positive.
    """
    timings = report.get("timings_s", {})
    rows = []
    for fast_key, slow_key, min_ratio in gates:
        if min_ratio <= 0.0:
            raise ParameterError(
                f"speedup floor must be > 0, got {min_ratio} "
                f"for {fast_key!r} vs {slow_key!r}"
            )
        if fast_key not in timings or slow_key not in timings:
            continue
        fast = float(timings[fast_key])
        slow = float(timings[slow_key])
        if fast <= 0.0:
            continue
        ratio = slow / fast
        rows.append(
            SpeedupRow(
                fast_key=fast_key,
                slow_key=slow_key,
                fast=fast,
                slow=slow,
                ratio=ratio,
                min_ratio=min_ratio,
                failed=ratio < min_ratio,
            )
        )
    return tuple(rows)


def render_speedups(rows: tuple[SpeedupRow, ...]) -> str:
    """Human-readable speedup-invariant table plus verdict line."""
    if not rows:
        return "no speedup invariants applicable to this report"
    lines = []
    for row in rows:
        marker = "  FAIL" if row.failed else ""
        lines.append(
            f"{row.fast_key} vs {row.slow_key}: "
            f"{row.fast:.3f}s vs {row.slow:.3f}s = "
            f"{row.ratio:.2f}x (floor {row.min_ratio:g}x){marker}"
        )
    failed = [f"{row.fast_key}" for row in rows if row.failed]
    if failed:
        lines.append(
            "speedup regression: "
            + ", ".join(failed)
            + " fell below the required floor"
        )
    else:
        lines.append("ok: all speedup invariants hold")
    return "\n".join(lines)


def render_comparison(
    rows: tuple[ComparisonRow, ...], *, max_regression_pct: float
) -> str:
    """Human-readable comparison table plus verdict line."""
    lines = [
        f"{'experiment':<12s} {'baseline':>10s} {'current':>10s} "
        f"{'normalized':>11s} {'change':>9s}"
    ]
    for row in rows:
        marker = ""
        if row.failed:
            marker = "  FAIL"
        elif not row.gated:
            marker = "  (not gated)"
        lines.append(
            f"{row.key:<12s} {row.baseline:>9.3f}s {row.current:>9.3f}s "
            f"{row.ratio:>10.2f}x {row.regression_pct:>+8.1f}%{marker}"
        )
    failed = [row.key for row in rows if row.failed]
    if failed:
        lines.append(
            f"perf regression: {', '.join(failed)} exceed "
            f"+{max_regression_pct:g}% normalised"
        )
    else:
        lines.append(
            f"ok: no experiment regressed past "
            f"+{max_regression_pct:g}% normalised"
        )
    return "\n".join(lines)
