"""Grid-fit throughput: one stacked batch vs a per-point loop.

Library characterisation fits four models per (slew, load) condition,
so per-fit cost dominates the flow.  This experiment times the LVF2
multi-start EM fit over a characterisation-shaped grid two ways — a
one-point-at-a-time loop of :meth:`LVF2Model.fit` calls (each a batch
of one) and one stacked ``(n_points, n_samples)`` call of
:meth:`LVF2Model.fit_batch` — and verifies the two produce
bit-identical parameters: a row's fit must not depend on the rows
stacked with it.

The two timings run under ``experiment=fit_serial`` / ``fit_batch``
telemetry spans, so ``repro bench --json`` reports record them and the
CI perf gate can assert the stacked batch stays faster (see
:func:`repro.perf.compare.check_speedups`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import raise_first
from repro.models.lvf2 import LVF2Model
from repro.runtime import telemetry
from repro.stats.mixtures import Mixture
from repro.stats.skew_normal import SkewNormal

__all__ = ["FitThroughputResult", "run_fit_throughput"]


@dataclass(frozen=True)
class FitThroughputResult:
    """Timings of the per-point and stacked LVF2 grid fits.

    Attributes:
        n_points: Grid points fitted (one bimodal population each).
        n_samples: Monte-Carlo samples per point.
        serial_seconds: Wall time of the per-point ``fit`` loop
            (one batch of one per point).
        batch_seconds: Wall time of one ``fit_batch`` call.
        identical: Whether every point's fitted parameters matched
            bit-for-bit between the two paths.
    """

    n_points: int
    n_samples: int
    serial_seconds: float
    batch_seconds: float
    identical: bool

    @property
    def speedup(self) -> float:
        """Per-point loop wall time over stacked-batch wall time."""
        if self.batch_seconds <= 0.0:
            return float("inf")
        return self.serial_seconds / self.batch_seconds

    def to_text(self) -> str:
        return "\n".join(
            [
                "Fit throughput — stacked batch vs per-point loop",
                f"  grid: {self.n_points} points x "
                f"{self.n_samples} samples",
                f"  point loop  : {self.serial_seconds:8.3f} s",
                f"  fit_batch   : {self.batch_seconds:8.3f} s",
                f"  speedup     : {self.speedup:8.2f}x",
                "  parameters  : "
                + (
                    "bit-identical"
                    if self.identical
                    else "MISMATCH (stacking broke exactness!)"
                ),
            ]
        )


def _grid_samples(
    n_points: int, n_samples: int, seed: int
) -> np.ndarray:
    """A characterisation-shaped stack of bimodal populations.

    Each point draws from a two-component skew-normal mixture whose
    location/weight drift across the grid, the way delay distributions
    drift across a (slew, load) sweep.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for index in range(n_points):
        shift = 0.3 * index / max(1, n_points - 1)
        mixture = Mixture(
            (0.6 - 0.1 * shift, 0.4 + 0.1 * shift),
            (
                SkewNormal.from_moments(1.0 + shift, 0.05, 0.6),
                SkewNormal.from_moments(1.25 + shift, 0.04, -0.3),
            ),
        )
        rows.append(mixture.rvs(n_samples, rng=rng))
    return np.stack(rows)


def run_fit_throughput(
    *,
    n_points: int = 256,
    n_samples: int = 100,
    seed: int = 0,
) -> FitThroughputResult:
    """Time the per-point vs stacked LVF2 fit over one synthetic grid.

    The per-point loop runs first (under ``experiment=fit_serial``),
    the stacked batch second (``experiment=fit_batch``), both over the
    same stack; the result records whether their fitted parameters
    agree exactly.
    """
    stack = _grid_samples(n_points, n_samples, seed)
    with telemetry.span("experiment", experiment="fit_serial"):
        start = time.perf_counter()
        serial = [LVF2Model.fit(stack[index]) for index in range(n_points)]
        serial_seconds = time.perf_counter() - start
    with telemetry.span("experiment", experiment="fit_batch"):
        start = time.perf_counter()
        batched = raise_first(LVF2Model.fit_batch(stack))
        batch_seconds = time.perf_counter() - start
    identical = all(
        a.parameters() == b.parameters()
        for a, b in zip(serial, batched)
    )
    return FitThroughputResult(
        n_points=n_points,
        n_samples=n_samples,
        serial_seconds=serial_seconds,
        batch_seconds=batch_seconds,
        identical=identical,
    )
