"""Supply-voltage sweep: model accuracy from nominal to near-threshold.

The paper's related work ([5] LN, [6] LSN, [7] LESN) was developed for
the near/sub-threshold region, where the exponential Vth dependence
makes delay distributions long-tailed.  The transregional MOSFET model
of :mod:`repro.circuits.mosfet` reproduces that physics, so this
extension experiment sweeps the supply from the paper's 0.8 V down
toward threshold and scores all models at each corner — showing where
the log-domain models earn their keep and that LVF2 stays robust
across the whole range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.binning.metrics import evaluate_models
from repro.circuits.cells import build_cell
from repro.circuits.gate import GateTimingEngine
from repro.circuits.process import TT_GLOBAL_LOCAL_MC
from repro.errors import ExperimentError
from repro.experiments.common import fit_paper_models, format_table
from repro.stats.empirical import EmpiricalDistribution

__all__ = ["VoltageSweepResult", "run_voltage_sweep"]

#: Models scored in the sweep: the paper's four plus the log-domain
#: lineage (LN [5], LSN [6]) the related work motivates.
SWEEP_MODELS = ("LVF2", "Norm2", "LESN", "LSN", "LN", "LVF")


@dataclass(frozen=True)
class VoltageSweepResult:
    """Per-supply model scores.

    Attributes:
        supplies: Swept supply voltages (V).
        skewness: Golden delay skewness per supply (tail indicator).
        reductions: ``{vdd: {model: binning error reduction}}``.
    """

    supplies: tuple[float, ...]
    skewness: tuple[float, ...]
    reductions: dict[float, dict[str, float]]

    def to_text(self) -> str:
        headers = ["Vdd (V)", "golden skew", *SWEEP_MODELS]
        rows = []
        for vdd, skew in zip(self.supplies, self.skewness):
            rows.append(
                [f"{vdd:.2f}", f"{skew:+.2f}"]
                + [self.reductions[vdd][m] for m in SWEEP_MODELS]
            )
        return format_table(
            headers,
            rows,
            title=(
                "Voltage sweep — binning error reduction (x) vs LVF, "
                "INV fall delay"
            ),
        )

    def best_model(self, vdd: float) -> str:
        row = self.reductions[vdd]
        return max(row, key=row.get)


def run_voltage_sweep(
    supplies: tuple[float, ...] = (0.8, 0.7, 0.6, 0.5),
    *,
    cell_type: str = "INV",
    n_samples: int = 20_000,
    seed: int = 17,
) -> VoltageSweepResult:
    """Sweep the supply and score every model at each corner.

    Args:
        supplies: Supply voltages in volts, descending toward the
            device threshold (~0.36 V).
        cell_type: Cell whose fall-delay arc is characterised (INV:
            single device, so the tail shape is pure transregional
            physics, no mixture mechanisms).
        n_samples: Monte-Carlo population per corner.
        seed: RNG seed.

    Raises:
        ExperimentError: If a supply is at or below the threshold.
    """
    if min(supplies) <= 0.40:
        raise ExperimentError(
            "supplies must stay above the device threshold (~0.4 V); "
            f"got {min(supplies)}"
        )
    cell = build_cell(cell_type)
    topology = cell.arc(cell.inputs[0], "fall")
    stack = np.stack(
        [
            GateTimingEngine(
                corner=TT_GLOBAL_LOCAL_MC.with_supply(vdd)
            ).simulate_arc(
                topology,
                slew=0.01 * (0.8 / vdd) ** 2,
                load=0.01,
                n_samples=n_samples,
                rng=seed + index,
            ).delay
            for index, vdd in enumerate(supplies)
        ]
    )
    reductions: dict[float, dict[str, float]] = {}
    skews = []
    for vdd, delay, models in zip(
        supplies, stack, fit_paper_models(stack, SWEEP_MODELS)
    ):
        golden = EmpiricalDistribution(delay)
        skews.append(golden.moments().skewness)
        report = evaluate_models(models, golden)
        reductions[vdd] = {
            model: report[model]["binning_reduction"]
            for model in SWEEP_MODELS
        }
    return VoltageSweepResult(
        supplies=tuple(supplies),
        skewness=tuple(skews),
        reductions=reductions,
    )
