"""Figure 4: slew-load accuracy pattern heatmaps.

Regenerates the NAND2 delay and transition heatmaps of LVF2's CDF-RMSE
reduction over the 8x8 slew-load grid, plus the diagonal-pattern
statistic the paper discusses in §4.3: multi-Gaussian behaviour
(quantified by LVF2's advantage) recurs along slew≈load diagonals where
two variation mechanisms are evenly matched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.binning.metrics import cdf_rmse, error_reduction
from repro.circuits.cells import build_cell
from repro.circuits.characterize import (
    PAPER_LOADS,
    PAPER_SLEWS,
    CharacterizationConfig,
    characterize_arc,
)
from repro.circuits.gate import GateTimingEngine
from repro.circuits.process import TT_GLOBAL_LOCAL_MC
from repro.experiments.common import fit_paper_models, paper_scale
from repro.stats.empirical import EmpiricalDistribution

__all__ = ["Fig4Result", "run_fig4", "diagonal_contrast"]


@dataclass(frozen=True)
class Fig4Result:
    """Both heatmaps of Figure 4.

    Attributes:
        slews: Grid slew axis (ns).
        loads: Grid load axis (pF).
        delay_heatmap: LVF2 CDF-RMSE reduction grid for cell delay.
        transition_heatmap: Same for output transition time.
    """

    slews: tuple[float, ...]
    loads: tuple[float, ...]
    delay_heatmap: np.ndarray
    transition_heatmap: np.ndarray

    def to_text(self) -> str:
        lines = [
            "Figure 4 — LVF2 CDF-RMSE reduction over the slew-load grid"
        ]
        for title, grid in (
            ("(a) NAND2 delay", self.delay_heatmap),
            ("(b) NAND2 transition", self.transition_heatmap),
        ):
            lines.append(title)
            header = "slew\\load " + " ".join(
                f"{load:8.5f}" for load in self.loads
            )
            lines.append(header)
            for slew, row in zip(self.slews, grid):
                lines.append(
                    f"{slew:9.5f} "
                    + " ".join(f"{value:8.1f}" for value in row)
                )
        lines.append(
            f"diagonal contrast: delay="
            f"{diagonal_contrast(self.delay_heatmap):.2f} "
            f"transition="
            f"{diagonal_contrast(self.transition_heatmap):.2f}"
        )
        return "\n".join(lines)


def diagonal_contrast(heatmap: np.ndarray) -> float:
    """Band-structure statistic of an accuracy-pattern heatmap.

    The §4.3 observation: the multi-Gaussian indicator recurs at
    ``(i±1, j±1)`` — it is organised along *diagonals of constant
    slew/load ratio* (``i - j = const``), the line along which the two
    confronting variation mechanisms stay evenly matched.  This
    statistic scores that organisation as the ratio between the spread
    of diagonal-band means and the within-band spread; a banded map
    scores well above a random shuffle of the same values.
    """
    grid = np.log(np.maximum(np.asarray(heatmap, dtype=float), 1e-6))
    n_rows, n_cols = grid.shape
    bands: dict[int, list[float]] = {}
    for i in range(n_rows):
        for j in range(n_cols):
            bands.setdefault(i - j, []).append(grid[i, j])
    band_means = np.array([np.mean(v) for v in bands.values()])
    within = np.concatenate(
        [np.asarray(v) - np.mean(v) for v in bands.values()]
    )
    within_std = within.std()
    if within_std == 0.0:
        return float("inf")
    return float(band_means.std() / within_std)


def run_fig4(
    *,
    cell_type: str = "NAND2",
    input_pin: str = "A",
    n_samples: int | None = None,
    seed: int = 2024,
    engine: GateTimingEngine | None = None,
) -> Fig4Result:
    """Regenerate Figure 4 for one cell (NAND2 in the paper).

    The delay map uses the output-fall arc (the stacked NMOS network,
    where the charge-sharing competition lives) and the transition map
    the same arc's output slew.  Each quantity's grid points are
    stacked and fitted by one :func:`fit_paper_models` call.
    """
    samples = n_samples or (50_000 if paper_scale() else 4000)
    sim = engine or GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)
    cell = build_cell(cell_type)
    config = CharacterizationConfig(
        slews=PAPER_SLEWS,
        loads=PAPER_LOADS,
        n_samples=samples,
        seed=seed,
    )
    characterization = characterize_arc(
        sim, cell, input_pin, "fall", config
    )
    shape = config.grid_shape
    heatmaps = {}
    for quantity in ("delay", "transition"):
        stack = np.stack(
            [
                characterization.samples(quantity, i, j)
                for i in range(shape[0])
                for j in range(shape[1])
            ]
        )
        heatmaps[quantity] = np.array(
            [
                error_reduction(
                    cdf_rmse(models["LVF"], golden),
                    cdf_rmse(models["LVF2"], golden),
                )
                for models, golden in zip(
                    fit_paper_models(stack, ("LVF", "LVF2")),
                    map(EmpiricalDistribution, stack),
                )
            ]
        ).reshape(shape)
    return Fig4Result(
        slews=config.slews,
        loads=config.loads,
        delay_heatmap=heatmaps["delay"],
        transition_heatmap=heatmaps["transition"],
    )
