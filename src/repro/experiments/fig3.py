"""Figure 3: model fits for the five representative scenarios.

Regenerates, per scenario: the golden histogram, the fitted PDF of
each of the four models on a common grid, and the LVF2 two-component
decomposition (the figure's bottom row).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.scenarios import SCENARIOS, Scenario
from repro.experiments.common import fit_paper_models
from repro.models import LVF2Model, TimingModel
from repro.stats.empirical import EmpiricalDistribution

__all__ = ["Fig3Panel", "Fig3Result", "run_fig3"]


@dataclass(frozen=True)
class Fig3Panel:
    """One scenario panel of Figure 3.

    Attributes:
        scenario: The ground-truth scenario.
        grid: Evaluation grid (x axis).
        golden_density: Histogram density of the golden samples.
        model_pdfs: Fitted PDF per model on ``grid``.
        decomposition: LVF2 weighted component densities
            ``((1-lambda) f1, lambda f2)``.
    """

    scenario: Scenario
    grid: np.ndarray
    golden_density: np.ndarray
    model_pdfs: dict[str, np.ndarray]
    decomposition: tuple[np.ndarray, np.ndarray]

    def peak_error(self, model: str) -> float:
        """Max |model pdf - golden density| over the grid."""
        return float(
            np.max(np.abs(self.model_pdfs[model] - self.golden_density))
        )


@dataclass(frozen=True)
class Fig3Result:
    """All five panels plus the fitted models."""

    panels: dict[str, Fig3Panel]
    models: dict[str, dict[str, TimingModel]]

    def to_text(self) -> str:
        lines = ["Figure 3 — scenario PDF fits (max pdf error vs golden)"]
        for name, panel in self.panels.items():
            errors = ", ".join(
                f"{model}={panel.peak_error(model):.3f}"
                for model in panel.model_pdfs
            )
            lines.append(f"  {name:12s}: {errors}")
        return "\n".join(lines)


def run_fig3(
    n_samples: int = 50_000,
    *,
    seed: int = 0,
    n_grid: int = 400,
) -> Fig3Result:
    """Regenerate Figure 3.

    Args:
        n_samples: Golden samples per scenario (paper: 50k).
        seed: RNG seed for scenario sampling.
        n_grid: PDF evaluation points.
    """
    panels: dict[str, Fig3Panel] = {}
    fitted: dict[str, dict[str, TimingModel]] = {}
    stack = np.stack(
        [
            scenario.sample(n_samples, rng=seed + index)
            for index, scenario in enumerate(SCENARIOS.values())
        ]
    )
    for (name, scenario), samples, models in zip(
        SCENARIOS.items(), stack, fit_paper_models(stack)
    ):
        golden = EmpiricalDistribution(samples)
        grid = golden.grid(n_points=n_grid, spread=4.0)
        centers, density = golden.histogram(n_bins=120)
        density_on_grid = np.interp(grid, centers, density)
        lvf2 = models["LVF2"]
        assert isinstance(lvf2, LVF2Model)
        panels[name] = Fig3Panel(
            scenario=scenario,
            grid=grid,
            golden_density=density_on_grid,
            model_pdfs={
                model_name: np.asarray(model.pdf(grid))
                for model_name, model in models.items()
            },
            decomposition=lvf2.decomposition(grid),
        )
        fitted[name] = models
    return Fig3Result(panels=panels, models=fitted)
