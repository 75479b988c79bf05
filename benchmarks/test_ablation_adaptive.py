"""Ablation bench: adaptive (accuracy-pattern-guided) characterisation.

Implements and evaluates the paper's closing future-work idea: use the
§4.3 accuracy pattern to skip full Monte-Carlo on grid points whose
band shows no multi-Gaussian behaviour.  Scores the adaptive flow
against the uniform full-grid flow on sample budget and on the
accuracy of the emitted models versus full-budget golden samples.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.binning.bins import sigma_binning
from repro.binning.metrics import binning_error
from repro.circuits.adaptive import characterize_adaptive
from repro.circuits.cells import build_cell
from repro.circuits.characterize import (
    CharacterizationConfig,
    characterize_arc,
)
from repro.experiments.common import paper_scale
from repro.runtime import FitPolicy
from repro.stats.empirical import EmpiricalDistribution


def _run(engine):
    n_full = 20_000 if paper_scale() else 3000
    config = CharacterizationConfig(
        slews=(0.00316, 0.00812, 0.02086, 0.05359),
        loads=(0.00722, 0.02136, 0.04965, 0.10623),
        n_samples=n_full,
        seed=13,
    )
    cell = build_cell("NAND2")
    adaptive = characterize_adaptive(
        engine, cell, "A", "fall", config, probe_samples=n_full // 5
    )
    full = characterize_arc(engine, cell, "A", "fall", config)
    # Strict LVF2 at every point, like the adaptive suspect points.
    full_models = full.fit_grid("delay", FitPolicy(rungs=("LVF2",)))

    adaptive_errors = []
    full_errors = []
    for i in range(4):
        for j in range(4):
            golden = EmpiricalDistribution(full.samples("delay", i, j))
            scheme = sigma_binning(golden.moments())
            adaptive_errors.append(
                binning_error(adaptive.models[i, j], golden, scheme)
            )
            full_errors.append(
                binning_error(full_models[i, j], golden, scheme)
            )
    return {
        "savings": adaptive.savings,
        "n_suspect": adaptive.plan.n_suspect,
        "adaptive_error": float(np.mean(adaptive_errors)),
        "full_error": float(np.mean(full_errors)),
    }


@pytest.mark.paper_experiment
def test_ablation_adaptive_characterization(benchmark, engine):
    stats = benchmark.pedantic(_run, args=(engine,), iterations=1, rounds=1)
    print()
    print("Adaptive characterisation (paper §5 future work)")
    print(
        f"  suspect points: {stats['n_suspect']}/16, "
        f"sample savings: {stats['savings'] * 100:.0f}%"
    )
    print(
        f"  mean binning error — adaptive: {stats['adaptive_error']:.5f} "
        f"full: {stats['full_error']:.5f}"
    )

    # The schedule is selective (it did not fall back to full MC
    # everywhere) unless the whole grid genuinely shows the phenomenon.
    assert stats["n_suspect"] <= 16
    if stats["n_suspect"] < 16:
        assert stats["savings"] > 0.0
    # Accuracy stays in the same regime as the uniform flow.
    assert stats["adaptive_error"] < 4.0 * stats["full_error"] + 0.01
