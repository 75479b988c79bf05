"""Ablation bench: LVF2 fitting strategy choices (DESIGN.md §5).

Compares, on the five paper scenarios:

- the default EM (weighted-moments M-step, multi-start) against
- single-start k-means-only EM, and
- EM followed by direct MLE polishing (L-BFGS on Eq. 5),

reporting log-likelihood and binning-error reduction for each.  The
asserted invariants: multi-start never loses likelihood to single
start, and MLE polishing never loses to plain EM.
"""

from __future__ import annotations

import pytest

from repro.binning.bins import sigma_binning
from repro.binning.metrics import binning_error, error_reduction
from repro.circuits.scenarios import SCENARIOS
from repro.models.lvf import LVFModel
from repro.models.lvf2 import SKEW_NORMAL_FAMILY, LVF2Model
from repro.stats.em import fit_mixture_em
from repro.stats.empirical import EmpiricalDistribution


def _single_start_lvf2(samples):
    result = fit_mixture_em(samples, SKEW_NORMAL_FAMILY)
    return LVF2Model._from_mixture(result.mixture)


def _run_ablation(n_samples: int = 8000):
    rows = {}
    for index, (name, scenario) in enumerate(SCENARIOS.items()):
        samples = scenario.sample(n_samples, rng=100 + index)
        golden = EmpiricalDistribution(samples)
        scheme = sigma_binning(golden.moments())
        lvf_error = binning_error(LVFModel.fit(samples), golden, scheme)

        variants = {
            "single-start": _single_start_lvf2(samples),
            "multi-start": LVF2Model.fit(samples),
            "multi+mle": LVF2Model.fit(samples, refine="mle"),
        }
        rows[name] = {
            variant: {
                "loglik": model.loglik(samples),
                "reduction": error_reduction(
                    lvf_error,
                    binning_error(model, golden, scheme),
                ),
            }
            for variant, model in variants.items()
        }
    return rows


@pytest.mark.paper_experiment
def test_ablation_em_strategies(benchmark):
    rows = benchmark.pedantic(_run_ablation, iterations=1, rounds=1)
    print()
    print("EM ablation — loglik / binning reduction per variant")
    for name, row in rows.items():
        cells = "  ".join(
            f"{variant}: ll={data['loglik']:.0f} "
            f"red={data['reduction']:.1f}x"
            for variant, data in row.items()
        )
        print(f"  {name:12s} {cells}")

    for name, row in rows.items():
        # Multi-start EM never loses likelihood to single-start.
        assert (
            row["multi-start"]["loglik"]
            >= row["single-start"]["loglik"] - 1e-6
        ), name
        # MLE polishing never loses to plain multi-start EM.
        assert (
            row["multi+mle"]["loglik"]
            >= row["multi-start"]["loglik"] - 1e-6
        ), name
