"""Path-level SSTA comparison driver (paper Fig. 5).

For each timing model: fit every stage's Monte-Carlo samples (one
batched ``fit_batch`` call over the stacked stages), propagate
the fitted distributions along the path with the block-based SUM
operator, and score the propagated distribution against the golden
per-sample partial sums at every stage.  The output is the Fig. 5
series — binning error reduction versus path depth (in FO4) per model.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.binning.metrics import binning_error, error_reduction
from repro.errors import SSTAError, raise_first
from repro.models.base import get_model
from repro.runtime import telemetry
from repro.ssta.ops import sum_models
from repro.ssta.paths import StageSimulation
from repro.stats.empirical import EmpiricalDistribution

__all__ = ["PathPropagationResult", "propagate_path"]


@dataclass(frozen=True)
class PathPropagationResult:
    """Per-stage scores of all models along one path.

    Attributes:
        stage_names: Stage labels in path order.
        cumulative_nominal: Nominal partial path delay per stage (ns).
        fo4_depths: Partial depth in FO4 units per stage.
        golden: Empirical partial-sum distribution per stage.
        binning_errors: ``{model: [error per stage]}``.
        reductions: ``{model: [error reduction vs baseline per stage]}``.
    """

    stage_names: tuple[str, ...]
    cumulative_nominal: tuple[float, ...]
    fo4_depths: tuple[float, ...]
    golden: tuple[EmpiricalDistribution, ...]
    binning_errors: dict[str, tuple[float, ...]]
    reductions: dict[str, tuple[float, ...]]

    def final_reduction(self, model: str) -> float:
        """Error reduction of ``model`` at the path end."""
        return self.reductions[model][-1]

    def reduction_at_depth(self, model: str, fo4: float) -> float:
        """Error reduction at the first stage deeper than ``fo4``."""
        for depth, value in zip(self.fo4_depths, self.reductions[model]):
            if depth >= fo4:
                return value
        return self.reductions[model][-1]


#: Stage-fit keyword overrides per model.  LESN stages are fitted in
#: the linear domain so its *propagated* moments start unbiased — the
#: §4.4 error accumulation then isolates the re-materialisation step.
DEFAULT_FIT_KWARGS: dict[str, dict] = {"LESN": {"method": "linear"}}


def propagate_path(
    simulations: Sequence[StageSimulation],
    model_names: Sequence[str] = ("LVF2", "Norm2", "LESN", "LVF"),
    *,
    baseline: str = "LVF",
    fo4: float | None = None,
    fit_kwargs: dict[str, dict] | None = None,
) -> PathPropagationResult:
    """Run block-based SSTA for every model along a simulated path.

    Args:
        simulations: Per-stage Monte-Carlo results
            (:func:`repro.ssta.paths.simulate_path_stages`).
        model_names: Registry names of the models to propagate.
        baseline: Eq. 12 baseline model name.
        fo4: FO4 delay (ns) for depth normalisation; ``None`` reports
            raw nominal ns as "depth".
        fit_kwargs: Per-model stage-fit keyword overrides; defaults to
            :data:`DEFAULT_FIT_KWARGS`.

    Raises:
        SSTAError: For empty paths, a missing baseline model, a model
            named twice, or stages with unequal sample counts.
    """
    if not simulations:
        raise SSTAError("no stage simulations given")
    if baseline not in model_names:
        raise SSTAError(
            f"baseline {baseline!r} not among models {model_names}"
        )
    if len(set(model_names)) != len(model_names):
        raise SSTAError(f"a model is named more than once in {model_names}")
    counts = sorted({np.size(s.delay) for s in simulations})
    if len(counts) > 1:
        raise SSTAError(
            f"stages have unequal sample counts {counts}; every stage "
            "needs the same number of samples"
        )

    # Stage delays as one (n_stages, n_samples) stack; golden: exact
    # per-sample partial sums (sequential adds down the stages).
    stack = np.stack([simulation.delay for simulation in simulations])
    goldens = [
        EmpiricalDistribution(partial)
        for partial in np.cumsum(stack, axis=0)
    ]
    nominals = list(accumulate(s.nominal for s in simulations))

    overrides = (
        DEFAULT_FIT_KWARGS if fit_kwargs is None else fit_kwargs
    )
    binning_errors: dict[str, list[float]] = {
        name: [] for name in model_names
    }
    with telemetry.span(
        "ssta.propagate", n_stages=len(simulations)
    ):
        for name in model_names:
            model_cls = get_model(name)
            kwargs = overrides.get(name, {})
            accumulated = None
            with telemetry.span("ssta.model", model=name):
                stage_models = raise_first(
                    model_cls.fit_batch(stack, **kwargs)
                )
                for stage_model, golden in zip(stage_models, goldens):
                    if accumulated is None:
                        accumulated = stage_model
                    else:
                        accumulated = sum_models(
                            accumulated, stage_model
                        )
                    telemetry.counter_inc("ssta.stages_propagated")
                    binning_errors[name].append(
                        binning_error(accumulated, golden)
                    )

    reductions: dict[str, tuple[float, ...]] = {}
    base_errors = binning_errors[baseline]
    for name in model_names:
        reductions[name] = tuple(
            error_reduction(base_error, model_error)
            for base_error, model_error in zip(
                base_errors, binning_errors[name]
            )
        )

    depths = tuple(
        value / fo4 if fo4 else value for value in nominals
    )
    return PathPropagationResult(
        stage_names=tuple(s.stage.name for s in simulations),
        cumulative_nominal=tuple(nominals),
        fo4_depths=depths,
        golden=tuple(goldens),
        binning_errors={
            name: tuple(values)
            for name, values in binning_errors.items()
        },
        reductions=reductions,
    )
