"""Path-level SSTA comparison driver (paper Fig. 5).

For each timing model: fit every stage's Monte-Carlo samples (one
batched ``fit_batch`` call over the stacked stages), propagate
the fitted distributions along the path with the block-based SUM
operator, and score the propagated distribution against the golden
per-sample partial sums at every stage.  The output is the Fig. 5
series — binning error reduction versus path depth (in FO4) per model.

The models' pipelines are independent, and so are the lockstep EM
blocks of each stage fit.  Whichever of the two is the wider level
fans out over the usable cores (:func:`repro.runtime.fanout.run_blocks`):
while the widest stage fit has fewer blocks than there are models
(the Fig. 5 paths up to about 2,000 samples per stage), each model's
pipeline is one task, LESN's (the longest) queued first; otherwise
the models run in turn and each fit's blocks fan out.  Where a
pipeline or a block runs changes no number.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.binning.metrics import binning_error, error_reduction
from repro.errors import SSTAError, raise_first
from repro.models.base import TimingModel, get_model
from repro.runtime import fanout, telemetry
from repro.ssta.ops import sum_models
from repro.ssta.paths import StageSimulation
from repro.stats.em import lockstep_blocks
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

#: The model whose pipeline runs longest, queued first so the caller
#: takes it while helpers share the rest: LESN re-materialises its
#: distribution by least squares at every SUM (about half of a
#: four-model adder/H-tree run at 500 samples).
_LONGEST_PIPELINE = "LESN"

#: Lockstep EM rows per stage of the widest stage fit: LVF2's three
#: starts (k-means, concentric, warm) in one multi-start call.
_ROWS_PER_STAGE = 3


@dataclass(frozen=True)
class _Pipeline:
    """One model's Fig. 5 pipeline, as a fan-out task payload.

    Attributes:
        model: The model class, looked up by the caller, so a model
            registered only there still runs (a helper that cannot
            unpickle it fails the whole call, which then runs inline).
        stack: ``(n_stages, n_samples)`` stage delays.
        goldens: Golden partial-sum distribution per stage.
        kwargs: Stage-fit keyword overrides.
    """

    model: type[TimingModel]
    stack: np.ndarray
    goldens: tuple[EmpiricalDistribution, ...]
    kwargs: dict


def _model_errors(pipeline: _Pipeline) -> tuple[float, ...] | Exception:
    """Fit, SUM and score one model; its per-stage binning errors.

    Returns the exception the pipeline raised instead of raising it,
    so one model's failure leaves the other pipelines of the call
    running and the caller picks the error to raise.
    """
    try:
        with telemetry.span("ssta.model", model=pipeline.model.name):
            stage_models = raise_first(
                pipeline.model.fit_batch(pipeline.stack, **pipeline.kwargs)
            )
            errors = []
            accumulated = None
            for stage_model, golden in zip(stage_models, pipeline.goldens):
                accumulated = (
                    stage_model
                    if accumulated is None
                    else sum_models(accumulated, stage_model)
                )
                telemetry.counter_inc("ssta.stages_propagated")
                errors.append(binning_error(accumulated, golden))
            return tuple(errors)
    except Exception as error:  # returned to the caller, raised there
        return error


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

    The models' pipelines run as :func:`repro.runtime.fanout.run_blocks`
    tasks while the widest stage fit has fewer lockstep EM blocks than
    there are models, and in turn otherwise; the result does not
    depend on which process ran what.

    Raises:
        SSTAError: For empty paths, a missing baseline model, a model
            named twice, or stages with unequal sample counts.
        ParameterError: For a model name not in the registry, before
            any model runs.
        Exception: The first error, in ``model_names`` order, that a
            model's stage fits or SUM chain raised: what a loop over
            the models would have stopped on.
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
    goldens = tuple(
        EmpiricalDistribution(partial)
        for partial in np.cumsum(stack, axis=0)
    )
    nominals = list(accumulate(s.nominal for s in simulations))

    overrides = (
        DEFAULT_FIT_KWARGS if fit_kwargs is None else fit_kwargs
    )
    pipelines = {
        name: _Pipeline(
            get_model(name), stack, goldens, overrides.get(name, {})
        )
        for name in model_names
    }
    fits_fan_out = lockstep_blocks(
        _ROWS_PER_STAGE * len(stack), stack.shape[1]
    ) >= len(pipelines)
    with telemetry.span(
        "ssta.propagate", n_stages=len(simulations)
    ):
        if fits_fan_out:
            outcomes = {
                name: _model_errors(pipeline)
                for name, pipeline in pipelines.items()
            }
        else:
            queue = sorted(
                model_names, key=lambda name: name != _LONGEST_PIPELINE
            )
            outcomes = dict(
                zip(
                    queue,
                    fanout.run_blocks(
                        _model_errors, [pipelines[name] for name in queue]
                    ),
                )
            )
        binning_errors = dict(
            zip(
                model_names,
                raise_first(outcomes[name] for name in model_names),
            )
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
        golden=goldens,
        binning_errors=binning_errors,
        reductions=reductions,
    )
