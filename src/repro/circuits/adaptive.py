"""Accuracy-pattern-guided adaptive characterisation.

Paper §4.3 / §5 (future work): "assuming such an accuracy pattern can
provide significant insight to speed up the statistical
characterization that includes MC simulations across multiple
slew-load pairs."  This module implements that idea:

1. **Probe pass** — a small Monte-Carlo population at every grid point;
   each point gets a *multi-Gaussian indicator* (the per-sample BIC
   margin of LVF2 over LVF on the probe).
2. **Pattern completion** — §4.3 says the phenomenon organises along
   anti-diagonal bands of the slew-load table (constant slew x load
   product), so a point is treated as suspect if *its band* shows the
   phenomenon, not only the point itself — probes are noisy, bands are
   robust.
3. **Selective full MC** — only suspect points get the full-budget
   Monte-Carlo + LVF2 EM fit; the remaining points keep a plain LVF
   moment fit from the probe (which is all a single skew-normal
   needs).

The result reports the exact sample budget spent versus the uniform
full-grid flow, alongside the fitted model grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.circuits.cells import CellDefinition
from repro.circuits.characterize import (
    CharacterizationConfig,
    characterize_arc,
    simulate_condition,
)
from repro.circuits.gate import GateTimingEngine
from repro.errors import CharacterizationError, raise_first
from repro.models.lvf import LVFModel
from repro.models.lvf2 import LVF2Model

__all__ = [
    "AdaptivePlan",
    "AdaptiveResult",
    "multi_gaussian_indicator",
    "plan_adaptive",
    "characterize_adaptive",
]


def multi_gaussian_indicator(samples: np.ndarray) -> float:
    """Per-sample BIC margin of LVF2 over LVF.

    Positive values mean the data statistically support a second
    component; the magnitude quantifies the §4.3 "degree of
    multi-Gaussian phenomenon" on a scale comparable across sample
    sizes.  A batch of one of :func:`_indicators`.
    """
    (value,) = _indicators(np.asarray(samples, dtype=float).reshape(1, -1))
    return value


def _indicators(stack: np.ndarray) -> list[float]:
    """:func:`multi_gaussian_indicator` of each row of a stack.

    One ``fit_batch`` per model over all rows; the first row whose LVF
    or LVF2 fit fails, LVF first, raises that error.
    """
    pairs = list(zip(LVFModel.fit_batch(stack), LVF2Model.fit_batch(stack)))
    raise_first(outcome for pair in pairs for outcome in pair)
    n = stack.shape[1]
    return [
        float((lvf.bic(row) - lvf2.bic(row)) / n)
        for (lvf, lvf2), row in zip(pairs, stack)
    ]


@dataclass(frozen=True)
class AdaptivePlan:
    """Probe-pass outcome: where to spend the full MC budget.

    Attributes:
        indicator: Per-grid-point multi-Gaussian indicator.
        suspect: Boolean grid — points scheduled for full MC.
        band_scores: Max indicator per anti-diagonal band
          (``i + j = const``), the §4.3 pattern statistic.
    """

    indicator: np.ndarray
    suspect: np.ndarray
    band_scores: dict[int, float]

    @property
    def n_suspect(self) -> int:
        return int(np.count_nonzero(self.suspect))

    @property
    def n_points(self) -> int:
        return int(self.suspect.size)


@dataclass(frozen=True)
class AdaptiveResult:
    """Adaptive characterisation output for one arc quantity.

    Attributes:
        plan: The probe-pass plan that was executed.
        models: Object grid of fitted models (LVF2 on suspect points,
            probe-fitted LVF elsewhere).
        samples_spent: Total Monte-Carlo samples drawn (probe + full).
        samples_uniform: What the uniform full-grid flow would spend.
    """

    plan: AdaptivePlan
    models: np.ndarray
    samples_spent: int
    samples_uniform: int

    @property
    def savings(self) -> float:
        """Fraction of the uniform sample budget saved."""
        return 1.0 - self.samples_spent / self.samples_uniform


def plan_adaptive(
    engine: GateTimingEngine,
    cell: CellDefinition,
    input_pin: str,
    transition: str,
    config: CharacterizationConfig,
    *,
    probe_samples: int = 1000,
    quantity: str = "delay",
    point_threshold: float = 0.002,
    band_threshold: float = 0.004,
) -> tuple[AdaptivePlan, np.ndarray]:
    """Run the probe pass and build the full-MC schedule.

    Args:
        engine: Timing engine.
        cell: Cell under characterisation.
        input_pin: Arc input pin.
        transition: Output transition.
        config: Grid configuration (slews/loads/seed); its
            ``n_samples`` is the *full* per-point budget.
        probe_samples: Probe population per grid point.
        quantity: ``"delay"`` or ``"transition"``.
        point_threshold: Indicator above which a point is suspect on
            its own evidence.
        band_threshold: Band-max indicator above which the *whole*
            anti-diagonal band is suspect (§4.3 pattern completion).

    Returns:
        ``(plan, probe_sample_grid)`` — the probe samples are reused
        for the non-suspect LVF fits, so nothing is wasted.
    """
    if probe_samples >= config.n_samples:
        raise CharacterizationError(
            f"probe budget ({probe_samples}) must be smaller than the "
            f"full budget ({config.n_samples})"
        )
    # The probe pass is a small characterisation of the whole grid, so
    # it samples like one (``use_lhs``, fault and telemetry hooks).
    probe = characterize_arc(
        engine,
        cell,
        input_pin,
        transition,
        replace(config, n_samples=probe_samples, seed=config.seed ^ 0x5EED),
    )
    shape = config.grid_shape
    probes = np.empty(shape, dtype=object)
    for i, j in np.ndindex(shape):
        probes[i, j] = probe.samples(quantity, i, j)
    indicator = np.array(
        _indicators(np.stack(list(probes.flat)))
    ).reshape(shape)

    band_scores: dict[int, float] = {}
    for i in range(shape[0]):
        for j in range(shape[1]):
            band = i + j
            band_scores[band] = max(
                band_scores.get(band, -np.inf), indicator[i, j]
            )
    suspect = np.zeros(shape, dtype=bool)
    for i in range(shape[0]):
        for j in range(shape[1]):
            suspect[i, j] = (
                indicator[i, j] > point_threshold
                or band_scores[i + j] > band_threshold
            )
    return (
        AdaptivePlan(
            indicator=indicator,
            suspect=suspect,
            band_scores=band_scores,
        ),
        probes,
    )


def characterize_adaptive(
    engine: GateTimingEngine,
    cell: CellDefinition,
    input_pin: str,
    transition: str,
    config: CharacterizationConfig,
    *,
    probe_samples: int = 1000,
    quantity: str = "delay",
) -> AdaptiveResult:
    """Adaptive per-arc characterisation (probe -> pattern -> full MC).

    Suspect points get a full-budget draw each, fitted together by
    one :meth:`LVF2Model.fit_batch`.  Non-suspect points are fitted as
    plain LVF from the probe samples — per Eq. 10 these are stored as
    collapsed LVF2 entries, so the output grid is homogeneous.
    """
    plan, probes = plan_adaptive(
        engine,
        cell,
        input_pin,
        transition,
        config,
        probe_samples=probe_samples,
        quantity=quantity,
    )
    models = np.empty(config.grid_shape, dtype=object)
    suspects = []
    for index in np.ndindex(models.shape):
        if plan.suspect[index]:
            suspects.append(index)
        else:
            models[index] = LVF2Model.from_lvf(LVFModel.fit(probes[index]))
    # The same draw characterize_arc makes at each suspect point.
    topology = cell.arc(input_pin, transition)
    full = []
    for i, j in suspects:
        delay, transition_samples, _, _ = simulate_condition(
            engine, topology, cell.name, input_pin, transition, config, i, j
        )
        full.append(delay if quantity == "delay" else transition_samples)
    if full:
        fitted = raise_first(LVF2Model.fit_batch(np.stack(full)))
        for index, model in zip(suspects, fitted):
            models[index] = model
    spent = (
        plan.n_points * probe_samples + len(suspects) * config.n_samples
    )
    return AdaptiveResult(
        plan=plan,
        models=models,
        samples_spent=spent,
        samples_uniform=plan.n_points * config.n_samples,
    )
