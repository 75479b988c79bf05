"""Library characterisation driver (paper §4.2).

Runs the Monte-Carlo gate engine over the 8x8 slew-load grid for every
arc of every cell, producing per-condition golden sample sets, fitting
the timing models, and exporting fitted LVF2 libraries to Liberty.

The paper's grid axes are reproduced: loads are the exact capacitance
breakpoints visible in Fig. 4; slews span the same three decades
geometrically.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.circuits.cells import CellDefinition
from repro.circuits.gate import ArcSimResult, GateTimingEngine
from repro.errors import (
    CharacterizationError,
    FittingError,
    ParameterError,
)
from repro.liberty.library import Cell as LibCell
from repro.liberty.library import Library, Pin, TimingArc
from repro.liberty.lvf2_attrs import LVF2Tables
from repro.liberty.tables import Table, TableTemplate
from repro.models.lvf2 import LVF2Model
from repro.runtime import faults, telemetry
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.policy import FitPolicy
from repro.runtime.pool.scheduler import WorkItem
from repro.runtime.progress import ProgressReporter
from repro.runtime.report import FitContext, FitReport

__all__ = [
    "GRANULARITIES",
    "PAPER_LOADS",
    "PAPER_SLEWS",
    "CharacterizationConfig",
    "ArcCharacterization",
    "arc_checkpoint_token",
    "characterize_arc",
    "characterization_tokens",
    "characterization_work_items",
    "characterized_arc_to_liberty",
    "characterize_library",
    "grid_point_token",
    "pin_fit_token",
    "run_fingerprint",
    "simulate_condition",
]

#: Pool work-unit granularities: one item per (cell, pin) or one item
#: per (cell, pin, edge, slew index, load index).
GRANULARITIES = ("pin", "grid")

#: Output-load breakpoints (pF) — the exact Fig. 4 axis values.
PAPER_LOADS = (
    0.00015,
    0.00722,
    0.02136,
    0.04965,
    0.10623,
    0.21938,
    0.44569,
    0.89830,
)

#: Input-slew breakpoints (ns) — geometric over the same decades.
PAPER_SLEWS = (
    0.00123,
    0.00316,
    0.00812,
    0.02086,
    0.05359,
    0.13767,
    0.35366,
    0.87715,
)


def _condition_seed(
    seed: int, arc_name: str, i: int, j: int
) -> int:
    """Stable per-condition RNG seed (independent across conditions)."""
    digest = hashlib.sha256(
        f"{seed}|{arc_name}|{i}|{j}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class CharacterizationConfig:
    """Knobs of a characterisation run.

    Attributes:
        slews: Input-transition breakpoints (ns).
        loads: Output-load breakpoints (pF).
        n_samples: Monte-Carlo population per condition (paper: 50k).
        seed: Base seed; per-condition seeds are derived from it.
        use_lhs: Latin-hypercube stratification.
    """

    slews: tuple[float, ...] = PAPER_SLEWS
    loads: tuple[float, ...] = PAPER_LOADS
    n_samples: int = 50_000
    seed: int = 2024
    use_lhs: bool = True

    def __post_init__(self) -> None:
        if self.n_samples < 16:
            raise CharacterizationError(
                f"n_samples must be >= 16, got {self.n_samples}"
            )
        if not self.slews or not self.loads:
            raise CharacterizationError("need at least one slew and load")

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (len(self.slews), len(self.loads))

    def template(self) -> TableTemplate:
        """Liberty table template matching the grid."""
        rows, cols = self.grid_shape
        return TableTemplate(
            name=f"delay_template_{rows}x{cols}",
            variable_1="input_net_transition",
            variable_2="total_output_net_capacitance",
            index_1=self.slews,
            index_2=self.loads,
        )


@dataclass
class ArcCharacterization:
    """All Monte-Carlo data for one arc over the slew-load grid.

    Attributes:
        cell: Cell instance name.
        input_pin: Arc input.
        transition: Output transition, ``rise`` or ``fall``.
        config: The run configuration.
        delay_samples: ``(n_slews, n_loads)`` object grid of sample
            arrays.
        transition_samples: Same for output transition time.
        nominal_delay: Variation-free delay grid.
        nominal_transition: Variation-free transition grid.
    """

    cell: str
    input_pin: str
    transition: str
    config: CharacterizationConfig
    delay_samples: np.ndarray
    transition_samples: np.ndarray
    nominal_delay: np.ndarray
    nominal_transition: np.ndarray

    def samples(self, quantity: str, i: int, j: int) -> np.ndarray:
        """Golden samples of ``"delay"`` or ``"transition"`` at (i, j)."""
        if quantity == "delay":
            return self.delay_samples[i, j]
        if quantity == "transition":
            return self.transition_samples[i, j]
        raise CharacterizationError(
            f"quantity must be delay/transition, got {quantity!r}"
        )

    def fit_grid(self, quantity: str) -> np.ndarray:
        """Fit LVF2 at every grid point; returns an object grid.

        The grid is stacked into one ``(n_points, n_samples)`` array
        and fitted by :meth:`LVF2Model.fit_batch`.  The first failing
        point in row-major order raises, as a per-point loop would.
        """
        shape = self.config.grid_shape
        models = np.empty(shape, dtype=object)
        indices = [
            (i, j) for i in range(shape[0]) for j in range(shape[1])
        ]
        stack = np.stack(
            [self.samples(quantity, i, j) for i, j in indices]
        )
        with telemetry.span(
            "fit.grid_batch", stage="fitting", n_points=len(indices)
        ):
            fitted = LVF2Model.fit_batch(stack, errors="capture")
        for (i, j), result in zip(indices, fitted):
            if isinstance(result, Exception):
                raise result
            models[i, j] = result
        return models


def arc_checkpoint_token(
    engine: GateTimingEngine,
    cell: CellDefinition,
    input_pin: str,
    transition: str,
    config: CharacterizationConfig,
) -> str:
    """Content token identifying one arc-characterisation request.

    Everything the Monte-Carlo result depends on goes in: the engine's
    physical parameters, the arc topology, and the grid/sampling
    configuration.  Attribute access (rather than ``repr(engine)``)
    keeps the token stable for wrappers that delegate to a real engine.
    """
    engine_part = "|".join(
        repr(getattr(engine, name, None))
        for name in (
            "corner",
            "variation",
            "slew_sensitivity",
            "charge_sharing_kick",
            "interaction_kick",
        )
    )
    topology = cell.arc(input_pin, transition)
    config_part = (
        f"{config.slews}|{config.loads}|{config.n_samples}"
        f"|{config.seed}|{config.use_lhs}"
    )
    return f"arc-mc|{engine_part}|{cell.name}|{topology!r}|{config_part}"


def run_fingerprint(
    engine: GateTimingEngine,
    cells: Sequence[CellDefinition],
    config: CharacterizationConfig,
) -> str:
    """Content hash identifying a whole characterisation request.

    Built from the same per-arc tokens the checkpoint store keys on,
    so any knob that changes a single Monte-Carlo sample changes the
    fingerprint; recorded in the run manifest as ``config_hash``.
    """
    tokens = [
        arc_checkpoint_token(engine, cell, pin, transition, config)
        for cell in cells
        for pin in cell.inputs
        for transition in ("rise", "fall")
    ]
    digest = hashlib.sha256("\n".join(tokens).encode())
    return digest.hexdigest()[:16]


def simulate_condition(
    engine: GateTimingEngine,
    topology,
    cell_name: str,
    input_pin: str,
    transition: str,
    config: CharacterizationConfig,
    i: int,
    j: int,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Monte-Carlo draw for one (slew, load) grid condition.

    The single shared inner loop of every characterisation path —
    serial arcs, pin-granularity pool tasks (via
    :func:`characterize_arc`) and grid-point pool tasks all sample a
    condition through this function, so the per-condition seed
    derivation, telemetry and fault-injection hooks fire identically
    wherever the condition is computed.  That is the grid-decomposition
    half of the byte-identity argument: per-condition seeds are
    independent sha256 derivations of ``(seed, arc, i, j)``, so the
    samples at (i, j) do not depend on which other conditions the same
    process has already simulated.

    Returns ``(delay_samples, transition_samples, nominal_delay,
    nominal_transition)``.
    """
    started = time.perf_counter()
    with telemetry.span(
        "mc.condition",
        stage="sampling",
        slew_index=i,
        load_index=j,
    ):
        result: ArcSimResult = engine.simulate_arc(
            topology,
            config.slews[i],
            config.loads[j],
            config.n_samples,
            rng=_condition_seed(config.seed, topology.name, i, j),
            use_lhs=config.use_lhs,
        )
    elapsed = time.perf_counter() - started
    if elapsed > 0.0:
        telemetry.observe(
            "mc.samples_per_sec", config.n_samples / elapsed
        )
    telemetry.counter_inc("mc.conditions")
    telemetry.counter_inc("mc.samples", config.n_samples)
    delay = faults.corrupt_samples(
        FitContext(cell_name, input_pin, transition, "delay", i, j),
        result.delay,
    )
    transition_samples = faults.corrupt_samples(
        FitContext(
            cell_name, input_pin, transition, "transition", i, j
        ),
        result.transition,
    )
    return (
        delay,
        transition_samples,
        result.nominal_delay,
        result.nominal_transition,
    )


def characterize_arc(
    engine: GateTimingEngine,
    cell: CellDefinition,
    input_pin: str,
    transition: str,
    config: CharacterizationConfig,
    *,
    checkpoint: CheckpointStore | None = None,
) -> ArcCharacterization:
    """Monte-Carlo characterise one arc over the full grid.

    Args:
        engine: Timing engine.
        cell: Cell whose arc is characterised.
        input_pin: Arc input pin.
        transition: Output transition, ``rise`` or ``fall``.
        config: Grid and sampling configuration.
        checkpoint: Optional store; a previously completed run of the
            identical request is returned without re-simulating, and a
            fresh run is persisted for future resumes.
    """
    token = (
        arc_checkpoint_token(engine, cell, input_pin, transition, config)
        if checkpoint is not None
        else None
    )
    if checkpoint is not None and token is not None:
        cached = checkpoint.load(token)
        if cached is not None:
            faults.arc_completed()
            return cached
    topology = cell.arc(input_pin, transition)
    shape = config.grid_shape
    delay_samples = np.empty(shape, dtype=object)
    transition_samples = np.empty(shape, dtype=object)
    nominal_delay = np.empty(shape)
    nominal_transition = np.empty(shape)
    with telemetry.span(
        "characterize.arc",
        cell=cell.name,
        pin=input_pin,
        transition=transition,
    ):
        for i in range(shape[0]):
            for j in range(shape[1]):
                (
                    delay_samples[i, j],
                    transition_samples[i, j],
                    nominal_delay[i, j],
                    nominal_transition[i, j],
                ) = simulate_condition(
                    engine,
                    topology,
                    cell.name,
                    input_pin,
                    transition,
                    config,
                    i,
                    j,
                )
    characterization = ArcCharacterization(
        cell=cell.name,
        input_pin=input_pin,
        transition=transition,
        config=config,
        delay_samples=delay_samples,
        transition_samples=transition_samples,
        nominal_delay=nominal_delay,
        nominal_transition=nominal_transition,
    )
    if checkpoint is not None and token is not None:
        checkpoint.save(token, characterization)
    faults.arc_completed()
    return characterization


def _fit_grid_with_policy(
    char: ArcCharacterization,
    quantity: str,
    policy: FitPolicy,
    report: FitReport | None,
) -> np.ndarray:
    """Fit every grid point through the fallback ladder.

    :meth:`FitPolicy.fit_batch_iter` batches the first-rung LVF2 fit
    over the stacked grid; outcomes still arrive one point at a time
    in row-major order, so report records and any mid-grid exception
    match a per-point loop exactly.
    """
    shape = char.config.grid_shape
    models = np.empty(shape, dtype=object)
    indices = [(i, j) for i in range(shape[0]) for j in range(shape[1])]
    contexts = [
        FitContext(
            cell=char.cell,
            pin=char.input_pin,
            transition=char.transition,
            quantity=quantity,
            slew_index=i,
            load_index=j,
        )
        for i, j in indices
    ]
    samples_list = [char.samples(quantity, i, j) for i, j in indices]
    outcomes = policy.fit_batch_iter(samples_list, contexts)
    for (i, j), context, outcome in zip(indices, contexts, outcomes):
        if report is not None:
            report.record_fit(context, outcome)
        models[i, j] = outcome.model
    return models


def characterized_arc_to_liberty(
    rise: ArcCharacterization,
    fall: ArcCharacterization,
    *,
    timing_sense: str = "negative_unate",
    collapse_by_bic: bool = False,
    policy: FitPolicy | None = None,
    report: FitReport | None = None,
) -> TimingArc:
    """Fit LVF2 grids for both edges and build a Liberty timing arc.

    Args:
        rise: Characterisation of the output-rise edge.
        fall: Characterisation of the output-fall edge.
        timing_sense: Liberty unateness attribute.
        collapse_by_bic: Apply the §3.4 fallback — grid points whose
            data do not support two components are stored as plain LVF.
        policy: Optional fallback ladder; when given, a degenerate fit
            at one grid point degrades that point instead of raising.
        report: Degradation report fed by ``policy`` fits.
    """
    if (rise.cell, rise.input_pin) != (fall.cell, fall.input_pin):
        raise CharacterizationError(
            "rise/fall characterisations are for different arcs"
        )
    config = rise.config
    template = config.template()
    arc = TimingArc(
        related_pin=rise.input_pin,
        timing_sense=timing_sense,
        timing_type="combinational",
    )
    quantity_map = {
        "cell_rise": (rise, "delay"),
        "rise_transition": (rise, "transition"),
        "cell_fall": (fall, "delay"),
        "fall_transition": (fall, "transition"),
    }
    for base, (char, quantity) in quantity_map.items():
        nominal_grid = (
            char.nominal_delay
            if quantity == "delay"
            else char.nominal_transition
        )
        nominal = Table(
            template.name, config.slews, config.loads, nominal_grid
        )
        if policy is not None:
            models = _fit_grid_with_policy(char, quantity, policy, report)
        else:
            models = char.fit_grid(quantity)
        if collapse_by_bic:
            for index in np.ndindex(models.shape):
                model = models[index]
                try:
                    collapsed = model.collapse_by_bic(
                        char.samples(quantity, *index)
                    )
                except FittingError:
                    if policy is None:
                        raise
                    continue
                if collapsed is not model:
                    models[index] = LVF2Model.from_lvf(collapsed)
        with telemetry.span("liberty.tables", stage="export", table=base):
            arc.tables[base] = LVF2Tables.from_models(
                base, nominal, models
            )
    return arc


def pin_fit_token(
    engine: GateTimingEngine,
    cell: CellDefinition,
    pin_name: str,
    config: CharacterizationConfig,
    *,
    policy: FitPolicy | None,
    isolate_errors: bool,
) -> str:
    """Content token of one pin's characterise-and-fit payload.

    Built from both edge Monte-Carlo tokens plus the fit knobs: the
    payload embeds fitted models and the local fit report, so anything
    that can change a fit (the policy ladder, quarantine behaviour)
    must change the key.  ``FitPolicy`` is a frozen dataclass of
    scalars and tuples, so its repr is stable across processes/hosts.
    """
    rise = arc_checkpoint_token(engine, cell, pin_name, "rise", config)
    fall = arc_checkpoint_token(engine, cell, pin_name, "fall", config)
    return f"pin-fit|{rise}|{fall}|{policy!r}|{isolate_errors}"


def _pin_payload(
    engine: GateTimingEngine,
    cell: CellDefinition,
    pin_name: str,
    config: CharacterizationConfig,
    *,
    checkpoint: CheckpointStore | None,
    policy: FitPolicy | None,
    isolate_errors: bool,
) -> dict:
    """Simulate both edges and fit one pin; the single shared path.

    Serial runs call this directly; pool workers call it through
    :func:`_characterize_pin_task` and checkpoint the returned dict —
    either way the payload bytes come from the same code over the same
    per-condition seeds, which is the byte-identity argument.

    Returns ``{"arc", "report", "stage", "error"}``: a Liberty
    :class:`TimingArc` (or None when the pin was quarantined), the
    pin-local :class:`FitReport`, and — on quarantine — the failing
    stage (``"simulate"``/``"fit"``) and error text.
    """
    local = FitReport()
    try:
        rise = characterize_arc(
            engine, cell, pin_name, "rise", config, checkpoint=checkpoint
        )
        fall = characterize_arc(
            engine, cell, pin_name, "fall", config, checkpoint=checkpoint
        )
    except (CharacterizationError, FittingError) as error:
        if not isolate_errors:
            raise
        local.quarantine(
            f"{cell.name}/{pin_name}", "simulate", str(error)
        )
        return {
            "arc": None,
            "report": local,
            "stage": "simulate",
            "error": str(error),
        }
    try:
        arc = characterized_arc_to_liberty(
            rise, fall, policy=policy, report=local
        )
    except (CharacterizationError, FittingError) as error:
        if not isolate_errors:
            raise
        local.quarantine(f"{cell.name}/{pin_name}", "fit", str(error))
        return {
            "arc": None,
            "report": local,
            "stage": "fit",
            "error": str(error),
        }
    return {"arc": arc, "report": local, "stage": None, "error": None}


def _characterize_pin_task(
    store: CheckpointStore,
    engine: GateTimingEngine,
    cell: CellDefinition,
    pin_name: str,
    config: CharacterizationConfig,
    policy: FitPolicy | None,
    isolate_errors: bool,
) -> dict:
    """Pool task: one pin's payload, Monte-Carlo checkpointed in-store.

    Top-level so it pickles under the spawn start method; the worker
    saves the returned dict under this pin's fit token.
    """
    return _pin_payload(
        engine,
        cell,
        pin_name,
        config,
        checkpoint=store,
        policy=policy,
        isolate_errors=isolate_errors,
    )


def grid_point_token(
    engine: GateTimingEngine,
    cell: CellDefinition,
    pin_name: str,
    transition: str,
    config: CharacterizationConfig,
    i: int,
    j: int,
    *,
    policy: FitPolicy | None,
) -> str:
    """Content token of one grid point's simulate-and-fit payload.

    Derived from the arc's Monte-Carlo token (so any knob that changes
    a sample changes the key) plus the condition indices and the fit
    policy.  Unlike :func:`pin_fit_token`, ``isolate_errors`` is *not*
    part of the key: a grid-point payload records errors instead of
    acting on them (the parent's assembly step applies the
    quarantine-vs-raise decision), so the same payload serves both
    modes.
    """
    arc = arc_checkpoint_token(engine, cell, pin_name, transition, config)
    return f"grid-fit|{arc}|{i}|{j}|{policy!r}"


#: Exception types a grid-point payload may carry; assembly re-raises
#: the original type so serial and grid-parallel runs fail identically.
_PAYLOAD_ERRORS = {
    "CharacterizationError": CharacterizationError,
    "FittingError": FittingError,
}


def _grid_point_task(
    store: CheckpointStore,
    engine: GateTimingEngine,
    cell: CellDefinition,
    pin_name: str,
    transition: str,
    config: CharacterizationConfig,
    i: int,
    j: int,
    policy: FitPolicy | None,
) -> dict:
    """Pool task: simulate and fit one (arc, slew, load) condition.

    Top-level so it pickles under spawn.  When the store already holds
    the full-arc Monte-Carlo payload (a previous serial or
    pin-granularity run over the same store), the condition's samples
    are sliced out of it instead of re-simulated — content addressing
    makes the slice byte-identical to a fresh draw.

    Deterministic errors are *captured in the payload* rather than
    raised: a serial run simulates the entire rise and fall grids
    before fitting anything, so which error surfaces first depends on
    serial order, not on the order grid points happen to be computed
    in.  The parent's assembly step replays the serial order over the
    captured errors and raises (or quarantines) exactly the one a
    serial run would have hit.

    Returns ``{"sim_error", "nominal_delay", "nominal_transition",
    "fits"}`` where ``fits[quantity]`` is one of ``{"outcome":
    FitOutcome}`` (policy path), ``{"model": LVF2Model}`` (bare-fitter
    path) or ``{"error": (type_name, text)}``.
    """
    topology = cell.arc(pin_name, transition)
    with telemetry.span(
        "characterize.point",
        cell=cell.name,
        pin=pin_name,
        transition=transition,
        slew_index=i,
        load_index=j,
    ):
        arc_token = arc_checkpoint_token(
            engine, cell, pin_name, transition, config
        )
        try:
            cached = (
                store.load(arc_token)
                if store is not None and store.contains(arc_token)
                else None
            )
            if cached is not None:
                delay = cached.delay_samples[i, j]
                transition_samples = cached.transition_samples[i, j]
                nominal_delay = float(cached.nominal_delay[i, j])
                nominal_transition = float(
                    cached.nominal_transition[i, j]
                )
            else:
                (
                    delay,
                    transition_samples,
                    nominal_delay,
                    nominal_transition,
                ) = simulate_condition(
                    engine,
                    topology,
                    cell.name,
                    pin_name,
                    transition,
                    config,
                    i,
                    j,
                )
        except (CharacterizationError, FittingError) as error:
            faults.arc_completed()
            return {
                "sim_error": (type(error).__name__, str(error)),
                "nominal_delay": None,
                "nominal_transition": None,
                "fits": {},
            }
        fits: dict[str, dict] = {}
        for quantity, samples in (
            ("delay", delay),
            ("transition", transition_samples),
        ):
            context = FitContext(
                cell.name, pin_name, transition, quantity, i, j
            )
            try:
                if policy is not None:
                    fits[quantity] = {
                        "outcome": policy.fit(samples, context=context)
                    }
                else:
                    with telemetry.span("fit.point", stage="fitting"):
                        fits[quantity] = {
                            "model": LVF2Model.fit(samples)
                        }
            except (CharacterizationError, FittingError) as error:
                fits[quantity] = {
                    "error": (type(error).__name__, str(error))
                }
    faults.arc_completed()
    return {
        "sim_error": None,
        "nominal_delay": nominal_delay,
        "nominal_transition": nominal_transition,
        "fits": fits,
    }


def _assemble_pin_from_grid(
    cell: CellDefinition,
    pin_name: str,
    config: CharacterizationConfig,
    points: dict,
    *,
    policy: FitPolicy | None,
    isolate_errors: bool,
) -> dict:
    """Level-1 assembly: fold grid-point payloads into one pin payload.

    Replays the serial pin path over precomputed per-point results in
    the exact serial order — simulation errors first (scanning the
    whole rise grid, then the whole fall grid, row-major, the way
    :func:`characterize_arc` visits conditions), then fits in Liberty
    base order (``cell_rise``, ``rise_transition``, ``cell_fall``,
    ``fall_transition``; slews outer, loads inner).  Fit outcomes are
    re-recorded into a fresh :class:`FitReport` in that order, so the
    assembled :class:`TimingArc`, the report records and any
    quarantine entry are byte-identical to what :func:`_pin_payload`
    would have produced.

    ``points`` maps ``(transition, i, j)`` to grid-point payloads.
    Returns the same ``{"arc", "report", "stage", "error"}`` dict as
    :func:`_pin_payload` (level 2 — per-cell Liberty assembly — is
    :func:`_characterize_cell`, shared by every path).
    """
    local = FitReport()
    shape = config.grid_shape
    label = f"{cell.name}/{pin_name}"
    for transition in ("rise", "fall"):
        for i in range(shape[0]):
            for j in range(shape[1]):
                sim_error = points[(transition, i, j)]["sim_error"]
                if sim_error is None:
                    continue
                type_name, text = sim_error
                if not isolate_errors:
                    raise _PAYLOAD_ERRORS.get(
                        type_name, CharacterizationError
                    )(text)
                local.quarantine(label, "simulate", text)
                return {
                    "arc": None,
                    "report": local,
                    "stage": "simulate",
                    "error": text,
                }
    template = config.template()
    arc = TimingArc(
        related_pin=pin_name,
        timing_sense="negative_unate",
        timing_type="combinational",
    )
    quantity_map = (
        ("cell_rise", "rise", "delay"),
        ("rise_transition", "rise", "transition"),
        ("cell_fall", "fall", "delay"),
        ("fall_transition", "fall", "transition"),
    )
    for base, transition, quantity in quantity_map:
        nominal_grid = np.empty(shape)
        models = np.empty(shape, dtype=object)
        for i in range(shape[0]):
            for j in range(shape[1]):
                point = points[(transition, i, j)]
                nominal_grid[i, j] = point[
                    "nominal_delay"
                    if quantity == "delay"
                    else "nominal_transition"
                ]
                fit = point["fits"][quantity]
                error = fit.get("error")
                if error is not None:
                    type_name, text = error
                    if not isolate_errors:
                        raise _PAYLOAD_ERRORS.get(
                            type_name, FittingError
                        )(text)
                    local.quarantine(label, "fit", text)
                    return {
                        "arc": None,
                        "report": local,
                        "stage": "fit",
                        "error": text,
                    }
                if policy is not None:
                    outcome = fit["outcome"]
                    local.record_fit(
                        FitContext(
                            cell.name,
                            pin_name,
                            transition,
                            quantity,
                            i,
                            j,
                        ),
                        outcome,
                    )
                    models[i, j] = outcome.model
                else:
                    models[i, j] = fit["model"]
        nominal = Table(
            template.name, config.slews, config.loads, nominal_grid
        )
        with telemetry.span("liberty.tables", stage="export", table=base):
            arc.tables[base] = LVF2Tables.from_models(
                base, nominal, models
            )
    return {"arc": arc, "report": local, "stage": None, "error": None}


def characterization_work_items(
    engine: GateTimingEngine,
    cells: Sequence[CellDefinition],
    config: CharacterizationConfig,
    *,
    policy: FitPolicy | None = None,
    isolate_errors: bool = False,
    granularity: str = "pin",
) -> tuple[WorkItem, ...]:
    """Pool work items for a library run, at the chosen granularity.

    ``"pin"`` (default): one item per (cell, input pin) — the whole
    simulate-both-edges-and-fit payload.  Each item's companions are
    the two per-edge Monte-Carlo tokens the task writes along the way
    (claimed together so gc cannot evict them mid-flight, and shared
    byte-for-byte with serial runs on the same store).

    ``"grid"``: one item per (cell, pin, edge, slew index, load
    index) — a single condition's simulate-and-fit.  With 8x8 grids a
    pin is 128 grid points, so this granularity load-balances
    per-pin-dominated workloads across many cores where pin items
    would leave workers idle.  Grid items carry no companions (they
    only *read* a full-arc Monte-Carlo entry if one already exists)
    and set :attr:`WorkItem.group` to the pin they fold into during
    two-level assembly.

    Raises:
        ParameterError: On an unknown granularity.
    """
    if granularity not in GRANULARITIES:
        raise ParameterError(
            f"granularity must be one of {GRANULARITIES}, "
            f"got {granularity!r}"
        )
    items = []
    if granularity == "grid":
        rows, cols = config.grid_shape
        for cell in cells:
            for pin_name in cell.inputs:
                for transition in ("rise", "fall"):
                    for i in range(rows):
                        for j in range(cols):
                            items.append(
                                WorkItem(
                                    token=grid_point_token(
                                        engine,
                                        cell,
                                        pin_name,
                                        transition,
                                        config,
                                        i,
                                        j,
                                        policy=policy,
                                    ),
                                    label=(
                                        f"{cell.name}/{pin_name}"
                                        f"/{transition}[{i},{j}]"
                                    ),
                                    task=_grid_point_task,
                                    args=(
                                        engine,
                                        cell,
                                        pin_name,
                                        transition,
                                        config,
                                        i,
                                        j,
                                        policy,
                                    ),
                                    group=f"{cell.name}/{pin_name}",
                                )
                            )
        return tuple(items)
    for cell in cells:
        for pin_name in cell.inputs:
            rise = arc_checkpoint_token(
                engine, cell, pin_name, "rise", config
            )
            fall = arc_checkpoint_token(
                engine, cell, pin_name, "fall", config
            )
            items.append(
                WorkItem(
                    token=pin_fit_token(
                        engine,
                        cell,
                        pin_name,
                        config,
                        policy=policy,
                        isolate_errors=isolate_errors,
                    ),
                    label=f"{cell.name}/{pin_name}",
                    task=_characterize_pin_task,
                    args=(
                        engine,
                        cell,
                        pin_name,
                        config,
                        policy,
                        isolate_errors,
                    ),
                    companions=(rise, fall),
                )
            )
    return tuple(items)


def _assemble_pin_from_store(
    reader: CheckpointStore,
    engine: GateTimingEngine,
    cell: CellDefinition,
    pin_name: str,
    config: CharacterizationConfig,
    *,
    policy: FitPolicy | None,
    isolate_errors: bool,
) -> dict:
    """Load one pin's grid-point payloads and fold them into a pin
    payload (level 1 of the two-level assembly)."""
    rows, cols = config.grid_shape
    points: dict = {}
    for transition in ("rise", "fall"):
        for i in range(rows):
            for j in range(cols):
                token = grid_point_token(
                    engine,
                    cell,
                    pin_name,
                    transition,
                    config,
                    i,
                    j,
                    policy=policy,
                )
                point = reader.load(token)
                if point is None:  # pragma: no cover - defensive
                    point = _grid_point_task(
                        reader,
                        engine,
                        cell,
                        pin_name,
                        transition,
                        config,
                        i,
                        j,
                        policy,
                    )
                points[(transition, i, j)] = point
    with telemetry.span(
        "pool.assemble",
        label=f"{cell.name}/{pin_name}",
        n_points=len(points),
    ):
        return _assemble_pin_from_grid(
            cell,
            pin_name,
            config,
            points,
            policy=policy,
            isolate_errors=isolate_errors,
        )


def _parallel_supplier(
    engine: GateTimingEngine,
    cells: Sequence[CellDefinition],
    config: CharacterizationConfig,
    *,
    checkpoint: CheckpointStore | None,
    policy: FitPolicy | None,
    isolate_errors: bool,
    workers: int,
    pool,
    granularity: str = "pin",
):
    """Run the worker pool, pre-load every pin payload, hand back a
    ``supplier(cell, pin) -> payload`` for serial-order assembly.

    At ``"grid"`` granularity the pre-load step *is* level 1 of the
    two-level assembly: each pin's grid-point payloads are folded into
    a pin payload here, in serial order, before the per-cell Liberty
    assembly (level 2) consumes them.

    Without a caller-provided store the pool runs over a temporary
    directory removed before assembly starts (payloads are held in
    memory by then).
    """
    from repro.runtime.pool.pool import PoolConfig, run_pool

    items = characterization_work_items(
        engine,
        cells,
        config,
        policy=policy,
        isolate_errors=isolate_errors,
        granularity=granularity,
    )
    temp_dir = None
    store = checkpoint
    if store is None:
        temp_dir = tempfile.mkdtemp(prefix="repro-pool-")
        store = CheckpointStore(temp_dir, reuse=True)
    try:
        pool_config = pool or PoolConfig(
            n_workers=workers, seed=config.seed
        )
        run_pool(items, store, pool_config)
        reader = (
            store
            if store.reuse
            else CheckpointStore(store.directory, reuse=True)
        )
        payloads: dict[tuple[str, str], dict] = {}
        for cell in cells:
            for pin_name in cell.inputs:
                if granularity == "grid":
                    payload = _assemble_pin_from_store(
                        reader,
                        engine,
                        cell,
                        pin_name,
                        config,
                        policy=policy,
                        isolate_errors=isolate_errors,
                    )
                else:
                    token = pin_fit_token(
                        engine,
                        cell,
                        pin_name,
                        config,
                        policy=policy,
                        isolate_errors=isolate_errors,
                    )
                    payload = reader.load(token)
                    if payload is None:  # pragma: no cover - defensive
                        payload = _pin_payload(
                            engine,
                            cell,
                            pin_name,
                            config,
                            checkpoint=reader,
                            policy=policy,
                            isolate_errors=isolate_errors,
                        )
                payloads[(cell.name, pin_name)] = payload
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)

    def supplier(cell: CellDefinition, pin_name: str) -> dict:
        return payloads[(cell.name, pin_name)]

    return supplier


def characterization_tokens(
    engine: GateTimingEngine,
    cells: Sequence[CellDefinition],
    config: CharacterizationConfig,
    *,
    policy: FitPolicy | None = None,
    isolate_errors: bool = False,
) -> tuple[str, ...]:
    """Every token a run of this configuration can read or write.

    The full valid set for :meth:`CheckpointStore.gc`: per-edge
    Monte-Carlo tokens, per-pin fit tokens and per-grid-point fit
    tokens.  Collecting against arc tokens alone would evict the pin-
    and grid-level payloads a pool run left behind, forcing the next
    resume to re-fit everything.
    """
    rows, cols = config.grid_shape
    tokens: list[str] = []
    for cell in cells:
        for pin_name in cell.inputs:
            tokens.append(
                pin_fit_token(
                    engine,
                    cell,
                    pin_name,
                    config,
                    policy=policy,
                    isolate_errors=isolate_errors,
                )
            )
            for transition in ("rise", "fall"):
                tokens.append(
                    arc_checkpoint_token(
                        engine, cell, pin_name, transition, config
                    )
                )
                for i in range(rows):
                    for j in range(cols):
                        tokens.append(
                            grid_point_token(
                                engine,
                                cell,
                                pin_name,
                                transition,
                                config,
                                i,
                                j,
                                policy=policy,
                            )
                        )
    return tuple(tokens)


def characterize_library(
    engine: GateTimingEngine,
    cells: Sequence[CellDefinition],
    config: CharacterizationConfig,
    *,
    library_name: str = "repro_tt_0p8v_25c",
    checkpoint: CheckpointStore | None = None,
    policy: FitPolicy | None = None,
    report: FitReport | None = None,
    isolate_errors: bool = False,
    progress: ProgressReporter | None = None,
    workers: int = 1,
    pool=None,
    granularity: str = "pin",
) -> Library:
    """Characterise a cell list into a complete LVF2 Liberty library.

    Args:
        engine: Timing engine.
        cells: Cells to characterise.
        config: Grid and sampling configuration.
        library_name: Liberty library name.
        checkpoint: Optional per-arc checkpoint store; completed arcs
            of a killed run are resumed instead of re-simulated.
        policy: Optional fit fallback ladder; degenerate grid points
            degrade through it instead of aborting the library.
        report: Degradation/quarantine report filled during the run.
        isolate_errors: When True, an arc whose characterisation or
            fitting fails terminally is quarantined into ``report``
            (the library is emitted without it) instead of raising.
        progress: Optional progress reporter (one line per arc).
        workers: When > 1, split the per-pin simulate+fit work across
            that many worker processes (claim-file coordination over
            the checkpoint directory; see ``repro.runtime.pool``).
            The resulting library and report are byte-identical to a
            serial run — sharding only changes who computes a payload.
        pool: Optional :class:`~repro.runtime.pool.PoolConfig`
            overriding the derived pool settings (implies parallel
            even when ``workers`` is 1).
        granularity: Parallel work-unit size, ``"pin"`` (default) or
            ``"grid"`` (one claimable item per grid condition; see
            :func:`characterization_work_items`).  Serial runs ignore
            it beyond validation — and every granularity/worker-count
            combination produces byte-identical output.
    """
    if granularity not in GRANULARITIES:
        raise ParameterError(
            f"granularity must be one of {GRANULARITIES}, "
            f"got {granularity!r}"
        )
    reporter = progress or ProgressReporter(enabled=False)
    template = config.template()
    library = Library(
        name=library_name,
        attributes={
            "technology": "cmos",
            "delay_model": "table_lookup",
            "time_unit": "1ns",
            "voltage_unit": "1V",
            "nom_voltage": f"{engine.corner.vdd:g}",
            "nom_temperature": f"{engine.corner.temperature:g}",
        },
    )
    library.templates[template.name] = template
    if workers > 1 or pool is not None:
        supplier = _parallel_supplier(
            engine,
            cells,
            config,
            checkpoint=checkpoint,
            policy=policy,
            isolate_errors=isolate_errors,
            workers=workers,
            pool=pool,
            granularity=granularity,
        )
    else:

        def supplier(cell: CellDefinition, pin_name: str) -> dict:
            return _pin_payload(
                engine,
                cell,
                pin_name,
                config,
                checkpoint=checkpoint,
                policy=policy,
                isolate_errors=isolate_errors,
            )

    for cell in cells:
        with telemetry.span("characterize.cell", cell=cell.name):
            lib_cell = _characterize_cell(
                cell,
                config,
                supplier=supplier,
                report=report,
                reporter=reporter,
            )
        library.cells[cell.name] = lib_cell
    return library


def _characterize_cell(
    cell: CellDefinition,
    config: CharacterizationConfig,
    *,
    supplier,
    report: FitReport | None,
    reporter: ProgressReporter,
) -> LibCell:
    """Assemble one Liberty cell from per-pin payloads, serial order.

    ``supplier(cell, pin) -> payload`` abstracts over where the payload
    came from (computed inline or loaded from a pool's checkpoint
    store); assembly order — and therefore report order and Liberty
    output — is the cell/pin iteration order either way.
    """
    lib_cell = LibCell(name=cell.name, area=1.0 + cell.drive)
    for pin_name in cell.inputs:
        lib_cell.pins[pin_name] = Pin(
            name=pin_name,
            direction="input",
            capacitance=cell.input_capacitance(pin_name),
        )
    output = Pin(
        name=cell.output, direction="output", function=cell.function
    )
    for pin_name in cell.inputs:
        payload = supplier(cell, pin_name)
        if report is not None:
            report.merge(payload["report"])
        if payload["error"] is not None:
            reporter.info(
                "quarantined %s/%s (%s): %s",
                cell.name,
                pin_name,
                payload["stage"],
                payload["error"],
            )
            continue
        output.arcs.append(payload["arc"])
        reporter.info(
            "characterized %s/%s (%dx%d grid, %d samples)",
            cell.name,
            pin_name,
            *config.grid_shape,
            config.n_samples,
        )
    lib_cell.pins[output.name] = output
    return lib_cell
