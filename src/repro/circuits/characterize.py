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
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.circuits.cells import CellDefinition
from repro.circuits.gate import ArcSimResult, GateTimingEngine
from repro.errors import CharacterizationError, FittingError
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
from repro.stats.em import EMConfig

__all__ = [
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
    "edge_fit_token",
    "run_fingerprint",
    "simulate_condition",
]

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

#: Output edges of one arc, in serial order.
_EDGES = ("rise", "fall")

#: Liberty table base -> (edge, quantity), in serial fit order.
_TABLES = (
    ("cell_rise", "rise", "delay"),
    ("rise_transition", "rise", "transition"),
    ("cell_fall", "fall", "delay"),
    ("fall_transition", "fall", "transition"),
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

    def nominal(self, quantity: str) -> np.ndarray:
        """Variation-free grid of ``"delay"`` or ``"transition"``."""
        if quantity == "delay":
            return self.nominal_delay
        return self.nominal_transition

    def fit_grid(
        self,
        quantity: str,
        policy: FitPolicy = FitPolicy(),
        report: FitReport | None = None,
    ) -> np.ndarray:
        """Fit every grid point through the ``policy`` ladder.

        :meth:`FitPolicy.fit_batch_iter` batches the first-rung LVF2
        fit over the stacked grid; outcomes still arrive one point at
        a time in row-major order, so ``report`` records and any
        mid-grid :class:`FittingError` match a per-point loop exactly.
        ``FitPolicy(rungs=("LVF2",))`` is strict mode: the first
        point LVF2 cannot fit raises.

        Returns:
            ``(n_slews, n_loads)`` object grid of :class:`LVF2Model`.
        """
        shape = self.config.grid_shape
        models = np.empty(shape, dtype=object)
        indices = list(np.ndindex(shape))
        contexts = [
            FitContext(
                self.cell, self.input_pin, self.transition, quantity, i, j
            )
            for i, j in indices
        ]
        outcomes = policy.fit_batch_iter(
            [self.samples(quantity, i, j) for i, j in indices], contexts
        )
        for index, context, outcome in zip(indices, contexts, outcomes):
            if report is not None:
                report.record_fit(context, outcome)
            models[index] = outcome.model
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
        for transition in _EDGES
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
    serial runs and pool edge tasks both sample a condition through
    this function (via :func:`characterize_arc`), so the per-condition
    seed derivation, telemetry and fault-injection hooks fire
    identically wherever the condition is computed.  Per-condition
    seeds are independent sha256 derivations of ``(seed, arc, i, j)``,
    so the samples at (i, j) do not depend on which other conditions
    the same process has already simulated.

    Returns ``(delay_samples, transition_samples, nominal_delay,
    nominal_transition)``.
    """
    started = time.perf_counter()
    with telemetry.span("mc.condition", slew_index=i, load_index=j):
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


def _lvf2_tables(
    base: str,
    char: ArcCharacterization,
    quantity: str,
    models: np.ndarray,
) -> LVF2Tables:
    """Liberty table set of one fitted quantity grid, named ``base``."""
    config = char.config
    nominal = Table(
        config.template().name,
        config.slews,
        config.loads,
        char.nominal(quantity),
    )
    with telemetry.span("liberty.tables", table=base):
        return LVF2Tables.from_models(base, nominal, models)


def _timing_arc(pin_name: str, tables: dict[str, LVF2Tables]) -> TimingArc:
    """One Liberty timing arc carrying ``tables`` in Liberty order."""
    return TimingArc(
        related_pin=pin_name,
        timing_sense="negative_unate",
        timing_type="combinational",
        tables=tables,
    )


def characterized_arc_to_liberty(
    rise: ArcCharacterization,
    fall: ArcCharacterization,
    *,
    collapse_by_bic: bool = False,
    policy: FitPolicy = FitPolicy(),
    report: FitReport | None = None,
) -> TimingArc:
    """Fit LVF2 grids for both edges and build a Liberty timing arc.

    Args:
        rise: Characterisation of the output-rise edge.
        fall: Characterisation of the output-fall edge.
        collapse_by_bic: Apply the §3.4 fallback — grid points whose
            data do not support two components are stored as plain LVF.
        policy: Fit fallback ladder; with the default, a degenerate
            fit at one grid point degrades that point instead of
            raising.  ``FitPolicy(rungs=("LVF2",))`` raises instead.
        report: Optional report fed one record per fit.
    """
    if (rise.cell, rise.input_pin) != (fall.cell, fall.input_pin):
        raise CharacterizationError(
            "rise/fall characterisations are for different arcs"
        )
    edges = {"rise": rise, "fall": fall}
    tables = {}
    for base, transition, quantity in _TABLES:
        char = edges[transition]
        models = char.fit_grid(quantity, policy, report)
        if collapse_by_bic:
            for index in np.ndindex(models.shape):
                model = models[index]
                try:
                    collapsed = model.collapse_by_bic(
                        char.samples(quantity, *index)
                    )
                except FittingError:
                    continue  # keep the ladder's model
                if collapsed is not model:
                    models[index] = LVF2Model.from_lvf(collapsed)
        tables[base] = _lvf2_tables(base, char, quantity, models)
    return _timing_arc(rise.input_pin, tables)


def edge_fit_token(
    engine: GateTimingEngine,
    cell: CellDefinition,
    pin_name: str,
    transition: str,
    config: CharacterizationConfig,
    *,
    policy: FitPolicy = FitPolicy(),
) -> str:
    """Content token of one arc edge's simulate-and-fit payload.

    Derived from the edge's Monte-Carlo token (so any knob that
    changes a sample changes the key), the fit policy and the default
    EM configuration every fit on the ladder runs with (so a store
    written under another stop rule misses instead of resuming stale
    fits).  ``FitPolicy`` and ``EMConfig`` are frozen dataclasses of
    scalars and tuples, so their reprs are stable across processes and
    hosts.  ``isolate_errors`` is not part of the key: an edge payload
    records errors instead of acting on them, so the same payload
    serves both modes.
    """
    arc = arc_checkpoint_token(engine, cell, pin_name, transition, config)
    return f"edge-fit|{arc}|{policy!r}|{EMConfig()!r}"


def _edge_payload(
    store: CheckpointStore | None,
    engine: GateTimingEngine,
    cell: CellDefinition,
    pin_name: str,
    transition: str,
    config: CharacterizationConfig,
    policy: FitPolicy,
) -> dict:
    """Simulate one arc edge and fit its two Liberty tables.

    The one characterisation task: pool workers run it as a
    :class:`WorkItem` task (top-level so it pickles under spawn) and
    save the result under :func:`edge_fit_token`; serial runs call it
    inline.  Either way the payload comes from the same code over the
    same per-condition seeds, which is the byte-identity argument.

    Errors are recorded as ``(type, text)``, never acted on: which
    error a run reports depends on the serial order over both edges,
    so :func:`_fold_pin` decides between quarantine and raise.

    Returns ``{"sim_error", "fits"}``: the simulation error or None,
    and per Liberty base (``cell_rise`` ...) ``{"report", "tables",
    "error"}`` — the fit records in row-major order (up to a failing
    point), the :class:`LVF2Tables` of the fitted grid, and the fit
    error or None.
    """
    try:
        char = characterize_arc(
            engine, cell, pin_name, transition, config, checkpoint=store
        )
    except (CharacterizationError, FittingError) as error:
        return {"sim_error": (type(error), str(error)), "fits": {}}
    fits = {}
    for base, edge, quantity in _TABLES:
        if edge != transition:
            continue
        local = FitReport()
        tables = error = None
        try:
            models = char.fit_grid(quantity, policy, local)
        except (CharacterizationError, FittingError) as caught:
            error = (type(caught), str(caught))
        else:
            tables = _lvf2_tables(base, char, quantity, models)
        fits[base] = {"report": local, "tables": tables, "error": error}
    return {"sim_error": None, "fits": fits}


def _fold_pin(
    cell_name: str,
    pin_name: str,
    edges: dict[str, dict],
    report: FitReport,
    *,
    isolate_errors: bool,
) -> TimingArc | None:
    """Fold one pin's two edge payloads into its Liberty timing arc.

    Replays the serial precedence: a rise simulation error, then a
    fall simulation error, then the fit records and errors of
    ``cell_rise``, ``rise_transition``, ``cell_fall`` and
    ``fall_transition`` in that order.  Fit records reach ``report``
    in that order up to the first error.  The first error is raised
    as its original type or, with ``isolate_errors``, quarantines the
    pin into ``report``; the fold then returns None.
    """

    def fail(stage: str, error: tuple[type, str]) -> None:
        error_type, text = error
        if not isolate_errors:
            raise error_type(text)
        report.quarantine(f"{cell_name}/{pin_name}", stage, text)

    for transition in _EDGES:
        if edges[transition]["sim_error"] is not None:
            return fail("simulate", edges[transition]["sim_error"])
    tables = {}
    for base, transition, _ in _TABLES:
        fit = edges[transition]["fits"][base]
        report.merge(fit["report"])
        if fit["error"] is not None:
            return fail("fit", fit["error"])
        tables[base] = fit["tables"]
    return _timing_arc(pin_name, tables)


def _edges(cells: Sequence[CellDefinition]):
    """Every ``(cell, pin, transition)`` arc edge, in serial order."""
    for cell in cells:
        for pin_name in cell.inputs:
            for transition in _EDGES:
                yield cell, pin_name, transition


def characterization_work_items(
    engine: GateTimingEngine,
    cells: Sequence[CellDefinition],
    config: CharacterizationConfig,
    *,
    policy: FitPolicy = FitPolicy(),
) -> tuple[WorkItem, ...]:
    """Pool work items for a library run: one per arc edge.

    Items come in serial edge order.  Each item's companion is the
    edge's Monte-Carlo token, which the task writes along the way
    (claimed together so gc cannot evict it mid-flight, and shared
    byte-for-byte with serial runs on the same store).
    """
    return tuple(
        WorkItem(
            token=edge_fit_token(
                engine, cell, pin_name, transition, config, policy=policy
            ),
            label=f"{cell.name}/{pin_name}/{transition}",
            task=_edge_payload,
            args=(engine, cell, pin_name, transition, config, policy),
            companions=(
                arc_checkpoint_token(
                    engine, cell, pin_name, transition, config
                ),
            ),
        )
        for cell, pin_name, transition in _edges(cells)
    )


def characterization_tokens(
    engine: GateTimingEngine,
    cells: Sequence[CellDefinition],
    config: CharacterizationConfig,
    *,
    policy: FitPolicy = FitPolicy(),
) -> tuple[str, ...]:
    """Every token a run of this configuration can read or write.

    The full valid set for :meth:`CheckpointStore.gc`: per-edge
    Monte-Carlo tokens and per-edge fit tokens.  Collecting against
    Monte-Carlo tokens alone would evict the fit payloads a pool run
    left behind, forcing the next resume to re-fit everything.
    """
    return tuple(
        token
        for item in characterization_work_items(
            engine, cells, config, policy=policy
        )
        for token in (item.token, *item.companions)
    )


def characterize_library(
    engine: GateTimingEngine,
    cells: Sequence[CellDefinition],
    config: CharacterizationConfig,
    *,
    library_name: str = "repro_tt_0p8v_25c",
    checkpoint: CheckpointStore | None = None,
    policy: FitPolicy = FitPolicy(),
    report: FitReport | None = None,
    isolate_errors: bool = False,
    progress: ProgressReporter | None = None,
    workers: int = 1,
    pool=None,
) -> Library:
    """Characterise a cell list into a complete LVF2 Liberty library.

    Args:
        engine: Timing engine.
        cells: Cells to characterise.
        config: Grid and sampling configuration.
        library_name: Liberty library name.
        checkpoint: Optional per-arc checkpoint store; completed arcs
            of a killed run are resumed instead of re-simulated.
        policy: Fit fallback ladder; degenerate grid points degrade
            through it instead of aborting the library.  The one-rung
            ``FitPolicy(rungs=("LVF2",))`` is strict mode.
        report: Degradation/quarantine report filled during the run.
        isolate_errors: When True, an arc whose characterisation or
            fitting fails terminally is quarantined into ``report``
            (the library is emitted without it) instead of raising.
        progress: Optional progress reporter (one line per arc).
        workers: When > 1, split the per-edge simulate+fit work across
            that many worker processes (claim-file coordination over
            the checkpoint directory; see ``repro.runtime.pool``).
            The resulting library and report are byte-identical to a
            serial run — sharding only changes who computes a payload.
        pool: Optional :class:`~repro.runtime.pool.PoolConfig`
            overriding the derived pool settings (implies parallel
            even when ``workers`` is 1).
    """
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
        from repro.runtime.pool.pool import PoolConfig, pool_payloads

        payloads = iter(
            pool_payloads(
                characterization_work_items(
                    engine, cells, config, policy=policy
                ),
                checkpoint,
                pool or PoolConfig(n_workers=workers, seed=config.seed),
            )
        )
    else:
        payloads = (
            _edge_payload(
                checkpoint,
                engine,
                cell,
                pin_name,
                transition,
                config,
                policy,
            )
            for cell, pin_name, transition in _edges(cells)
        )
    fit_report = report if report is not None else FitReport()
    for cell in cells:
        with telemetry.span("characterize.cell", cell=cell.name):
            lib_cell = _characterize_cell(
                cell,
                config,
                payloads,
                report=fit_report,
                reporter=reporter,
                isolate_errors=isolate_errors,
            )
        library.cells[cell.name] = lib_cell
    return library


def _characterize_cell(
    cell: CellDefinition,
    config: CharacterizationConfig,
    payloads: Iterator[dict],
    *,
    report: FitReport,
    reporter: ProgressReporter,
    isolate_errors: bool,
) -> LibCell:
    """Assemble one Liberty cell from its edge payloads, serial order.

    ``payloads`` yields edge payloads in :func:`_edges` order, whether
    computed inline or loaded from a pool's checkpoint store; assembly
    order — and therefore report order and Liberty output — is the
    cell/pin iteration order either way.
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
        edges = {transition: next(payloads) for transition in _EDGES}
        arc = _fold_pin(
            cell.name,
            pin_name,
            edges,
            report,
            isolate_errors=isolate_errors,
        )
        if arc is None:
            entry = report.quarantined[-1]
            reporter.info(
                "quarantined %s (%s): %s",
                entry.arc,
                entry.stage,
                entry.error,
            )
            continue
        output.arcs.append(arc)
        reporter.info(
            "characterized %s/%s (%dx%d grid, %d samples)",
            cell.name,
            pin_name,
            *config.grid_shape,
            config.n_samples,
        )
    lib_cell.pins[output.name] = output
    return lib_cell
