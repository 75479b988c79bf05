"""The three perfbench workloads, driven through repro's public API.

Each workload has the same shape:

- ``build(seed)`` constructs the engine and inputs and warms them up
  (timed, repeated, as set-up);
- ``prepare(state, scratch, pool_trace)`` does untimed preparation that
  belongs to set-up (only ``lib_resume`` has any: the cold pass that
  populates the checkpoint directory); it returns its wall time;
- ``unit(state, u, ...)`` runs one unit of timed work and returns a
  :class:`UnitResult`; the run repeats units until ``--seconds`` pass
  and at least ``min_units`` units are done;
- ``quality(state, fixed)`` scores the output of the run's first
  ``min_units`` units against their golden Monte-Carlo samples
  (untimed; fixed for a given seed).

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import Layers, SignOff, Tally, sign_off, unit_seed
from repro.binning.metrics import binning_error, cdf_rmse, error_reduction
from repro.circuits.cells import CELL_TYPES, build_cell
from repro.circuits.characterize import (
    CharacterizationConfig,
    characterize_arc,
    characterize_library,
    simulate_condition,
)
from repro.circuits.gate import GateTimingEngine
from repro.circuits.process import TT_GLOBAL_LOCAL_MC
from repro.experiments.table2 import Table2Config
from repro.liberty import (
    Library,
    LVF2Tables,
    Pin,
    Severity,
    Table,
    TimingArc,
    read_library,
    validate_library,
    write_liberty,
)
from repro.liberty.library import Cell as LibCell
from repro.models.lvf import LVFModel
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.policy import FitPolicy
from repro.runtime.pool import PoolConfig
from repro.runtime.report import FitContext, FitReport
from repro.ssta.fo4 import fo4_delay
from repro.ssta.paths import (
    build_carry_adder_path,
    build_htree_path,
    simulate_path_stages,
)
from repro.ssta.propagate import propagate_path
from repro.stats.empirical import EmpiricalDistribution


@dataclass
class UnitResult:
    """What one unit of timed work produced."""

    items: int
    chain_s: float
    report: FitReport
    liberty_bytes: int = 0
    path_samples: int = 0
    fits: int = 0
    rel_errors: list[float] = field(default_factory=list)
    golden: object = None


def _engine() -> GateTimingEngine:
    return GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)


def _warm_up(engine: GateTimingEngine, cell) -> None:
    """Exercise MC, the fit ladder and Liberty once at toy size."""
    config = CharacterizationConfig(
        slews=CharacterizationConfig().slews[:1],
        loads=CharacterizationConfig().loads[:1],
        n_samples=256,
        seed=0,
    )
    pin = cell.inputs[0]
    char = characterize_arc(engine, cell, pin, "fall", config)
    list(FitPolicy().fit_batch_iter([char.samples("delay", 0, 0)]))
    write_liberty(Library(name="warm_up").to_group())


def _diagnostic_errors(library) -> list[str]:
    return [
        str(d) for d in validate_library(library)
        if d.severity is Severity.ERROR
    ]


def _close(read: float, expected: float, scale: float) -> bool:
    """Equal to Liberty writer precision (6 significant digits)."""
    return abs(read - expected) <= 1e-5 * scale + 1e-15


def _matches_fit(read, fitted, nominal: float) -> bool:
    """Read-back LVF2 parameters equal the fitted ones to writer precision."""
    first, got = fitted.component1, read.component1
    if not (
        _close(got.mu, first.mu, abs(nominal) + abs(first.mu - nominal))
        and _close(got.sigma, first.sigma, first.sigma)
        and _close(got.gamma, first.gamma, abs(first.gamma))
    ):
        return False
    weight = 0.0 if fitted.is_collapsed else fitted.weight
    if not _close(read.weight, weight, weight):
        return False
    if weight == 0.0:
        return True
    second, got = fitted.component2, read.component2
    return (
        _close(got.mu, second.mu, abs(nominal) + abs(second.mu - nominal))
        and _close(got.sigma, second.sigma, second.sigma)
        and _close(got.gamma, second.gamma, abs(second.gamma))
    )


def _gains(pairs) -> tuple[float, float]:
    """LVF2-over-LVF CDF-RMSE and binning-error reductions.

    ``pairs`` yields ``(lvf2, lvf, golden samples)`` per grid point.
    Each gain is the geometric mean over the points.  A point's
    reduction moves with the sampling noise of its small LVF2 error:
    over ten seeds of ``char_arc`` the median of the 64 binning
    reductions spread by 0.23 (quartile distance over median), their
    geometric mean by 0.11.
    """
    rmse, binning = [], []
    for lvf2, lvf, samples in pairs:
        golden = EmpiricalDistribution(samples)
        rmse.append(
            error_reduction(cdf_rmse(lvf, golden), cdf_rmse(lvf2, golden))
        )
        binning.append(
            error_reduction(
                binning_error(lvf, golden), binning_error(lvf2, golden)
            )
        )
    return _geometric_mean(rmse), _geometric_mean(binning)


def _geometric_mean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


# ----------------------------------------------------------------------
# char_arc
# ----------------------------------------------------------------------
#: Quantity grids of the NAND2 A arc, in the order units cover them:
#: (Liberty base, output edge, characterised quantity).
CHAR_GRIDS = (
    ("cell_fall", "fall", "delay"),
    ("cell_rise", "rise", "delay"),
    ("fall_transition", "fall", "transition"),
    ("rise_transition", "rise", "transition"),
)
CHAR_SAMPLES = 2000


class CharArc:
    """NAND2 arc A on the 8x8 grid, 2000 LHS samples per point.

    One unit is one quantity grid (64 points) of the arc: MC of the
    edge, the batched FitPolicy ladder over the grid, the LVF2 tables,
    Liberty text, and the text parsed back and validated.
    """

    name = "char_arc"
    min_units = 1
    #: Mean-shift ``is`` goes blind on some cell mixtures at 4.5 sigma
    #: (a small-weight wide component owns the far tail), so cell
    #: models are signed off with ``adaptive-is`` only.
    sign_off_plan = (("adaptive-is", (3.5, 4.0, 4.5)),)
    sign_off_repeats = 2

    def build(self, seed: int) -> dict:
        engine = _engine()
        cell = build_cell("NAND2")
        _warm_up(engine, cell)
        return {"engine": engine, "cell": cell, "seed": seed}

    def prepare(self, state, scratch: Path, pool_trace) -> float:
        return 0.0

    def unit(self, state, u: int, layers: Layers, tally: Tally,
             sign: SignOff, pool_trace=None) -> UnitResult:
        engine, cell = state["engine"], state["cell"]
        base, edge, quantity = CHAR_GRIDS[u % len(CHAR_GRIDS)]
        config = CharacterizationConfig(
            n_samples=CHAR_SAMPLES, seed=unit_seed(state["seed"], u)
        )
        rows, cols = config.grid_shape
        indices = [(i, j) for i in range(rows) for j in range(cols)]
        started = time.perf_counter()
        with layers.span("circuits"):
            char = characterize_arc(engine, cell, "A", edge, config)
        contexts = [
            FitContext(cell.name, "A", edge, quantity, i, j)
            for i, j in indices
        ]
        samples = [char.samples(quantity, i, j) for i, j in indices]
        report = FitReport()
        models = np.empty((rows, cols), dtype=object)
        with layers.span("models"):
            outcomes = FitPolicy().fit_batch_iter(samples, contexts)
            for (i, j), context, outcome in zip(indices, contexts, outcomes):
                report.record_fit(context, outcome)
                models[i, j] = outcome.model
        with layers.span("liberty"):
            template = config.template()
            nominal_grid = (
                char.nominal_delay
                if quantity == "delay"
                else char.nominal_transition
            )
            nominal = Table(
                template.name, config.slews, config.loads, nominal_grid
            )
            arc = TimingArc(related_pin="A", timing_sense="negative_unate")
            arc.tables[base] = LVF2Tables.from_models(base, nominal, models)
            text = write_liberty(
                _single_arc_library(cell, arc, template).to_group()
            )
            parsed = read_library(text)
            errors = _diagnostic_errors(parsed)
        chain_s = time.perf_counter() - started

        read_tables = parsed.cell(cell.name).pins[cell.output].arc_to(
            "A"
        ).tables[base]
        read_models = [read_tables.lvf2_at(i, j) for i, j in indices]
        mismatched = sum(
            not _matches_fit(read, models[i, j], nominal_grid[i, j])
            for read, (i, j) in zip(read_models, indices)
        )
        if errors:
            tally.problem(f"{base}: validate_library errors {errors[:3]}")
        if mismatched:
            tally.problem(f"{base}: {mismatched} points read back wrong")
        tally.add(len(indices), len(indices) if errors else mismatched)
        before = len(sign.rel_errors)
        sign_off(read_models, unit_seed(state["seed"], u), layers, tally,
                 sign, self.sign_off_plan, self.sign_off_repeats)
        return UnitResult(
            items=len(indices),
            chain_s=chain_s,
            report=report,
            liberty_bytes=len(text),
            fits=len(indices),
            rel_errors=sign.rel_errors[before:],
            golden=(read_tables, indices, samples),
        )

    def quality(self, state, fixed) -> tuple[float, float]:
        tables, indices, samples = fixed[0].golden
        return _gains(
            (tables.lvf2_at(i, j), tables.lvf.lvf_at(i, j), data)
            for (i, j), data in zip(indices, samples)
        )


def _single_arc_library(cell, arc: TimingArc, template) -> Library:
    """A one-cell library carrying ``arc`` on the cell's output pin."""
    lib_cell = LibCell(name=cell.name, area=1.0 + cell.drive)
    for pin_name in cell.inputs:
        lib_cell.pins[pin_name] = Pin(
            name=pin_name,
            direction="input",
            capacitance=cell.input_capacitance(pin_name),
        )
    output = Pin(name=cell.output, direction="output", function=cell.function)
    output.arcs.append(arc)
    lib_cell.pins[output.name] = output
    return Library(
        name="perfbench_char_arc",
        attributes={"delay_model": "table_lookup", "time_unit": "1ns"},
        templates={template.name: template},
        cells={cell.name: lib_cell},
    )


# ----------------------------------------------------------------------
# path_yield
# ----------------------------------------------------------------------
PATH_SAMPLES = 500
#: Draws of a unit's input before the run gives up, and the seed step
#: between draws (past any unit index of a run).
MAX_DRAWS = 4
REDRAW_STRIDE = 1_000_000


class PathYield:
    """The Fig. 5 paths at 500 samples per stage, then far-tail yield.

    One unit: both paths simulated, propagated for all four models, and
    an LVF2 fit of each path-end golden set; the sign-off then runs
    ``is`` at 3.5 sigma and ``adaptive-is`` at 3.5/4/4.5 sigma, 20 seeds
    each.
    """

    name = "path_yield"
    min_units = 3
    #: Over 48 path-end models at budget 4096, ``is`` returned 0 in 9 of
    #: 4800 estimates at 4 sigma and in none of 4800 at 3.5 sigma.
    sign_off_plan = (
        ("is", (3.5,)),
        ("adaptive-is", (3.5, 4.0, 4.5)),
    )
    sign_off_repeats = 20

    def build(self, seed: int) -> dict:
        engine = _engine()
        _warm_up(engine, build_cell("BUFF"))
        return {
            "engine": engine,
            "fo4": fo4_delay(engine),
            "paths": (
                ("adder", build_carry_adder_path(16)),
                ("htree", build_htree_path(6)),
            ),
            "seed": seed,
            "redrawn_inputs": 0,
        }

    def prepare(self, state, scratch: Path, pool_trace) -> float:
        return 0.0

    def unit(self, state, u: int, layers: Layers, tally: Tally,
             sign: SignOff, pool_trace=None) -> UnitResult:
        # A serial LVF2 stage fit inside propagate_path can divide by
        # zero in weighted_moments (a component whose weighted spread is
        # 0); it did on one of about 70 units.  Such an input is drawn
        # again from the next seed and counted, not timed.
        for draw in range(MAX_DRAWS):
            seed = unit_seed(state["seed"], u) + REDRAW_STRIDE * draw
            started = time.perf_counter()
            try:
                report, path_models, golden = self._chain(state, seed, layers)
            except ZeroDivisionError:
                state["redrawn_inputs"] += 1
                continue
            chain_s = time.perf_counter() - started
            break
        else:
            raise RuntimeError(
                f"unit {u}: propagate_path failed on {MAX_DRAWS} inputs"
            )
        items = samples_drawn = 0
        for (name, _), (result, simulations) in zip(state["paths"], golden):
            items += len(simulations) * len(result.binning_errors)
            samples_drawn += len(simulations) * PATH_SAMPLES
            scores = np.array(
                [list(errors) for errors in result.binning_errors.values()]
            )
            if not np.all(np.isfinite(scores)):
                tally.problem(f"{name}: non-finite binning errors")
                tally.add(scores.size, int(np.sum(~np.isfinite(scores))))
            else:
                tally.add(scores.size)
        before = len(sign.rel_errors)
        sign_off(path_models, seed, layers, tally, sign,
                 self.sign_off_plan, self.sign_off_repeats)
        return UnitResult(
            items=items,
            chain_s=chain_s,
            report=report,
            path_samples=samples_drawn,
            fits=len(path_models),
            rel_errors=sign.rel_errors[before:],
            golden=golden,
        )

    def _chain(self, state, seed: int, layers: Layers):
        """Both paths simulated, propagated and fitted at the path end."""
        report = FitReport()
        path_models, golden = [], []
        for name, stages in state["paths"]:
            with layers.span("circuits"):
                simulations = simulate_path_stages(
                    state["engine"], stages, PATH_SAMPLES, seed=seed
                )
            with layers.span("ssta"):
                result = propagate_path(simulations, fo4=state["fo4"])
            end = np.zeros_like(simulations[0].delay)
            for simulation in simulations:
                end = end + simulation.delay
            context = FitContext(name, "path", "end")
            with layers.span("models"):
                outcome = FitPolicy().fit(end, context=context)
            report.record_fit(context, outcome)
            path_models.append(outcome.model)
            golden.append((result, simulations))
        return report, path_models, golden

    def quality(self, state, fixed) -> tuple[float, float]:
        """CDF-RMSE gain over every stage; binning gain at the path ends.

        A path end is near-Gaussian, so its CDF-RMSE ratio is mostly
        sampling noise; the gain over the 28 stage fits of each unit
        is not.  Both gains pool the ``min_units`` units: the median
        over 28 stages of one unit spread by 0.2 over ten seeds.
        """
        golden = [path for unit in fixed for path in unit.golden]
        delays = [
            simulation.delay
            for _, simulations in golden
            for simulation in simulations
        ]
        stage_fits = FitPolicy().fit_batch_iter(delays)
        cdf_gain, _ = _gains(
            (outcome.model, LVFModel.fit(delay), delay)
            for outcome, delay in zip(stage_fits, delays)
        )
        binning = [result.final_reduction("LVF2") for result, _ in golden]
        return cdf_gain, float(np.mean(binning))


# ----------------------------------------------------------------------
# lib_resume
# ----------------------------------------------------------------------
LIB_CELLS = 8
LIB_SAMPLES = 500
LIB_WORKERS = 2


class LibResume:
    """Resume an 8-cell Table 2 library from a populated checkpoint dir.

    Set-up ends with the cold pass (``characterize_library`` with two
    pool workers into a fresh checkpoint directory).  One unit is a
    resumed pass over that directory plus its Liberty text written,
    parsed and validated; the text must equal the cold pass's byte for
    byte.
    """

    name = "lib_resume"
    #: A resumed pass is ~1.3 s; eight of them span several of the
    #: box's speed states.
    min_units = 8
    sign_off_plan = CharArc.sign_off_plan
    sign_off_repeats = 2

    def build(self, seed: int) -> dict:
        engine = _engine()
        cells = [build_cell(kind) for kind in list(CELL_TYPES)[:LIB_CELLS]]
        _warm_up(engine, cells[0])
        grid = Table2Config()
        config = CharacterizationConfig(
            slews=grid.slews, loads=grid.loads, n_samples=LIB_SAMPLES,
            seed=seed,
        )
        return {"engine": engine, "cells": cells, "config": config,
                "seed": seed}

    def _characterize(self, state, report: FitReport, pool_trace,
                      label: str):
        pool = None
        if pool_trace is not None:
            pool = PoolConfig(
                n_workers=LIB_WORKERS,
                seed=state["config"].seed,
                run_id=label,
                trace_dir=str(pool_trace),
            )
        return characterize_library(
            state["engine"],
            state["cells"],
            state["config"],
            checkpoint=CheckpointStore(state["store"]),
            policy=FitPolicy(),
            report=report,
            isolate_errors=True,
            workers=LIB_WORKERS,
            pool=pool,
        )

    def prepare(self, state, scratch: Path, pool_trace) -> float:
        state["store"] = scratch / "checkpoints"
        started = time.perf_counter()
        report = FitReport()
        library = self._characterize(state, report, pool_trace, "cold")
        state["cold_text"] = write_liberty(library.to_group())
        state["cold_report"] = report
        return time.perf_counter() - started

    def unit(self, state, u: int, layers: Layers, tally: Tally,
             sign: SignOff, pool_trace=None) -> UnitResult:
        report = FitReport()
        started = time.perf_counter()
        with layers.span("pool"):
            library = self._characterize(
                state, report, pool_trace, f"resume{u}"
            )
        with layers.span("liberty"):
            text = write_liberty(library.to_group())
            parsed = read_library(text)
            errors = _diagnostic_errors(parsed)
        chain_s = time.perf_counter() - started

        config = state["config"]
        points = len(config.slews) * len(config.loads)
        items = sum(len(cell.inputs) for cell in state["cells"]) * 2 * points
        quarantined = len(report.quarantined) * 2 * points
        if text != state["cold_text"]:
            tally.problem("resumed Liberty text differs from the cold pass")
            tally.add(items, items)
        elif errors:
            tally.problem(f"validate_library errors {errors[:3]}")
            tally.add(items, items)
        else:
            tally.add(items, quarantined)
        if quarantined:
            tally.problem(f"{len(report.quarantined)} arcs quarantined")
        golden = None
        rel_errors: list[float] = []
        if u == 0:
            golden = self._fall_models(state, parsed)
            before = len(sign.rel_errors)
            sign_off([lvf2 for lvf2, _, _ in golden], state["seed"], layers,
                     tally, sign, self.sign_off_plan, self.sign_off_repeats)
            rel_errors = sign.rel_errors[before:]
        return UnitResult(
            items=items,
            chain_s=chain_s,
            report=report,
            liberty_bytes=len(text),
            rel_errors=rel_errors,
            golden=golden,
        )

    def _fall_models(self, state, parsed):
        """(LVF2, LVF, grid point) of every read-back cell_fall point."""
        config = state["config"]
        found = []
        for cell in state["cells"]:
            output = parsed.cell(cell.name).pins[cell.output]
            for arc in output.arcs:
                tables = arc.tables["cell_fall"]
                for i in range(len(config.slews)):
                    for j in range(len(config.loads)):
                        found.append(
                            (
                                tables.lvf2_at(i, j),
                                tables.lvf.lvf_at(i, j),
                                (cell, arc.related_pin, i, j),
                            )
                        )
        return found

    def quality(self, state, fixed) -> tuple[float, float]:
        """Gains of the first pass against golden samples, re-simulated.

        Per-condition seeds make :func:`simulate_condition` return
        exactly the samples the pool workers fitted.
        """
        engine, config = state["engine"], state["config"]

        def pairs():
            for lvf2, lvf, (cell, pin, i, j) in fixed[0].golden:
                delay = simulate_condition(
                    engine, cell.arc(pin, "fall"), cell.name, pin, "fall",
                    config, i, j,
                )[0]
                yield lvf2, lvf, delay

        return _gains(pairs())


WORKLOADS = {w.name: w for w in (CharArc(), PathYield(), LibResume())}
