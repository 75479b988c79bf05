"""Table 2: standard-cell library assessment among models.

For every cell type: Monte-Carlo characterise each arc over the
slew-load grid, fit all four models to every delay and transition
distribution, and average the binning / 3σ-yield error reductions per
cell type — the exact structure of the paper's Table 2, including the
"Overall" row that yields the abstract's headline numbers
(LVF2: 7.74x / 9.56x binning, 4.79x / 7.18x yield in the paper).

Scale is configurable: the default configuration shrinks the grid,
sample count and drive list so the full 25-type table regenerates in
CI time; set ``REPRO_PAPER=1`` (or pass a custom config) for the
paper-scale 8x8 x 50k run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.binning.bins import sigma_binning
from repro.binning.metrics import (
    binning_error,
    error_reduction,
    yield_error,
)
from repro.circuits.cells import CELL_TYPES, build_cell
from repro.circuits.characterize import (
    PAPER_LOADS,
    PAPER_SLEWS,
    CharacterizationConfig,
    arc_checkpoint_token,
    characterize_arc,
)
from repro.circuits.gate import GateTimingEngine
from repro.circuits.process import TT_GLOBAL_LOCAL_MC
from repro.experiments.common import (
    PAPER_MODELS,
    fit_paper_models,
    format_table,
    paper_scale,
)
from repro.models import TimingModel
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.pool.scheduler import WorkItem
from repro.runtime.progress import ProgressReporter
from repro.stats.em import EMConfig
from repro.stats.empirical import EmpiricalDistribution

__all__ = [
    "Table2Config",
    "Table2Row",
    "Table2Result",
    "run_table2",
    "table2_score_token",
    "table2_work_items",
    "PAPER_TABLE2_OVERALL",
]

#: The paper's "Overall" row (error reductions, x).
PAPER_TABLE2_OVERALL = {
    "delay_binning": {"LVF2": 7.74, "Norm2": 3.83, "LESN": 4.54},
    "transition_binning": {"LVF2": 9.56, "Norm2": 3.96, "LESN": 5.55},
    "delay_yield": {"LVF2": 4.79, "Norm2": 4.19, "LESN": 4.05},
    "transition_yield": {"LVF2": 7.18, "Norm2": 5.44, "LESN": 6.34},
}

_METRICS = (
    "delay_binning",
    "transition_binning",
    "delay_yield",
    "transition_yield",
)


@dataclass(frozen=True)
class Table2Config:
    """Scale knobs for the library assessment.

    Attributes:
        cell_types: Cell types to characterise (default: all 25).
        drives: Drive strengths per type.
        n_samples: Monte-Carlo population per condition.
        slews: Input-slew breakpoints.
        loads: Output-load breakpoints.
        max_arcs_per_cell: Cap on (input x transition) arcs per cell;
            0 means all.
        seed: Base RNG seed.
    """

    cell_types: tuple[str, ...] = tuple(CELL_TYPES)
    drives: tuple[float, ...] = (1.0,)
    n_samples: int = 4000
    slews: tuple[float, ...] = (PAPER_SLEWS[1], PAPER_SLEWS[4])
    loads: tuple[float, ...] = (PAPER_LOADS[2], PAPER_LOADS[5])
    max_arcs_per_cell: int = 2
    seed: int = 2024

    @classmethod
    def paper(cls) -> "Table2Config":
        """Full paper-scale configuration (8x8 grid, 50k samples)."""
        return cls(
            drives=(1.0, 2.0),
            n_samples=50_000,
            slews=PAPER_SLEWS,
            loads=PAPER_LOADS,
            max_arcs_per_cell=0,
        )

    @classmethod
    def smoke(cls) -> "Table2Config":
        """Sub-minute scale for perf gating (``repro bench --smoke``)."""
        return cls(
            cell_types=tuple(list(CELL_TYPES)[:4]),
            n_samples=500,
            max_arcs_per_cell=1,
        )

    @classmethod
    def auto(cls) -> "Table2Config":
        """Paper scale when ``REPRO_PAPER=1``, CI scale otherwise."""
        return cls.paper() if paper_scale() else cls()


@dataclass
class Table2Row:
    """Accumulated error reductions for one cell type."""

    cell_type: str
    n_arcs: int = 0
    #: metric -> model -> list of per-distribution reductions.
    reductions: dict[str, dict[str, list[float]]] = field(
        default_factory=lambda: {
            metric: {model: [] for model in PAPER_MODELS}
            for metric in _METRICS
        }
    )

    def mean_reduction(self, metric: str, model: str) -> float:
        values = self.reductions[metric][model]
        if not values:
            return float("nan")
        return float(np.mean(values))


@dataclass(frozen=True)
class Table2Result:
    """The full Table 2: per-type rows plus the overall average."""

    rows: dict[str, Table2Row]
    config: Table2Config

    def overall(self, metric: str, model: str) -> float:
        """Average reduction over all per-type means (paper's last row)."""
        values = [
            row.mean_reduction(metric, model)
            for row in self.rows.values()
            if row.n_arcs > 0
        ]
        if np.all(np.isnan(values)):
            # No row scored this cell (``nanmean`` would warn).
            return float("nan")
        return float(np.nanmean(values))

    def headline(self) -> dict[str, dict[str, float]]:
        """The four Overall numbers per model (abstract's headline)."""
        return {
            metric: {
                model: self.overall(metric, model)
                for model in PAPER_MODELS
            }
            for metric in _METRICS
        }

    def to_text(self) -> str:
        headers = ["Cell", "Arcs"]
        for metric in _METRICS:
            short = metric.replace("transition", "tran").replace(
                "delay", "dly"
            )
            headers.extend(f"{short}:{m}" for m in ("LVF2", "Norm2", "LESN"))
        rows = []
        for name, row in self.rows.items():
            cells: list[object] = [name, row.n_arcs]
            for metric in _METRICS:
                for model in ("LVF2", "Norm2", "LESN"):
                    cells.append(row.mean_reduction(metric, model))
            rows.append(cells)
        overall: list[object] = ["Overall", sum(r.n_arcs for r in self.rows.values())]
        for metric in _METRICS:
            for model in ("LVF2", "Norm2", "LESN"):
                overall.append(self.overall(metric, model))
        rows.append(overall)
        return format_table(
            headers,
            rows,
            title=(
                "Table 2 — library assessment, error reduction (x) "
                "vs LVF (binning and 3-sigma yield)"
            ),
        )


def _arc_list(cell, cap: int) -> list[tuple[str, str]]:
    arcs = [
        (pin, transition)
        for pin in cell.inputs
        for transition in ("rise", "fall")
    ]
    if cap > 0:
        arcs = arcs[:cap]
    return arcs


def table2_score_token(
    engine: GateTimingEngine,
    cell,
    pin: str,
    transition: str,
    char_config: CharacterizationConfig,
) -> str:
    """Content token of one arc's scored reductions payload.

    Derived from the arc's Monte-Carlo token (so any knob that changes
    a sample changes the key), the default EM configuration the fits
    run with, and a metrics version tag guarding the scoring recipe
    itself.
    """
    mc_token = arc_checkpoint_token(
        engine, cell, pin, transition, char_config
    )
    return f"table2-score|{mc_token}|{EMConfig()!r}|metrics-v1"


def _score_arc_task(
    store: CheckpointStore | None,
    engine: GateTimingEngine,
    cell,
    pin: str,
    transition: str,
    char_config: CharacterizationConfig,
) -> dict:
    """Characterise and score one arc; serial and pool share this path.

    Top-level so it pickles under spawn.  Returns
    ``{"reductions": metric -> model -> [values]}`` accumulated in the
    deterministic condition order of the serial loop.
    """
    characterization = characterize_arc(
        engine, cell, pin, transition, char_config, checkpoint=store
    )
    conditions = [
        (quantity, characterization.samples(quantity, i, j))
        for quantity in ("delay", "transition")
        for i in range(len(char_config.slews))
        for j in range(len(char_config.loads))
    ]
    stack = np.stack([samples for _, samples in conditions])
    scratch = Table2Row(cell_type=cell.name)
    for (quantity, samples), models in zip(
        conditions, fit_paper_models(stack)
    ):
        _score_condition(scratch, quantity, samples, models)
    return {"reductions": scratch.reductions}


def table2_work_items(
    engine: GateTimingEngine,
    cfg: Table2Config,
    char_config: CharacterizationConfig,
) -> tuple[WorkItem, ...]:
    """Pool work items for Table 2: one per scored arc edge, in the
    serial order :func:`run_table2` assembles them."""
    items = []
    for cell_type in cfg.cell_types:
        for drive in cfg.drives:
            cell = build_cell(cell_type, drive)
            for pin, transition in _arc_list(
                cell, cfg.max_arcs_per_cell
            ):
                mc_token = arc_checkpoint_token(
                    engine, cell, pin, transition, char_config
                )
                items.append(
                    WorkItem(
                        token=table2_score_token(
                            engine, cell, pin, transition, char_config
                        ),
                        label=f"{cell.name}/{pin}/{transition}",
                        task=_score_arc_task,
                        args=(
                            engine,
                            cell,
                            pin,
                            transition,
                            char_config,
                        ),
                        companions=(mc_token,),
                    )
                )
    return tuple(items)


def run_table2(
    config: Table2Config | None = None,
    *,
    engine: GateTimingEngine | None = None,
    progress: bool = False,
    checkpoint: CheckpointStore | None = None,
    workers: int = 1,
    pool=None,
) -> Table2Result:
    """Regenerate Table 2.

    Args:
        config: Scale configuration (:meth:`Table2Config.auto` default).
        engine: Timing engine; defaults to the TTGlobal_LocalMC corner.
        progress: Log one line per cell type as it completes (via the
            ``repro.progress`` logger).
        checkpoint: Optional per-arc checkpoint store; a killed run
            resumes from the last completed arc's Monte-Carlo samples.
        workers: When > 1, characterise and score arcs across that
            many worker processes over a shared checkpoint directory
            (a temporary one when ``checkpoint`` is None); the result
            is identical to a serial run because scored payloads are
            content-addressed and assembled in serial arc order.
        pool: Optional :class:`~repro.runtime.pool.PoolConfig`
            override (implies parallel even when ``workers`` is 1).
    """
    reporter = ProgressReporter.from_flag(progress)
    cfg = config or Table2Config.auto()
    sim = engine or GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)
    char_config = CharacterizationConfig(
        slews=cfg.slews,
        loads=cfg.loads,
        n_samples=cfg.n_samples,
        seed=cfg.seed,
    )
    pooled = None
    if workers > 1 or pool is not None:
        from repro.runtime.pool.pool import PoolConfig, pool_payloads

        pooled = iter(
            pool_payloads(
                table2_work_items(sim, cfg, char_config),
                checkpoint,
                pool or PoolConfig(n_workers=workers, seed=cfg.seed),
            )
        )
    rows: dict[str, Table2Row] = {}
    for cell_type in cfg.cell_types:
        row = Table2Row(cell_type=cell_type)
        for drive in cfg.drives:
            cell = build_cell(cell_type, drive)
            for pin, transition in _arc_list(
                cell, cfg.max_arcs_per_cell
            ):
                payload = (
                    next(pooled)
                    if pooled is not None
                    else _serial_score(
                        checkpoint, sim, cell, pin, transition, char_config
                    )
                )
                row.n_arcs += 1
                for metric, models in row.reductions.items():
                    for model in models:
                        models[model].extend(
                            payload["reductions"][metric][model]
                        )
        rows[cell_type] = row
        reporter.info(
            "%-6s arcs=%3d dly_bin LVF2=%.2f",
            cell_type,
            row.n_arcs,
            row.mean_reduction("delay_binning", "LVF2"),
        )
    return Table2Result(rows=rows, config=cfg)


def _serial_score(
    checkpoint: CheckpointStore | None,
    engine: GateTimingEngine,
    cell,
    pin: str,
    transition: str,
    char_config: CharacterizationConfig,
) -> dict:
    """One arc's scored payload, computed inline.

    Serial runs resume scored payloads a previous pool run left in a
    reuse-mode store; they never write them, so serial write
    behaviour is unchanged.
    """
    if checkpoint is not None and checkpoint.reuse:
        payload = checkpoint.load(
            table2_score_token(engine, cell, pin, transition, char_config)
        )
        if payload is not None:
            return payload
    return _score_arc_task(
        checkpoint, engine, cell, pin, transition, char_config
    )


def _score_condition(
    row: Table2Row,
    metric_prefix: str,
    samples: np.ndarray,
    models: dict[str, TimingModel],
) -> None:
    """Score one distribution's fitted models and record reductions."""
    golden = EmpiricalDistribution(samples)
    summary = golden.moments()
    scheme = sigma_binning(summary)
    binning_errors = {
        name: binning_error(model, golden, scheme)
        for name, model in models.items()
    }
    # The 3-sigma yield is only a meaningful score when the golden
    # sample actually resolves the tail: with a short-tailed (e.g.
    # strongly bimodal) distribution, mu + 3 sigma can lie beyond
    # every sample, making every model's error 0/0.  Such saturated
    # conditions are skipped for the yield metric (binning still
    # scores — the bins resolve the bulk).
    tail_count = int(np.sum(samples > summary.sigma_point(3.0)))
    score_yield = tail_count >= 5
    if score_yield:
        yield_errors = {
            name: yield_error(model, golden)
            for name, model in models.items()
        }
    # A model whose error falls below the golden sampling resolution
    # (1/n in probability) yields an effectively infinite ratio; cap
    # each recorded reduction at the largest *resolvable* ratio,
    # baseline_error / (1/n), so per-type averages stay meaningful.
    n = float(samples.size)
    binning_cap = max(1.0, binning_errors["LVF"] * n)
    for name in PAPER_MODELS:
        row.reductions[f"{metric_prefix}_binning"][name].append(
            min(
                error_reduction(
                    binning_errors["LVF"], binning_errors[name]
                ),
                binning_cap,
            )
        )
        if score_yield:
            yield_cap = max(1.0, yield_errors["LVF"] * n)
            row.reductions[f"{metric_prefix}_yield"][name].append(
                min(
                    error_reduction(
                        yield_errors["LVF"], yield_errors[name]
                    ),
                    yield_cap,
                )
            )
