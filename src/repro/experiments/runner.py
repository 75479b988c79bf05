"""Run-everything orchestration for the paper's evaluation section.

``run_all`` executes each experiment at the configured scale and
assembles a single text report mirroring the paper's §4 — this is what
``python -m repro bench`` prints and what EXPERIMENTS.md records.

Progress goes through the ``repro.progress`` logger (see
:mod:`repro.runtime.progress`), and the heaviest experiment — the
Table 2 library sweep — can resume a killed run from a per-arc
checkpoint store.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.clt_convergence import CLTResult, run_clt_convergence
from repro.experiments.fig3 import Fig3Result, run_fig3
from repro.experiments.fig4 import Fig4Result, run_fig4
from repro.experiments.fig5 import Fig5Result, run_fig5
from repro.experiments.fit_throughput import (
    FitThroughputResult,
    run_fit_throughput,
)
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Config, Table2Result, run_table2
from repro.experiments.yield_study import YieldStudyResult, run_yield_study
from repro.runtime import telemetry
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.progress import ProgressReporter

__all__ = ["ExperimentSuite", "run_all"]


@dataclass(frozen=True)
class ExperimentSuite:
    """Results of all paper experiments."""

    fig3: Fig3Result
    table1: Table1Result
    table2: Table2Result
    fig4: Fig4Result
    fig5: Fig5Result
    clt: CLTResult
    yield_est: YieldStudyResult
    fit_throughput: FitThroughputResult

    def to_text(self) -> str:
        sections = [
            self.fig3.to_text(),
            self.table1.to_text(),
            self.table2.to_text(),
            self.fig4.to_text(),
            self.fig5.to_text(),
            self.clt.to_text(),
            self.yield_est.to_text(),
            self.fit_throughput.to_text(),
        ]
        divider = "\n" + "=" * 72 + "\n"
        return divider.join(sections)


def run_all(
    *,
    scenario_samples: int = 50_000,
    table2_config: Table2Config | None = None,
    progress: bool = False,
    checkpoint: CheckpointStore | None = None,
    workers: int = 1,
    pool=None,
    fig4_samples: int | None = None,
    fig5_samples: int | None = None,
    clt_samples: int | None = None,
    yield_budgets: tuple[int, ...] | None = None,
    yield_repeats: int | None = None,
    fit_points: int | None = None,
    fit_samples: int | None = None,
) -> ExperimentSuite:
    """Execute every experiment of the paper's evaluation section.

    Args:
        scenario_samples: Sample count for the Fig. 3 scenarios.
        table2_config: Scale configuration for the library sweep.
        progress: Log per-experiment progress lines.
        checkpoint: Optional checkpoint store forwarded to the Table 2
            library sweep so a killed bench run resumes mid-sweep.
        workers: Worker-process count for the Table 2 library sweep —
            the only experiment heavy enough to pool; its result is
            byte-identical to a serial sweep.
        pool: Optional :class:`~repro.runtime.pool.PoolConfig`
            override forwarded to the Table 2 sweep.
        fig4_samples: Monte-Carlo population override for the Fig. 4
            accuracy map (None: the experiment's own scale).
        fig5_samples: Population override for the Fig. 5 paths.
        clt_samples: Population override for the CLT convergence
            table.
        yield_budgets: Budget-ladder override for the yield estimator
            study (None: the study's own scale).
        yield_repeats: Seeded-repeat override for the yield study.
        fit_points: Grid-point override for the fit-throughput
            comparison (None: the experiment's own scale).
        fit_samples: Per-point sample override for the
            fit-throughput comparison.
    """
    # The tag is ``experiment=...`` (not ``name=...``) because
    # ``telemetry.span(name, **tags)`` reserves ``name`` for the span
    # itself.
    reporter = ProgressReporter.from_flag(progress)
    reporter.info("fig3: scenario fits ...")
    with telemetry.span("experiment", experiment="fig3"):
        fig3 = run_fig3(scenario_samples)
    reporter.info("table1: scenario binning ...")
    with telemetry.span("experiment", experiment="table1"):
        table1 = run_table1(scenario_samples)
    reporter.info("table2: library assessment ...")
    with telemetry.span("experiment", experiment="table2"):
        table2 = run_table2(
            table2_config,
            progress=progress,
            checkpoint=checkpoint,
            workers=workers,
            pool=pool,
        )
    reporter.info("fig4: accuracy pattern ...")
    with telemetry.span("experiment", experiment="fig4"):
        fig4 = run_fig4(n_samples=fig4_samples)
    reporter.info("fig5: path propagation ...")
    with telemetry.span("experiment", experiment="fig5"):
        fig5 = run_fig5(n_samples=fig5_samples)
    reporter.info("clt: convergence ...")
    with telemetry.span("experiment", experiment="clt"):
        clt = (
            run_clt_convergence()
            if clt_samples is None
            else run_clt_convergence(n_samples=clt_samples)
        )
    reporter.info("yield_est: estimator accuracy vs budget ...")
    yield_kwargs: dict = {"fit_samples": scenario_samples}
    if yield_budgets is not None:
        yield_kwargs["budgets"] = tuple(yield_budgets)
    if yield_repeats is not None:
        yield_kwargs["repeats"] = yield_repeats
    with telemetry.span("experiment", experiment="yield_est"):
        yield_est = run_yield_study(**yield_kwargs)
    reporter.info("fit_throughput: stacked batch vs per-point EM ...")
    # No outer span: the experiment opens its own ``fit_serial`` /
    # ``fit_batch`` spans so the perf gate can compare the two sides.
    fit_kwargs: dict = {}
    if fit_points is not None:
        fit_kwargs["n_points"] = fit_points
    if fit_samples is not None:
        fit_kwargs["n_samples"] = fit_samples
    fit_throughput = run_fit_throughput(**fit_kwargs)
    return ExperimentSuite(
        fig3=fig3,
        table1=table1,
        table2=table2,
        fig4=fig4,
        fig5=fig5,
        clt=clt,
        yield_est=yield_est,
        fit_throughput=fit_throughput,
    )
