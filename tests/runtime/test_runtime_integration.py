"""Acceptance tests for the fault-tolerant runtime layer.

Covers the two ISSUE acceptance criteria end to end:

- kill-and-resume: a characterisation run interrupted by an injected
  mid-run kill resumes from its checkpoints, produces a byte-identical
  Liberty library, and does not re-simulate completed arcs;
- fault isolation: with forced EM failures on selected arc-conditions
  the library still characterises, and the FitReport names exactly the
  degraded arc-conditions and the rung each one landed on.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.circuits.cells import build_cell
from repro.circuits.characterize import (
    CharacterizationConfig,
    characterize_arc,
    characterize_library,
)
from repro.circuits.gate import GateTimingEngine
from repro.circuits.process import TT_GLOBAL_LOCAL_MC
from repro.errors import FittingError
from repro.liberty.library import read_library
from repro.runtime import (
    CheckpointStore,
    FaultPlan,
    FaultRule,
    FitPolicy,
    FitReport,
    InjectedKill,
    inject,
)
from repro.runtime.pool import PoolConfig

#: Every ladder rung, placeholder included: a matching fit must fail.
ALL_RUNGS = (
    "LVF2",
    "LVF2-reseed",
    "Norm2",
    "LVF",
    "Gaussian",
    "degenerate",
)


class CountingEngine:
    """Engine proxy counting Monte-Carlo simulations."""

    def __init__(self, engine: GateTimingEngine) -> None:
        self._engine = engine
        self.calls = 0

    def simulate_arc(self, *args, **kwargs):
        self.calls += 1
        return self._engine.simulate_arc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._engine, name)


@pytest.fixture(scope="module")
def base_engine() -> GateTimingEngine:
    return GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)


@pytest.fixture(scope="module")
def config() -> CharacterizationConfig:
    return CharacterizationConfig(
        slews=(0.005, 0.02),
        loads=(0.002, 0.02),
        n_samples=400,
        seed=7,
    )


@pytest.fixture
def cells():
    return [build_cell("INV"), build_cell("NAND2")]


class TestKillAndResume:
    def test_resume_is_byte_identical_and_skips_completed_arcs(
        self, tmp_path, base_engine, config, cells
    ):
        # Uninterrupted reference run (no checkpointing at all).
        reference = characterize_library(
            base_engine, cells, config
        ).to_text()

        # Run 1: killed after 2 of the 6 arcs (INV has 2, NAND2 has 4).
        store = CheckpointStore(tmp_path / "ckpt")
        engine1 = CountingEngine(base_engine)
        with inject(FaultPlan([FaultRule("kill", after_arcs=2)])):
            with pytest.raises(InjectedKill):
                characterize_library(
                    engine1, cells, config, checkpoint=store
                )
        arcs_done = len(store.keys())
        assert arcs_done == 2
        conditions_per_arc = len(config.slews) * len(config.loads)
        assert engine1.calls == arcs_done * conditions_per_arc

        # Run 2: resume against the same store.
        resumed_store = CheckpointStore(tmp_path / "ckpt")
        engine2 = CountingEngine(base_engine)
        library = characterize_library(
            engine2, cells, config, checkpoint=resumed_store
        )
        # Completed arcs were loaded, not re-simulated.
        assert resumed_store.hits == arcs_done
        assert engine2.calls == (6 - arcs_done) * conditions_per_arc
        # And the output is byte-identical to the uninterrupted run.
        assert library.to_text() == reference

    def test_checkpoint_key_tracks_config_content(
        self, tmp_path, base_engine, config
    ):
        store = CheckpointStore(tmp_path / "ckpt")
        cell = build_cell("INV")
        characterize_arc(
            base_engine, cell, "A", "rise", config, checkpoint=store
        )
        assert len(store) == 1
        # A different seed is a different request: no cache reuse.
        engine = CountingEngine(base_engine)
        reseeded = CharacterizationConfig(
            slews=config.slews,
            loads=config.loads,
            n_samples=config.n_samples,
            seed=config.seed + 1,
        )
        characterize_arc(
            engine, cell, "A", "rise", reseeded, checkpoint=store
        )
        assert engine.calls > 0
        assert len(store) == 2


class TestFaultIsolation:
    def test_forced_em_failure_degrades_exactly_selected_conditions(
        self, base_engine, config
    ):
        cells = [build_cell("INV")]
        report = FitReport()
        rule = FaultRule(
            "em_failure",
            cell="INV_X1",
            transition="rise",
            quantity="delay",
            slew_index=0,
            load_index=1,
            rungs=("LVF2", "LVF2-reseed", "Norm2"),
        )
        with inject(FaultPlan([rule])):
            library = characterize_library(
                base_engine,
                cells,
                config,
                policy=FitPolicy(),
                report=report,
                isolate_errors=True,
            )
        # The library is complete and valid Liberty text.
        parsed = read_library(library.to_text())
        assert list(parsed.cells) == ["INV_X1"]
        assert len(parsed.cells["INV_X1"].arcs()) == 1
        # The report names exactly the injected condition and its rung.
        assert report.degraded_conditions() == {
            "INV_X1/A/rise[0,1]:delay": "LVF"
        }
        assert report.degraded_arcs() == ("INV_X1/A/rise",)
        assert not report.quarantined
        # 2 arcs x 2 quantities x 4 grid points fitted in total.
        assert report.n_fits == 16
        assert report.rung_counts() == {"LVF2": 15, "LVF": 1}

    def test_nan_injection_recovers_through_ladder(
        self, base_engine, config
    ):
        cells = [build_cell("INV")]
        report = FitReport()
        rule = FaultRule(
            "nan_samples",
            cell="INV_X1",
            transition="fall",
            quantity="delay",
            slew_index=1,
            load_index=0,
            nan_fraction=0.5,
        )
        with inject(FaultPlan([rule])):
            library = characterize_library(
                base_engine,
                cells,
                config,
                policy=FitPolicy(),
                report=report,
                isolate_errors=True,
            )
        assert read_library(library.to_text()).cells
        dropped = [r for r in report.records if r.n_dropped > 0]
        assert len(dropped) == 1
        assert dropped[0].context.condition == "INV_X1/A/fall[1,0]:delay"
        assert dropped[0].n_dropped == config.n_samples // 2

    def test_strict_mode_drops_nan_samples(self, base_engine, config):
        # Strict mode is the one-rung ladder: it drops and counts
        # non-finite samples like every rung, and records every fit.
        report = FitReport()
        rule = FaultRule(
            "nan_samples",
            cell="INV_X1",
            transition="fall",
            quantity="delay",
            slew_index=1,
            load_index=0,
            nan_fraction=0.5,
        )
        with inject(FaultPlan([rule])):
            characterize_library(
                base_engine,
                [build_cell("INV")],
                config,
                policy=FitPolicy(rungs=("LVF2",)),
                report=report,
            )
        assert report.rung_counts() == {"LVF2": 16}
        assert [
            (r.context.condition, r.n_dropped)
            for r in report.records
            if r.n_dropped
        ] == [("INV_X1/A/fall[1,0]:delay", config.n_samples // 2)]

    def test_total_arc_failure_is_quarantined(self, base_engine, config):
        cells = [build_cell("INV"), build_cell("NAND2")]
        report = FitReport()
        # Every rung fails for every INV fall-delay condition and the
        # placeholder is disabled: the whole arc must be quarantined,
        # while the rest of the library still characterises.
        rule = FaultRule(
            "em_failure",
            cell="INV_X1",
            transition="fall",
            rungs=(
                "LVF2",
                "LVF2-reseed",
                "Norm2",
                "LVF",
                "Gaussian",
                "degenerate",
            ),
        )
        with inject(FaultPlan([rule])):
            library = characterize_library(
                base_engine,
                cells,
                config,
                policy=FitPolicy(),
                report=report,
                isolate_errors=True,
            )
        assert [q.arc for q in report.quarantined] == ["INV_X1/A"]
        assert report.quarantined[0].stage == "fit"
        parsed = read_library(library.to_text())
        # INV lost its single arc; NAND2 kept both of its pins' arcs.
        assert len(parsed.cells["INV_X1"].arcs()) == 0
        assert len(parsed.cells["NAND2_X1"].arcs()) == 2

    def test_without_isolation_failure_propagates(
        self, base_engine, config
    ):
        from repro.errors import FittingError

        rule = FaultRule(
            "em_failure",
            cell="INV_X1",
            rungs=(
                "LVF2",
                "LVF2-reseed",
                "Norm2",
                "LVF",
                "Gaussian",
                "degenerate",
            ),
        )
        with inject(FaultPlan([rule])):
            with pytest.raises(FittingError):
                characterize_library(
                    base_engine,
                    [build_cell("INV")],
                    config,
                    policy=FitPolicy(),
                    isolate_errors=False,
                )


class TestPooledQuarantinePrecedence:
    """The parent's edge fold replays serial quarantine-or-raise.

    Faults fire only inside the pool workers, which record errors in
    their edge payloads; the parent must turn them into the same
    quarantine entries, or the same raised error, as a serial run.
    """

    @staticmethod
    def characterize(
        engine, config, cells, rule, *, workers, isolate, policy=FitPolicy()
    ):
        plan = FaultPlan([rule])
        report = FitReport()
        kwargs = dict(policy=policy, report=report, isolate_errors=isolate)
        if workers == 1:
            with inject(plan):
                library = characterize_library(
                    engine, cells, config, **kwargs
                )
        else:
            pool = PoolConfig(
                n_workers=workers,
                seed=config.seed,
                merge_traces=False,
                fault_plans={worker: plan for worker in range(workers)},
            )
            library = characterize_library(
                engine, cells, config, workers=workers, pool=pool, **kwargs
            )
        return library.to_text(), json.dumps(
            report.to_dict(), sort_keys=True
        )

    def test_pooled_quarantine_matches_serial(self, base_engine, config):
        cells = [build_cell("INV"), build_cell("NAND2")]
        rule = FaultRule(
            "em_failure", cell="INV_X1", transition="fall", rungs=ALL_RUNGS
        )
        serial, pooled = [
            self.characterize(
                base_engine,
                config,
                cells,
                rule,
                workers=workers,
                isolate=True,
            )
            for workers in (1, 2)
        ]
        assert pooled == serial
        report = json.loads(pooled[1])
        assert [(q["arc"], q["stage"]) for q in report["quarantined"]] == [
            ("INV_X1/A", "fit")
        ]
        # Serial precedence keeps the INV rise records (2 quantities x
        # 4 points) made before the failing fall-delay grid, plus
        # NAND2's 2 pins x 16 fits.
        assert report["n_fits"] == 8 + 32

    def test_pooled_failure_propagates_like_serial(
        self, base_engine, config
    ):
        rule = FaultRule("em_failure", cell="INV_X1", rungs=ALL_RUNGS)
        raised = []
        for workers in (1, 2):
            with pytest.raises(FittingError) as caught:
                self.characterize(
                    base_engine,
                    config,
                    [build_cell("INV")],
                    rule,
                    workers=workers,
                    isolate=False,
                )
            raised.append((type(caught.value), str(caught.value)))
        assert raised[0] == raised[1]

    def test_strict_mode_failure_names_condition(self, base_engine, config):
        # Strict mode is the one-rung ladder, so an injected LVF2
        # failure at one condition aborts the run with the ladder's
        # error, serially and pooled alike.
        rule = FaultRule(
            "em_failure",
            cell="NAND2_X1",
            pin="B",
            transition="rise",
            quantity="transition",
            slew_index=1,
            load_index=0,
            rungs=("LVF2",),
        )
        raised = []
        for workers in (1, 2):
            with pytest.raises(FittingError) as caught:
                self.characterize(
                    base_engine,
                    config,
                    [build_cell("INV"), build_cell("NAND2")],
                    rule,
                    workers=workers,
                    isolate=False,
                    policy=FitPolicy(rungs=("LVF2",)),
                )
            raised.append((type(caught.value), str(caught.value)))
        assert raised[0] == raised[1]
        condition = "NAND2_X1/B/rise[1,0]:transition"
        assert raised[0] == (
            FittingError,
            f"every ladder rung failed for {condition}: LVF2: injected "
            f"EM non-convergence on {condition} (rung LVF2)",
        )


class TestPolicyGridEquivalence:
    def test_policy_fit_matches_default_fit_on_clean_data(
        self, base_engine, config
    ):
        # With no faults every point lands on the shared first rung,
        # LVF2: strict mode and the full ladder give the same Liberty
        # text and the same fit records.
        cells = [build_cell("INV")]
        runs = []
        for policy in (FitPolicy(rungs=("LVF2",)), FitPolicy()):
            report = FitReport()
            library = characterize_library(
                base_engine, cells, config, policy=policy, report=report
            )
            runs.append((library.to_text(), report.to_dict()))
        assert runs[0] == runs[1]
        assert runs[0][1]["n_fits"] == 16

    def test_nan_corruption_changes_no_other_condition(
        self, base_engine, config
    ):
        # Determinism guard: corrupting one condition leaves all other
        # conditions' samples bit-identical.
        cell = build_cell("INV")
        clean = characterize_arc(base_engine, cell, "A", "rise", config)
        rule = FaultRule(
            "nan_samples",
            slew_index=0,
            load_index=0,
            quantity="delay",
        )
        with inject(FaultPlan([rule])):
            dirty = characterize_arc(
                base_engine, cell, "A", "rise", config
            )
        assert np.isnan(dirty.samples("delay", 0, 0)).any()
        np.testing.assert_array_equal(
            clean.samples("delay", 1, 1), dirty.samples("delay", 1, 1)
        )
        np.testing.assert_array_equal(
            clean.samples("transition", 0, 0),
            dirty.samples("transition", 0, 0),
        )
