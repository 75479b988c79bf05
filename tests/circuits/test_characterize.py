"""Tests for the characterisation driver (paper §4.2 flow)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.cells import build_cell
from repro.circuits.characterize import (
    PAPER_LOADS,
    PAPER_SLEWS,
    CharacterizationConfig,
    characterize_arc,
    characterize_library,
    characterized_arc_to_liberty,
    edge_fit_token,
)
from repro.errors import CharacterizationError
from repro.liberty.library import read_library
from repro.runtime import FitPolicy, FitReport
from repro.stats.em import EMConfig


@pytest.fixture(scope="module")
def small_config():
    return CharacterizationConfig(
        slews=(0.005, 0.02),
        loads=(0.002, 0.02),
        n_samples=600,
        seed=11,
    )


@pytest.fixture(scope="module")
def nand2_rise(engine_module, small_config):
    return characterize_arc(
        engine_module, build_cell("NAND2"), "A", "rise", small_config
    )


@pytest.fixture(scope="module")
def nand2_fall(engine_module, small_config):
    return characterize_arc(
        engine_module, build_cell("NAND2"), "A", "fall", small_config
    )


@pytest.fixture(scope="module")
def engine_module():
    from repro.circuits.gate import GateTimingEngine
    from repro.circuits.process import TT_GLOBAL_LOCAL_MC

    return GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)


class TestConfig:
    def test_paper_axes(self):
        assert len(PAPER_SLEWS) == 8 and len(PAPER_LOADS) == 8
        # The published Fig. 4 load axis values.
        assert PAPER_LOADS[0] == 0.00015
        assert PAPER_LOADS[-1] == 0.89830

    def test_default_is_paper_scale_grid(self):
        config = CharacterizationConfig()
        assert config.grid_shape == (8, 8)
        assert config.n_samples == 50_000

    def test_validation(self):
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(n_samples=2)
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(slews=())

    def test_template_matches_grid(self, small_config):
        template = small_config.template()
        assert template.index_1 == small_config.slews
        assert template.index_2 == small_config.loads


class TestEdgeFitToken:
    def test_token_changes_with_default_em_config(
        self, engine_module, small_config, monkeypatch
    ):
        # A store written under another stop rule must miss, not
        # resume fits made with the old rule.
        def token():
            return edge_fit_token(
                engine_module, build_cell("INV"), "A", "fall", small_config
            )

        before = token()
        assert token() == before
        defaults = list(EMConfig.__init__.__defaults__)
        defaults[1] = 1e-5  # ``tol``
        monkeypatch.setattr(
            EMConfig.__init__, "__defaults__", tuple(defaults)
        )
        assert EMConfig() == EMConfig(tol=1e-5)
        assert token() != before


class TestCharacterizeArc:
    def test_grid_population(self, nand2_rise, small_config):
        assert nand2_rise.delay_samples.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                samples = nand2_rise.samples("delay", i, j)
                assert samples.shape == (small_config.n_samples,)
                assert np.all(samples > 0.0)

    def test_nominal_grids_monotone_in_load(self, nand2_rise):
        assert np.all(
            np.diff(nand2_rise.nominal_delay, axis=1) > 0.0
        )

    def test_unknown_quantity(self, nand2_rise):
        with pytest.raises(CharacterizationError):
            nand2_rise.samples("power", 0, 0)

    def test_fit_grid_produces_models(self, nand2_rise):
        report = FitReport()
        models = nand2_rise.fit_grid("delay", FitPolicy(), report)
        assert models.shape == (2, 2)
        summary = models[0, 0].moments()
        golden = nand2_rise.samples("delay", 0, 0)
        assert summary.mean == pytest.approx(golden.mean(), rel=0.01)
        # One record per point, in row-major order.
        assert [
            (r.context.slew_index, r.context.load_index)
            for r in report.records
        ] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_per_condition_seeds_differ(self, nand2_rise):
        a = nand2_rise.samples("delay", 0, 0)
        b = nand2_rise.samples("delay", 0, 1)
        assert not np.array_equal(a, b)


class TestToLiberty:
    def test_arc_conversion(self, nand2_rise, nand2_fall):
        arc = characterized_arc_to_liberty(nand2_rise, nand2_fall)
        assert set(arc.tables) == {
            "cell_rise",
            "rise_transition",
            "cell_fall",
            "fall_transition",
        }
        assert arc.is_statistical
        model = arc.tables["cell_rise"].lvf2_at(0, 0)
        golden = nand2_rise.samples("delay", 0, 0)
        assert model.moments().mean == pytest.approx(
            golden.mean(), rel=0.02
        )

    def test_mismatched_arcs_rejected(
        self, nand2_rise, engine_module, small_config
    ):
        other = characterize_arc(
            engine_module, build_cell("NAND2"), "B", "fall", small_config
        )
        with pytest.raises(CharacterizationError):
            characterized_arc_to_liberty(nand2_rise, other)

    def test_library_end_to_end(self, engine_module, small_config):
        cells = [build_cell("INV")]
        library = characterize_library(
            engine_module, cells, small_config
        )
        text = library.to_text()
        reparsed = read_library(text)
        assert "INV_X1" in reparsed.cells
        arc = reparsed.cell("INV_X1").pins["Y"].arc_to("A")
        model = arc.tables["cell_rise"].lvf2_at(0, 0)
        assert model.moments().mean > 0.0
