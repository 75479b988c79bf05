"""CI-scale tests for the Table 2 and Fig. 4 experiment drivers."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.binning.metrics import cdf_rmse, error_reduction
from repro.circuits.cells import build_cell
from repro.circuits.characterize import (
    PAPER_LOADS,
    PAPER_SLEWS,
    CharacterizationConfig,
    characterize_arc,
)
from repro.experiments.common import fit_paper_models
from repro.experiments.fig4 import diagonal_contrast, run_fig4
from repro.experiments.table2 import (
    Table2Config,
    Table2Row,
    _arc_list,
    _score_condition,
    run_table2,
)
from repro.models import LVF2Model, LVFModel
from repro.stats.empirical import EmpiricalDistribution


class TestTable2Small:
    @pytest.fixture(scope="class")
    def result(self):
        config = Table2Config(
            cell_types=("INV", "NAND2", "XOR2"),
            drives=(1.0,),
            n_samples=1500,
            slews=(0.008, 0.05),
            loads=(0.007, 0.1),
            max_arcs_per_cell=2,
            seed=7,
        )
        return run_table2(config)

    def test_rows_and_arcs(self, result):
        assert set(result.rows) == {"INV", "NAND2", "XOR2"}
        for row in result.rows.values():
            assert row.n_arcs == 2

    def test_all_metrics_populated(self, result):
        row = result.rows["NAND2"]
        for metric in (
            "delay_binning",
            "transition_binning",
            "delay_yield",
            "transition_yield",
        ):
            value = row.mean_reduction(metric, "LVF2")
            assert np.isfinite(value) and value > 0.0

    def test_lvf2_beats_lvf_overall(self, result):
        assert result.overall("delay_binning", "LVF2") > 1.0
        assert result.overall("transition_binning", "LVF2") > 1.0

    def test_headline_structure(self, result):
        headline = result.headline()
        assert set(headline) == {
            "delay_binning",
            "transition_binning",
            "delay_yield",
            "transition_yield",
        }

    def test_to_text_includes_overall(self, result):
        text = result.to_text()
        assert "Overall" in text
        assert "NAND2" in text


class TestDiagonalContrast:
    def test_banded_beats_noise(self):
        rng = np.random.default_rng(0)
        noise = np.exp(rng.normal(0.0, 0.3, (8, 8)))
        banded = np.ones((8, 8))
        for i in range(8):
            for j in range(8):
                banded[i, j] = 5.0 if (i - j) % 3 == 0 else 1.0
        assert diagonal_contrast(banded) > 2.0 * diagonal_contrast(
            noise
        )


class TestFig4Small:
    def test_heatmaps_generated(self, engine):
        result = run_fig4(n_samples=800, engine=engine)
        assert result.delay_heatmap.shape == (8, 8)
        assert result.transition_heatmap.shape == (8, 8)
        assert np.all(result.delay_heatmap > 0.0)
        # Somewhere on the grid LVF2 clearly helps.
        assert result.delay_heatmap.max() > 1.5
        assert "Figure 4" in result.to_text()


def per_point_fig4(engine, n_samples, seed):
    """Fig. 4 heatmaps from one ``fit`` per model per grid point."""
    config = CharacterizationConfig(
        slews=PAPER_SLEWS, loads=PAPER_LOADS, n_samples=n_samples,
        seed=seed,
    )
    characterization = characterize_arc(
        engine, build_cell("NAND2"), "A", "fall", config
    )
    maps = {}
    for quantity in ("delay", "transition"):
        grid = np.zeros(config.grid_shape)
        for i, j in np.ndindex(*config.grid_shape):
            data = characterization.samples(quantity, i, j)
            golden = EmpiricalDistribution(data)
            grid[i, j] = error_reduction(
                cdf_rmse(LVFModel.fit(data), golden),
                cdf_rmse(LVF2Model.fit(data), golden),
            )
        maps[quantity] = grid
    return maps


class TestFig4Batched:
    def test_heatmaps_equal_per_point_fits(self, engine):
        result = run_fig4(n_samples=32, seed=5, engine=engine)
        reference = per_point_fig4(engine, 32, 5)
        for grid, quantity in (
            (result.delay_heatmap, "delay"),
            (result.transition_heatmap, "transition"),
        ):
            assert [float(v).hex() for v in grid.ravel()] == [
                float(v).hex() for v in reference[quantity].ravel()
            ]


def per_point_table2(engine, config):
    """Table 2 rows from one ``fit_paper_models`` call per condition."""
    char_config = CharacterizationConfig(
        slews=config.slews,
        loads=config.loads,
        n_samples=config.n_samples,
        seed=config.seed,
    )
    rows = {}
    for cell_type in config.cell_types:
        row = Table2Row(cell_type=cell_type)
        for drive in config.drives:
            cell = build_cell(cell_type, drive)
            for pin, transition in _arc_list(
                cell, config.max_arcs_per_cell
            ):
                characterization = characterize_arc(
                    engine, cell, pin, transition, char_config
                )
                for quantity in ("delay", "transition"):
                    for i, j in np.ndindex(*char_config.grid_shape):
                        data = characterization.samples(quantity, i, j)
                        (models,) = fit_paper_models(data[None])
                        _score_condition(row, quantity, data, models)
        rows[cell_type] = row
    return rows


def hex_reductions(row):
    return {
        metric: {
            model: [float(v).hex() for v in values]
            for model, values in models.items()
        }
        for metric, models in row.reductions.items()
    }


#: The Table 2 configuration ``repro bench`` tests shrink to: too few
#: samples for any condition to resolve the 3-sigma tail.
TINY = Table2Config(
    cell_types=("INV",),
    drives=(1.0,),
    n_samples=64,
    slews=(0.01, 0.05),
    loads=(0.01, 0.1),
    max_arcs_per_cell=1,
    seed=7,
)


class TestTable2Batched:
    def test_rows_equal_per_point_fits(self, engine):
        config = Table2Config(
            cell_types=("INV", "NAND2"),
            drives=(1.0,),
            n_samples=96,
            slews=(0.008, 0.05),
            loads=(0.007, 0.1),
            max_arcs_per_cell=2,
            seed=11,
        )
        result = run_table2(config, engine=engine)
        reference = per_point_table2(engine, config)
        assert set(result.rows) == set(reference)
        for name, row in result.rows.items():
            assert hex_reductions(row) == hex_reductions(
                reference[name]
            ), name

    def test_unscored_cells_are_nan_without_warnings(self, engine):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_table2(TINY, engine=engine)
            headline = result.headline()
            result.to_text()
        values = [v for models in headline.values() for v in models.values()]
        assert any(np.isnan(v) for v in values)
