"""Tests for accuracy-pattern-guided adaptive characterisation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.circuits.adaptive import (
    characterize_adaptive,
    multi_gaussian_indicator,
    plan_adaptive,
)
from repro.circuits.cells import build_cell
from repro.circuits.characterize import (
    CharacterizationConfig,
    characterize_arc,
)
from repro.errors import CharacterizationError
from repro.models.lvf import LVFModel
from repro.models.lvf2 import LVF2Model


@pytest.fixture(scope="module")
def config():
    return CharacterizationConfig(
        slews=(0.00316, 0.00812, 0.02086),
        loads=(0.00722, 0.02136, 0.04965),
        n_samples=4000,
        seed=5,
    )


class TestIndicator:
    def test_positive_on_bimodal(self, bimodal_samples):
        assert multi_gaussian_indicator(bimodal_samples) > 0.01

    def test_near_zero_on_gaussian(self, gaussian_samples):
        assert multi_gaussian_indicator(gaussian_samples) < 0.005


class TestPlan:
    def test_probe_smaller_than_full_enforced(self, engine, config):
        with pytest.raises(CharacterizationError):
            plan_adaptive(
                engine,
                build_cell("NAND2"),
                "A",
                "fall",
                config,
                probe_samples=config.n_samples,
            )

    def test_plan_structure(self, engine, config):
        plan, probes = plan_adaptive(
            engine,
            build_cell("NAND2"),
            "A",
            "fall",
            config,
            probe_samples=600,
        )
        assert plan.indicator.shape == (3, 3)
        assert plan.suspect.shape == (3, 3)
        assert probes[0, 0].shape == (600,)
        # Band keys cover i+j = 0..4.
        assert set(plan.band_scores) == set(range(5))

    def test_indicator_grid_equals_per_point_fits(self, engine, config):
        plan, probes = plan_adaptive(
            engine,
            build_cell("NAND2"),
            "A",
            "fall",
            config,
            probe_samples=300,
        )
        reference = []
        for index in np.ndindex(probes.shape):
            samples = probes[index]
            lvf, lvf2 = LVFModel.fit(samples), LVF2Model.fit(samples)
            margin = (lvf.bic(samples) - lvf2.bic(samples)) / samples.size
            reference.append(float(margin).hex())
            assert multi_gaussian_indicator(samples).hex() == reference[-1]
        assert [float(v).hex() for v in plan.indicator.ravel()] == reference

    def test_band_completion_marks_whole_band(self, engine, config):
        plan, _ = plan_adaptive(
            engine,
            build_cell("NAND2"),
            "A",
            "fall",
            config,
            probe_samples=600,
            point_threshold=1e9,  # only the band rule can fire
            band_threshold=0.002,
        )
        for band, score in plan.band_scores.items():
            if score > 0.002:
                for i in range(3):
                    j = band - i
                    if 0 <= j < 3:
                        assert plan.suspect[i, j]


class TestCharacterizeAdaptive:
    @pytest.fixture(scope="class")
    def result(self, engine, config):
        return characterize_adaptive(
            engine,
            build_cell("NAND2"),
            "A",
            "fall",
            config,
            probe_samples=600,
        )

    def test_model_grid_complete(self, result):
        assert result.models.shape == (3, 3)
        for index in np.ndindex(result.models.shape):
            assert result.models[index].moments().std > 0.0

    def test_budget_accounting(self, result, config):
        probe_total = 9 * 600
        full_total = result.plan.n_suspect * config.n_samples
        assert result.samples_spent == probe_total + full_total
        assert result.samples_uniform == 9 * config.n_samples

    def test_saves_samples_when_pattern_sparse(self, result):
        # Unless every band is suspect, the adaptive flow spends less.
        if result.plan.n_suspect < result.plan.n_points:
            assert result.savings > 0.0

    def test_suspect_points_get_mixture_capable_fits(self, result):
        for index in np.ndindex(result.models.shape):
            model = result.models[index]
            if not result.plan.suspect[index]:
                # Non-suspect points are stored as collapsed LVF2.
                assert model.is_collapsed


class TestPlainMonteCarlo:
    """Both passes honour ``use_lhs=False``, like characterize_arc."""

    @pytest.fixture(scope="class")
    def config(self):
        return CharacterizationConfig(
            slews=(0.00316, 0.00812),
            loads=(0.00722, 0.02136),
            n_samples=1000,
            seed=5,
            use_lhs=False,
        )

    def test_probes_match_characterize_arc(self, engine, config):
        cell = build_cell("NAND2")
        _, probes = plan_adaptive(
            engine, cell, "A", "fall", config, probe_samples=200
        )
        reference = characterize_arc(
            engine,
            cell,
            "A",
            "fall",
            replace(config, n_samples=200, seed=config.seed ^ 0x5EED),
        )
        for i, j in np.ndindex(probes.shape):
            np.testing.assert_array_equal(
                probes[i, j], reference.samples("delay", i, j)
            )

    def test_suspect_models_match_characterize_arc(self, engine, config):
        cell = build_cell("NAND2")
        result = characterize_adaptive(
            engine, cell, "A", "fall", config, probe_samples=200
        )
        full = characterize_arc(engine, cell, "A", "fall", config)
        assert result.plan.n_suspect > 0
        for index in np.ndindex(result.models.shape):
            if result.plan.suspect[index]:
                expected = LVF2Model.fit(full.samples("delay", *index))
                assert result.models[index] == expected
