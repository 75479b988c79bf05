"""Tests for the Fig. 5 path propagation driver."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.binning.metrics import binning_error, error_reduction
from repro.errors import SSTAError
from repro.models.base import get_model
from repro.ssta.ops import sum_models
from repro.ssta.paths import build_carry_adder_path, simulate_path_stages
from repro.ssta.propagate import DEFAULT_FIT_KWARGS, propagate_path
from repro.stats.empirical import EmpiricalDistribution

DEFAULT_MODELS = ("LVF2", "Norm2", "LESN", "LVF")


@pytest.fixture(scope="module")
def adder_simulations():
    from repro.circuits.gate import GateTimingEngine
    from repro.circuits.process import TT_GLOBAL_LOCAL_MC

    engine = GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)
    path = build_carry_adder_path(5)
    return simulate_path_stages(engine, path, 4000, seed=2)


@pytest.fixture(scope="module")
def result(adder_simulations):
    return propagate_path(
        adder_simulations, ("LVF2", "LVF"), fo4=0.013
    )


class TestPropagatePath:
    def test_structure(self, result, adder_simulations):
        n = len(adder_simulations)
        assert len(result.stage_names) == n
        assert len(result.fo4_depths) == n
        assert len(result.golden) == n
        assert set(result.reductions) == {"LVF2", "LVF"}

    def test_baseline_reduction_is_one(self, result):
        for value in result.reductions["LVF"]:
            assert value == pytest.approx(1.0)

    def test_depths_increase(self, result):
        assert np.all(np.diff(result.fo4_depths) > 0.0)

    def test_golden_partial_sums_grow(self, result):
        means = [g.moments().mean for g in result.golden]
        assert means == sorted(means)

    def test_reduction_at_depth_and_end(self, result):
        value = result.reduction_at_depth("LVF2", 0.0)
        assert value == result.reductions["LVF2"][0]
        assert result.final_reduction("LVF2") == (
            result.reductions["LVF2"][-1]
        )

    def test_lvf2_helps_early(self, result):
        """Early-path LVF2 should beat LVF (non-Gaussian stages).

        Checked over the first two stages: a single stage's binning
        error ratio carries Monte-Carlo noise at this sample count.
        """
        assert max(result.reductions["LVF2"][:2]) > 1.0

    def test_empty_simulations_rejected(self):
        with pytest.raises(SSTAError):
            propagate_path([], ("LVF",))

    def test_baseline_must_be_included(self, adder_simulations):
        with pytest.raises(SSTAError):
            propagate_path(adder_simulations, ("LVF2",))

    def test_raw_depths_without_fo4(self, adder_simulations):
        raw = propagate_path(adder_simulations, ("LVF2", "LVF"))
        assert raw.fo4_depths == raw.cumulative_nominal


@pytest.fixture(scope="module")
def short_adder():
    from repro.circuits.gate import GateTimingEngine
    from repro.circuits.process import TT_GLOBAL_LOCAL_MC

    engine = GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)
    path = build_carry_adder_path(3)
    return simulate_path_stages(engine, path, 400, seed=11)


def with_stage_delay(simulations, index, delay):
    changed = list(simulations)
    changed[index] = dataclasses.replace(changed[index], delay=delay)
    return changed


def reference_propagate(simulations, model_names, baseline="LVF"):
    """The per-stage ``fit`` loop that one ``fit_batch`` call replaced."""
    partial = np.zeros_like(simulations[0].delay)
    goldens = []
    for simulation in simulations:
        partial = partial + simulation.delay
        goldens.append(EmpiricalDistribution(partial.copy()))
    errors = {}
    for name in model_names:
        model_cls = get_model(name)
        kwargs = DEFAULT_FIT_KWARGS.get(name, {})
        accumulated = None
        errors[name] = []
        for simulation, golden in zip(simulations, goldens):
            stage_model = model_cls.fit(simulation.delay, **kwargs)
            accumulated = (
                stage_model
                if accumulated is None
                else sum_models(accumulated, stage_model)
            )
            errors[name].append(binning_error(accumulated, golden))
    reductions = {
        name: [
            error_reduction(base, value)
            for base, value in zip(errors[baseline], values)
        ]
        for name, values in errors.items()
    }
    return errors, reductions


def hexes(table):
    return {
        name: [float(value).hex() for value in values]
        for name, values in table.items()
    }


class TestBatchedStageFits:
    def test_equals_per_stage_fit_loop_bit_for_bit(self, short_adder):
        result = propagate_path(short_adder, DEFAULT_MODELS)
        errors, reductions = reference_propagate(
            short_adder, DEFAULT_MODELS
        )
        assert hexes(result.binning_errors) == hexes(errors)
        assert hexes(result.reductions) == hexes(reductions)

    def test_unfittable_stage_raises_the_serial_error(self, short_adder):
        delay = short_adder[1].delay.copy()
        delay[7] = -delay[7]
        broken = with_stage_delay(short_adder, 1, delay)
        models = ("LVF2", "LESN", "LVF")
        with pytest.raises(Exception) as serial:
            reference_propagate(broken, models)
        with pytest.raises(type(serial.value)) as batched:
            propagate_path(broken, models)
        assert str(batched.value) == str(serial.value)

    def test_repeated_model_rejected(self, short_adder):
        with pytest.raises(SSTAError, match="more than once"):
            propagate_path(short_adder, ("LVF2", "LVF", "LVF2"))

    def test_unequal_sample_counts_rejected(self, short_adder):
        shorter = with_stage_delay(
            short_adder, 2, short_adder[2].delay[:-1]
        )
        with pytest.raises(SSTAError, match="unequal sample counts"):
            propagate_path(shorter, ("LVF2", "LVF"))
