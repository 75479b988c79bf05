"""Tests for the Fig. 5 path propagation driver."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.binning.metrics import binning_error, error_reduction
from repro.errors import SSTAError, raise_first
from repro.models import base
from repro.models.base import get_model, register_model
from repro.runtime import fanout, telemetry
from repro.runtime.telemetry import TelemetrySession
from repro.ssta.ops import sum_models
from repro.ssta.paths import build_carry_adder_path, simulate_path_stages
from repro.ssta.propagate import DEFAULT_FIT_KWARGS, propagate_path
from repro.stats import em
from repro.stats.empirical import EmpiricalDistribution
from tests.runtime.fanout_support import telemetry_shape

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


def traced(simulations, model_names, **kwargs):
    """``propagate_path`` under a session; the result and the session."""
    session = TelemetrySession()
    with telemetry.activate(session):
        result = propagate_path(simulations, model_names, **kwargs)
    return result, session


class TestModelsFanOut:
    """One fan-out task per model; the result cannot tell where it ran."""

    def test_equals_reference_with_one_helper(self, one_helper, short_adder):
        errors, reductions = reference_propagate(short_adder, DEFAULT_MODELS)
        helper_blocks = 0
        for _ in range(2):  # the pool's first call, then a reused pool
            result, session = traced(short_adder, DEFAULT_MODELS)
            assert hexes(result.binning_errors) == hexes(errors)
            assert hexes(result.reductions) == hexes(reductions)
            helper_blocks += session.metrics.snapshot()["counters"].get(
                "fanout.helper_blocks", 0
            )
        assert helper_blocks > 0

    @pytest.mark.parametrize(
        "model_names",
        [
            ("LVF2", "LESN", "LVF"),
            ("LESN", "LVF2", "LVF"),
            ("Norm2", "LVF2", "LVF"),
            ("LVF2", "Norm2", "LVF"),
        ],
    )
    def test_first_error_in_model_order(
        self, one_helper, short_adder, model_names
    ):
        # Two pipelines raise; LESN's is queued first, so across the
        # cases the first error in model order comes from either
        # process and may arrive first or last.
        fit_kwargs = {
            "LVF2": {"refine": "bogus"},
            "LESN": {"method": "bogus"},
            "Norm2": {"config": 3},
        }
        stack = np.stack([simulation.delay for simulation in short_adder])
        first = model_names[0]
        with pytest.raises(Exception) as expected:
            raise_first(get_model(first).fit_batch(stack, **fit_kwargs[first]))
        for _ in range(2):
            with pytest.raises(type(expected.value)) as raised:
                propagate_path(short_adder, model_names, fit_kwargs=fit_kwargs)
            assert type(raised.value) is type(expected.value)
            assert str(raised.value) == str(expected.value)

    def test_traced_fan_out_records_what_inline_records(
        self, one_helper, monkeypatch, short_adder
    ):
        propagate_path(short_adder, DEFAULT_MODELS)  # boot the helper
        result, fanned = traced(short_adder, DEFAULT_MODELS)
        assert any(
            record.tags.get("helper") for record in fanned.tracer.records()
        )
        monkeypatch.setattr(fanout, "_helper_count", lambda: 0)
        reference, inline = traced(short_adder, DEFAULT_MODELS)
        assert hexes(result.binning_errors) == hexes(reference.binning_errors)
        assert telemetry_shape(fanned) == telemetry_shape(inline)
        spans, counters, histograms = telemetry_shape(inline)
        assert spans["ssta.model"] == len(DEFAULT_MODELS)
        assert counters["ssta.stages_propagated"] == (
            len(DEFAULT_MODELS) * len(short_adder)
        )
        assert histograms["em.iterations"] == counters["em.fits"] > 0

    def test_model_registered_only_in_the_caller(
        self, one_helper, monkeypatch, short_adder
    ):
        # A class defined here cannot reach a helper, so the call runs
        # inline rather than failing on a registry the helper lacks.
        monkeypatch.setattr(
            base, "_MODEL_REGISTRY", dict(base._MODEL_REGISTRY)
        )

        @register_model
        class LocalLVF(get_model("LVF")):
            name = "LocalLVF"

        models = ("LVF2", "LocalLVF", "Norm2", "LVF")
        for _ in range(2):  # the pool's first call, then a reused pool
            result = propagate_path(short_adder, models)
            errors, _ = reference_propagate(short_adder, models)
            assert hexes(result.binning_errors) == hexes(errors)

    def test_multi_block_fits_fan_out_their_em_blocks(
        self, one_helper, monkeypatch, short_adder
    ):
        # One stage row per lockstep block: LVF2's fit has more blocks
        # than there are models, so the models run in turn and their
        # fits' EM blocks go to the helper instead.
        monkeypatch.setattr(
            em, "_BLOCK_BUDGET", 2 * short_adder[0].delay.size * 8
        )
        assert em.lockstep_blocks(3 * len(short_adder), 400) >= len(
            DEFAULT_MODELS
        )
        errors, reductions = reference_propagate(short_adder, DEFAULT_MODELS)
        result, session = traced(short_adder, DEFAULT_MODELS)
        assert hexes(result.binning_errors) == hexes(errors)
        assert hexes(result.reductions) == hexes(reductions)
        records = session.tracer.records()
        models = [r for r in records if r.name == "ssta.model"]
        assert [r.tags["model"] for r in models] == list(DEFAULT_MODELS)
        assert not any("helper" in r.tags for r in models)
        assert any(
            r.name == "em.block" and r.tags.get("helper") == "h00"
            for r in records
        )

    def test_no_helper_without_a_second_core(self, monkeypatch, short_adder):
        def refuse(count):
            raise AssertionError(f"started {count} helper process(es)")

        fanout._shutdown()
        monkeypatch.setattr(fanout, "_helper_count", lambda: 0)
        monkeypatch.setattr(fanout, "_Helpers", refuse)
        result = propagate_path(short_adder, DEFAULT_MODELS)
        errors, _ = reference_propagate(short_adder, DEFAULT_MODELS)
        assert hexes(result.binning_errors) == hexes(errors)
        assert fanout._POOL is None
