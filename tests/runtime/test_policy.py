"""Tests for the FitPolicy fallback ladder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FittingError
from repro.models.lvf2 import LVF2Model
from repro.runtime import (
    DEFAULT_RUNGS,
    FaultPlan,
    FaultRule,
    FitContext,
    FitPolicy,
    FitReport,
    inject,
)


@pytest.fixture
def policy() -> FitPolicy:
    return FitPolicy()


@pytest.fixture
def context() -> FitContext:
    return FitContext("INV_X1", "A", "rise", "delay", 0, 0)


class TestHealthyPath:
    def test_primary_rung_on_clean_bimodal_data(
        self, policy, bimodal_samples
    ):
        outcome = policy.fit(bimodal_samples)
        assert outcome.rung == "LVF2"
        assert not outcome.degraded
        assert outcome.attempts == ()
        assert outcome.n_dropped == 0
        assert isinstance(outcome.model, LVF2Model)

    def test_model_matches_direct_fit(self, policy, bimodal_samples):
        ladder = policy.fit(bimodal_samples).model
        direct = LVF2Model.fit(bimodal_samples)
        assert ladder.parameters() == direct.parameters()


class TestDegenerateInputs:
    """Satellite: the ladder must recover from every degenerate input
    that makes the individual fitters raise FittingError."""

    def test_constant_samples_recover(self, policy):
        outcome = policy.fit(np.full(500, 1.25))
        assert outcome.rung == "degenerate"
        assert outcome.degraded
        # Every earlier rung was tried and failed.
        tried = [attempt.rung for attempt in outcome.attempts]
        assert tried == list(DEFAULT_RUNGS[:-1])
        assert outcome.model.moments().mean == pytest.approx(1.25)

    def test_nan_samples_recover_by_dropping(self, policy, bimodal_samples):
        corrupted = bimodal_samples.copy()
        corrupted[::7] = np.nan
        outcome = policy.fit(corrupted)
        assert outcome.n_dropped == corrupted[::7].size
        assert outcome.rung == "LVF2"

    def test_inf_samples_recover_by_dropping(self, policy, bimodal_samples):
        corrupted = bimodal_samples.copy()
        corrupted[10] = np.inf
        corrupted[20] = -np.inf
        outcome = policy.fit(corrupted)
        assert outcome.n_dropped == 2

    def test_tiny_sample_count_recovers_below_em_minimum(self, policy):
        outcome = policy.fit(np.array([1.0, 1.1, 1.3]))
        assert outcome.degraded
        assert outcome.rung in ("LVF", "Gaussian", "degenerate")

    def test_all_nan_raises(self, policy):
        with pytest.raises(FittingError):
            policy.fit(np.full(100, np.nan))

    def test_empty_raises(self, policy):
        with pytest.raises(FittingError):
            policy.fit(np.array([]))

    def test_degenerate_rung_disabled_raises(self):
        policy = FitPolicy(rungs=DEFAULT_RUNGS[:-1])
        with pytest.raises(FittingError) as excinfo:
            policy.fit(np.full(500, 3.0))
        # The terminal error narrates the full ladder walk.
        assert "LVF2" in str(excinfo.value)

    def test_unknown_rung_rejected(self):
        with pytest.raises(FittingError):
            FitPolicy(rungs=("LVF2", "bogus"))

    @pytest.mark.parametrize(
        "rungs", [("Norm2", "LVF2"), ("LVF2", "LVF2"), ("LVF", "Norm2")]
    )
    def test_rungs_out_of_ladder_order_rejected(self, rungs):
        with pytest.raises(FittingError, match="order"):
            FitPolicy(rungs=rungs)


class TestInjectedFailures:
    def test_forced_em_failure_lands_on_norm2(
        self, policy, context, bimodal_samples
    ):
        plan = FaultPlan(
            [FaultRule("em_failure", cell="INV_X1", quantity="delay")]
        )
        with inject(plan):
            outcome = policy.fit(bimodal_samples, context=context)
        assert outcome.degraded
        assert outcome.rung == "Norm2"
        assert [a.rung for a in outcome.attempts] == [
            "LVF2",
            "LVF2-reseed",
        ]
        assert "injected" in outcome.attempts[0].error

    def test_forced_failure_down_to_lvf(
        self, policy, context, bimodal_samples
    ):
        plan = FaultPlan(
            [
                FaultRule(
                    "em_failure",
                    cell="INV_X1",
                    rungs=("LVF2", "LVF2-reseed", "Norm2"),
                )
            ]
        )
        with inject(plan):
            outcome = policy.fit(bimodal_samples, context=context)
        assert outcome.rung == "LVF"
        assert outcome.model.is_collapsed

    def test_non_matching_rule_is_inert(
        self, policy, context, bimodal_samples
    ):
        plan = FaultPlan([FaultRule("em_failure", cell="NAND2_X1")])
        with inject(plan):
            outcome = policy.fit(bimodal_samples, context=context)
        assert outcome.rung == "LVF2"

    def test_no_context_means_no_injection(self, policy, bimodal_samples):
        plan = FaultPlan([FaultRule("em_failure")])
        with inject(plan):
            outcome = policy.fit(bimodal_samples)
        assert outcome.rung == "LVF2"


class TestReportIntegration:
    def test_report_records_rung_and_attempts(
        self, policy, context, bimodal_samples
    ):
        report = FitReport()
        plan = FaultPlan([FaultRule("em_failure", cell="INV_X1")])
        with inject(plan):
            outcome = policy.fit(bimodal_samples, context=context)
        report.record_fit(context, outcome)
        assert report.n_fits == 1
        assert report.degraded_conditions() == {
            "INV_X1/A/rise[0,0]:delay": outcome.rung
        }
        assert report.degraded_arcs() == ("INV_X1/A/rise",)
        assert report.rung_counts() == {outcome.rung: 1}

    def test_summary_and_dict_render(self, policy, context, bimodal_samples):
        report = FitReport()
        report.record_fit(context, policy.fit(bimodal_samples, context))
        report.quarantine("INV_X1/B", "simulate", "boom")
        text = report.summary()
        assert "1 fits" in text
        assert "quarantined INV_X1/B" in text
        payload = report.to_dict()
        assert payload["n_fits"] == 1
        assert payload["quarantined"][0]["arc"] == "INV_X1/B"
