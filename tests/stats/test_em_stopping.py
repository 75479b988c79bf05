"""The EM stop rule and the best-iterate return (paper §3.2 loop).

The moment M-step is not an ascent step, so a fit's log-likelihood
history can go down.  The loop stops on an absolute change of
``EMConfig.tol`` nats per sample and returns its best post-M-step
iterate, converged or capped.  These tests pin both halves, batched
and scalar, for the two component families.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.models.lvf2 import SKEW_NORMAL_FAMILY
from repro.models.norm2 import GAUSSIAN_FAMILY
from repro.runtime import telemetry
from repro.runtime.telemetry import TelemetrySession
from repro.stats.em import (
    EMConfig,
    fit_mixture_em,
    fit_mixture_em_batch,
)
from repro.stats.mixtures import Mixture
from repro.stats.skew_normal import SkewNormal

FAMILIES = [SKEW_NORMAL_FAMILY, GAUSSIAN_FAMILY]


def _two_peak_rows(seed: int, n_rows: int, n_samples: int) -> np.ndarray:
    """Fixed-seed rows of an overlapping two-peak skew-normal mixture."""
    rng = np.random.default_rng(seed)
    truth = Mixture(
        (0.65, 0.35),
        (
            SkewNormal.from_moments(1.0, 0.2, 0.5),
            SkewNormal.from_moments(1.5, 0.25, -0.3),
        ),
    )
    return np.stack([truth.rvs(n_samples, rng=rng) for _ in range(n_rows)])


@st.composite
def mixture_rows(draw) -> np.ndarray:
    """A ``(3, n)`` stack drawn from one random two-component mixture."""
    weight = draw(st.floats(0.1, 0.9))
    gap = draw(st.floats(0.0, 6.0))
    sigmas = [draw(st.floats(0.2, 3.0)) for _ in range(2)]
    skews = [draw(st.floats(-0.8, 0.8)) for _ in range(2)]
    truth = Mixture(
        (weight, 1.0 - weight),
        (
            SkewNormal.from_moments(0.0, sigmas[0], skews[0]),
            SkewNormal.from_moments(gap, sigmas[1], skews[1]),
        ),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_samples = draw(st.integers(64, 400))
    return np.stack([truth.rvs(n_samples, rng=rng) for _ in range(3)])


class TestBestIterate:
    @pytest.mark.parametrize("batched", [True, False], ids=["batch", "scalar"])
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(stack=mixture_rows())
    def test_returns_the_best_iterate(self, family, batched, stack):
        config = EMConfig(max_iter=60)
        if batched:
            outcomes = fit_mixture_em_batch(stack, family, config=config)
        else:
            outcomes = [
                fit_mixture_em(row, family, config=config) for row in stack
            ]
        for row, result in zip(stack, outcomes):
            if result.collapsed:
                continue  # the single-component fit has no iterate
            assert result.loglik == max(result.history)
            assert result.mixture.loglik(row) == pytest.approx(
                result.loglik, rel=1e-12
            )

    @pytest.mark.parametrize("batched", [True, False], ids=["batch", "scalar"])
    def test_a_later_drop_returns_the_earlier_best(self, batched):
        # Row 0 of this seed's stack peaks before its last iterate: a
        # last-iterate loop would return a worse mixture.
        row = _two_peak_rows(1, 6, 400)[0]
        if batched:
            (result,) = fit_mixture_em_batch(row[None], SKEW_NORMAL_FAMILY)
        else:
            result = fit_mixture_em(row, SKEW_NORMAL_FAMILY)
        assert result.converged
        assert result.history[-1] < max(result.history)
        assert result.loglik == max(result.history)
        assert result.mixture.loglik(row) == pytest.approx(
            result.loglik, rel=1e-12
        )

    def test_best_earlier_counter(self):
        stack = _two_peak_rows(1, 6, 400)
        session = TelemetrySession()
        with telemetry.activate(session):
            outcomes = fit_mixture_em_batch(stack, SKEW_NORMAL_FAMILY)
        earlier = sum(
            result.loglik != result.history[-1] for result in outcomes
        )
        assert earlier >= 1
        counters = session.metrics.snapshot()["counters"]
        assert counters["em.best_earlier"] == earlier


class TestUnitInvariance:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_scaled_rows_stop_at_the_same_iteration(self, family):
        # 1024 is an exact binary scale: it shifts each row's
        # log-likelihood by n·log(1024) and changes no step's size.
        # A rule relative to |LL| stops these rows at other iterations
        # once scaled; the per-sample rule must not.
        stack = _two_peak_rows(0, 6, 400)
        plain = fit_mixture_em_batch(stack, family)
        scaled = fit_mixture_em_batch(stack * 1024.0, family)
        iterations = [result.n_iter for result in plain]
        assert [result.n_iter for result in scaled] == iterations
        assert [result.converged for result in scaled] == [
            result.converged for result in plain
        ]
        assert sum(n < EMConfig().max_iter for n in iterations) >= 4
