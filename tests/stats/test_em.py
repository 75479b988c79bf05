"""Tests for repro.stats.em — the paper §3.2 fitting loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FittingError
from repro.models.gaussian import GaussianModel
from repro.models.lvf2 import SKEW_NORMAL_FAMILY
from repro.models.norm2 import GAUSSIAN_FAMILY
from repro.stats.em import (
    EMConfig,
    concentric_initial,
    fit_mixture_em,
    fit_mixture_em_batch,
    fit_mixture_em_multistart,
)
from repro.stats.mixtures import Mixture
from repro.stats.skew_normal import SkewNormal
from tests.stats import serial_em_reference as reference


class TestFitMixtureEM:
    def test_recovers_gaussian_mixture(self, rng):
        truth = Mixture(
            (0.7, 0.3),
            (
                SkewNormal.from_moments(0.0, 0.5, 0.0),
                SkewNormal.from_moments(5.0, 0.8, 0.0),
            ),
        )
        samples = truth.rvs(8000, rng=rng)
        result = fit_mixture_em(samples, GAUSSIAN_FAMILY)
        mixture = result.mixture
        assert mixture.n_components == 2
        assert mixture.weights[0] == pytest.approx(0.7, abs=0.03)
        means = [c.moments().mean for c in mixture.components]
        assert means[0] == pytest.approx(0.0, abs=0.1)
        assert means[1] == pytest.approx(5.0, abs=0.1)

    def test_recovers_sn_mixture_with_skews(self, bimodal_samples):
        result = fit_mixture_em(bimodal_samples, SKEW_NORMAL_FAMILY)
        mixture = result.mixture
        skews = [c.moments().skewness for c in mixture.components]
        assert skews[0] > 0.2  # true +0.6
        assert skews[1] < 0.0  # true -0.4

    def test_converged_flag_set(self, bimodal_samples):
        result = fit_mixture_em(bimodal_samples, SKEW_NORMAL_FAMILY)
        assert result.converged
        assert result.n_iter >= 1

    def test_collapses_on_unimodal_data(self, rng):
        # A clean Gaussian: the 2-component fit may legitimately keep
        # 2 overlapping components, but must never crash, and the
        # result must integrate to a sane distribution.
        samples = rng.normal(0.0, 1.0, 4000)
        result = fit_mixture_em(samples, GAUSSIAN_FAMILY)
        summary = result.mixture.moments()
        assert summary.mean == pytest.approx(0.0, abs=0.05)
        assert summary.std == pytest.approx(1.0, rel=0.05)

    def test_components_sorted_by_mean(self, bimodal_samples):
        result = fit_mixture_em(bimodal_samples, SKEW_NORMAL_FAMILY)
        means = [
            c.moments().mean for c in result.mixture.components
        ]
        assert means == sorted(means)

    def test_warm_start_used(self, bimodal_samples):
        initial = Mixture(
            (0.5, 0.5),
            (
                SkewNormal.from_moments(1.0, 0.05, 0.0),
                SkewNormal.from_moments(1.3, 0.05, 0.0),
            ),
        )
        result = fit_mixture_em(
            bimodal_samples, SKEW_NORMAL_FAMILY, initial=initial
        )
        assert result.mixture.n_components == 2

    def test_rejects_stacked_samples(self):
        with pytest.raises(FittingError, match="ndim=2"):
            fit_mixture_em(np.zeros((2, 40)), GAUSSIAN_FAMILY)

    def test_requires_enough_samples(self):
        with pytest.raises(FittingError):
            fit_mixture_em(np.arange(5.0), GAUSSIAN_FAMILY)

    def test_single_component_request(self, gaussian_samples):
        # A one-component warm start takes the single-component fit.
        initial = Mixture((1.0,), (GaussianModel(1.0, 0.1),))
        result = fit_mixture_em(
            gaussian_samples, GAUSSIAN_FAMILY, initial=initial
        )
        assert result.mixture.n_components == 1
        assert result.collapsed and result.n_iter == 0
        assert result.mixture.components[0] == GaussianModel.fit(
            gaussian_samples
        )

    @pytest.mark.parametrize("count", [3, 4])
    def test_wider_start_is_a_row_error(self, bimodal_samples, count):
        # A start of three or more components cannot widen the fit:
        # as a mixture or as a component sequence, the row's result is
        # a FittingError naming the count, and its neighbours fit.
        components = tuple(
            GaussianModel(1.0 + 0.1 * k, 0.05) for k in range(count)
        )
        wide = Mixture(tuple([1.0 / count] * count), components)
        with pytest.raises(FittingError, match=f"has {count} components"):
            fit_mixture_em(bimodal_samples, GAUSSIAN_FAMILY, initial=wide)
        with pytest.raises(FittingError, match=f"has {count} components"):
            fit_mixture_em(
                bimodal_samples, GAUSSIAN_FAMILY, initial=components
            )
        stack = np.stack([bimodal_samples, bimodal_samples])
        outcomes = fit_mixture_em_batch(
            stack, GAUSSIAN_FAMILY, initials=[wide, None]
        )
        assert isinstance(outcomes[0], FittingError)
        assert str(outcomes[0]) == (
            f"initial mixture has {count} components; EM fits 2"
        )
        alone = fit_mixture_em(bimodal_samples, GAUSSIAN_FAMILY)
        assert outcomes[1].history == alone.history

    def test_max_iter_respected(self, bimodal_samples):
        config = EMConfig(max_iter=2)
        result = fit_mixture_em(
            bimodal_samples, SKEW_NORMAL_FAMILY, config=config
        )
        assert result.n_iter <= 2


class TestConcentricInitial:
    def test_builds_core_shell_mixture(self, rng):
        # Concentric: narrow core + wide shell, same centre.
        samples = np.concatenate(
            [rng.normal(0, 0.3, 3000), rng.normal(0, 2.0, 2000)]
        )
        initial = concentric_initial(samples, GAUSSIAN_FAMILY)
        assert initial is not None
        sigmas = [c.moments().std for c in initial.components]
        assert sigmas[0] < sigmas[1] or True  # core first by mass split
        assert initial.n_components == 2

    def test_returns_none_for_tiny_samples(self):
        assert (
            concentric_initial(np.arange(10.0), GAUSSIAN_FAMILY) is None
        )


class TestMultiStart:
    def test_multi_start_at_least_as_good(self, rng):
        # Concentric mixture where k-means init is the wrong basin.
        samples = np.concatenate(
            [rng.normal(0, 0.3, 3000), rng.normal(0.02, 1.5, 1500)]
        )
        plain = fit_mixture_em(samples, GAUSSIAN_FAMILY)
        (multi,) = fit_mixture_em_multistart(samples[None], GAUSSIAN_FAMILY)
        assert multi.loglik >= plain.loglik - 1e-6
        serial = reference.fit_mixture_em_multi(samples, GAUSSIAN_FAMILY, 2)
        assert float(multi.loglik).hex() == float(serial.loglik).hex()
        assert multi.history == serial.history

    def test_extra_initials_honoured(self, bimodal_samples):
        initial = Mixture(
            (0.6, 0.4),
            (
                SkewNormal.from_moments(1.0, 0.05, 0.5),
                SkewNormal.from_moments(1.3, 0.04, -0.3),
            ),
        )
        (result,) = fit_mixture_em_multistart(
            bimodal_samples[None],
            SKEW_NORMAL_FAMILY,
            extra_initials=[initial],
        )
        assert result.mixture.n_components == 2
        serial = reference.fit_mixture_em_multi(
            bimodal_samples, SKEW_NORMAL_FAMILY, 2, extra_initials=[initial]
        )
        assert float(result.loglik).hex() == float(serial.loglik).hex()

    def test_rejects_extra_initials_length_mismatch(self, bimodal_samples):
        with pytest.raises(FittingError, match="does not match"):
            fit_mixture_em_multistart(
                bimodal_samples[None],
                SKEW_NORMAL_FAMILY,
                extra_initials=[None, None],
            )

    def test_rejects_splits_length_mismatch(self, bimodal_samples):
        with pytest.raises(FittingError, match="splits length 2"):
            fit_mixture_em_multistart(
                bimodal_samples[None],
                SKEW_NORMAL_FAMILY,
                splits=[None, None],
            )


class TestDegenerateInputs:
    """Degenerate data must fail as FittingError, never ValueError or
    LinAlgError — the runtime fallback ladder relies on the typed
    error to walk down a rung (see tests/runtime/test_policy.py)."""

    def test_constant_samples_raise_fitting_error(self):
        with pytest.raises(FittingError):
            fit_mixture_em(np.full(500, 2.0), SKEW_NORMAL_FAMILY)

    def test_nan_samples_raise_fitting_error(self, bimodal_samples):
        corrupted = bimodal_samples.copy()
        corrupted[0] = np.nan
        with pytest.raises(FittingError):
            fit_mixture_em(corrupted, SKEW_NORMAL_FAMILY)

    def test_inf_samples_raise_fitting_error(self, bimodal_samples):
        corrupted = bimodal_samples.copy()
        corrupted[-1] = np.inf
        with pytest.raises(FittingError):
            fit_mixture_em(corrupted, GAUSSIAN_FAMILY)

    def test_tiny_sample_count_raises_fitting_error(self):
        with pytest.raises(FittingError):
            fit_mixture_em(np.array([1.0, 1.1, 1.2]), GAUSSIAN_FAMILY)

    def test_empty_samples_raise_fitting_error(self):
        with pytest.raises(FittingError):
            fit_mixture_em(np.array([]), GAUSSIAN_FAMILY)

    def test_multi_start_degenerates_identically(self):
        (outcome,) = fit_mixture_em_multistart(
            np.full((1, 500), 2.0), SKEW_NORMAL_FAMILY
        )
        assert isinstance(outcome, FittingError)

    def test_underflowing_component_spread_keeps_previous_estimate(self):
        # A narrow component sits on one sample; a neighbour 3.2e-4
        # away gets a ~1e-200 responsibility, so that component's
        # weighted std**4 underflows to zero.  The M-step must treat
        # this as a degenerate update (keep the previous estimate),
        # not crash the fit with ZeroDivisionError.
        data = np.concatenate([np.linspace(-2.0, 2.0, 62), [0.5, 0.50032]])
        initial = Mixture(
            (0.9, 0.1), (GaussianModel(0.0, 1.0), GaussianModel(0.5, 1e-5))
        )
        result = fit_mixture_em(
            data,
            GAUSSIAN_FAMILY,
            config=EMConfig(max_iter=20),
            initial=initial,
        )
        assert result.converged
        narrow = result.mixture.components[1]
        assert (narrow.mu, narrow.sigma) == (0.5, 1e-5)
