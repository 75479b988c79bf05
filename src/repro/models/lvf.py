"""The LVF timing model: a single skew-normal (paper §2.2).

LVF is the industry-standard baseline of all the paper's experiments.
It stores the statistical-moment vector ``theta = (mu, sigma, gamma)``
exactly as the Liberty LUTs do (``ocv_mean_shift``, ``ocv_std_dev``,
``ocv_skewness``), and interprets it through the bijection ``g`` as a
skew-normal distribution (Eq. 3).

The sample skewness of heavy-tailed MC data routinely exceeds the SN
attainable bound (|gamma| < 0.9953); like production characterisation
tools, the fit clamps the stored skewness — that clamping is itself one
of the error sources LVF2 removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.models.base import TimingModel, register_model
from repro.stats.moments import (
    MomentSummary,
    sample_moments,
    weighted_moments,
)
from repro.stats.skew_normal import SkewNormal

__all__ = ["LVFModel"]


def _lvf_from_direct(
    mean: float, std: float, sn: SkewNormal
) -> "LVFModel":
    """The ``LVFModel(mean, std, skew)`` whose moment inversion is ``sn``.

    The EM M-step inverts each lane's moment triple in array form and
    keeps the direct parameters.  Rebuilding the model from them,
    rather than re-inverting its stored (round-tripped) skewness,
    keeps ``xi`` exact to the ulp.  The fields are the ones
    ``__post_init__`` sets.
    """
    model = LVFModel.__new__(LVFModel)
    object.__setattr__(model, "mu", mean)
    object.__setattr__(model, "sigma", std)
    object.__setattr__(model, "gamma", sn.skewness)
    object.__setattr__(model, "nominal", None)
    object.__setattr__(model, "_sn", sn)
    return model


@register_model
@dataclass(frozen=True, repr=False)
class LVFModel(TimingModel):
    """Single skew-normal, parameterised by LVF moment triple.

    Attributes:
        mu: LVF mean (``nominal + ocv_mean_shift``).
        sigma: LVF standard deviation (``ocv_std_dev``).
        gamma: LVF skewness *as stored* (``ocv_skewness``); already
            clamped into the SN-attainable range.
        nominal: Nominal (deterministic-corner) value; defaults to the
            mean when a fit has no separate nominal simulation.
    """

    name = "LVF"

    mu: float
    sigma: float
    gamma: float
    nominal: float | None = None
    _sn: SkewNormal = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_sn", SkewNormal.from_moments(self.mu, self.sigma, self.gamma)
        )
        # Store the attainable (possibly clamped) skewness so that the
        # stored triple always round-trips through Liberty LUTs.
        object.__setattr__(self, "gamma", self._sn.skewness)

    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, samples: np.ndarray, **kwargs: Any) -> "LVFModel":
        """Moment-match a skew-normal to the samples."""
        summary = sample_moments(samples)
        return cls(summary.mean, summary.std, summary.skewness)

    @classmethod
    def fit_weighted(
        cls, samples: np.ndarray, weights: np.ndarray
    ) -> "LVFModel":
        """Weighted moment fit — the LVF2 EM M-step for one component."""
        summary = weighted_moments(samples, weights)
        return cls(summary.mean, summary.std, summary.skewness)

    @classmethod
    def from_skew_normal(
        cls, sn: SkewNormal, nominal: float | None = None
    ) -> "LVFModel":
        """Wrap an existing skew-normal distribution."""
        mean, std, gamma = sn.moments_tuple()
        return cls(mean, std, gamma, nominal=nominal)

    # ------------------------------------------------------------------
    @property
    def skew_normal(self) -> SkewNormal:
        """The underlying SN distribution (direct parameterisation)."""
        return self._sn

    @property
    def mean_shift(self) -> float:
        """``ocv_mean_shift`` value: mean minus nominal."""
        base = self.nominal if self.nominal is not None else self.mu
        return self.mu - base

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return self._sn.pdf(x)

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        return self._sn.logpdf(x)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return self._sn.cdf(x)

    def ppf(self, q: np.ndarray) -> np.ndarray:
        return self._sn.ppf(q)

    def rvs(
        self, size: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        return self._sn.rvs(size, rng=rng)

    def moments(self) -> MomentSummary:
        return self._sn.moments()

    @property
    def n_parameters(self) -> int:
        return 3

    def theta(self) -> tuple[float, float, float]:
        """The LVF moment vector ``(mu, sigma, gamma)`` (Eq. 2)."""
        return (self.mu, self.sigma, self.gamma)
