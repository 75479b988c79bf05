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

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ParameterError
from repro.models.base import TimingModel, register_model
from repro.stats.moments import (
    MomentSummary,
    sample_moments,
    weighted_moments,
)
from repro.stats.skew_normal import (
    _B,
    _HALF_GAP,
    DEFAULT_SKEW_MARGIN,
    MAX_SKEWNESS,
    SkewNormal,
)

__all__ = ["LVFModel"]


class _SNLane:
    """A moment triple with its skew-normal direct parameters.

    The batched EM M-step builds one per component per iteration per
    grid point, and the lockstep E-step only reads ``(xi, omega,
    alpha)``; building a full ``LVFModel`` (two frozen dataclasses
    plus the stored-skewness round trip) for each of them is the
    single hottest scalar cost of the batched fit.  :func:`_lvf_from_lane`
    turns a lane into its model once the row converges.
    """

    __slots__ = ("mean", "std", "xi", "omega", "alpha")


def _sn_lane(mean: float, std: float, skew: float) -> _SNLane:
    """Invert ``(mean, std, skew)`` to skew-normal parameters, inlined.

    Runs the *same scalar expressions in the same order* as
    :func:`~repro.stats.skew_normal.moments_to_params` (the reference)
    and the ``SkewNormal.__post_init__`` checks, without their call
    layers, and raises the same :class:`ParameterError` on the same
    inputs.
    """
    if not (std > 0.0 and math.isfinite(std)):
        raise ParameterError(
            f"std must be positive and finite, got {std}"
        )
    bound = MAX_SKEWNESS - DEFAULT_SKEW_MARGIN
    if skew > bound:
        gamma = float(bound)
    elif skew < -bound:
        gamma = float(-bound)
    else:
        gamma = float(skew)
    magnitude = abs(gamma)
    if magnitude < 1e-14:
        xi, omega, alpha = float(mean), float(std), 0.0
    else:
        ratio = magnitude ** (2.0 / 3.0)
        abs_delta = math.sqrt(
            (math.pi / 2.0) * ratio / (ratio + _HALF_GAP)
        )
        delta = math.copysign(min(abs_delta, 1.0 - 1e-12), gamma)
        if not -1.0 < delta < 1.0:
            raise ParameterError(
                f"delta must lie in (-1, 1), got {delta}"
            )
        alpha = delta / math.sqrt(1.0 - delta * delta)
        omega = std / math.sqrt(1.0 - (_B * delta) ** 2)
        xi = mean - omega * delta * _B
        xi, omega, alpha = float(xi), float(omega), float(alpha)
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ParameterError(
            f"omega must be positive and finite, got {omega}"
        )
    if not (math.isfinite(xi) and math.isfinite(alpha)):
        raise ParameterError("xi and alpha must be finite")
    lane = _SNLane()
    lane.mean = mean
    lane.std = std
    lane.xi = xi
    lane.omega = omega
    lane.alpha = alpha
    return lane


def _lvf_from_lane(lane: _SNLane) -> "LVFModel":
    """Build the ``LVFModel`` of a lane without dispatch overhead.

    Computes the stored skewness with the ``params_to_moments`` gamma
    expression and fills the frozen dataclasses directly, so the model
    is bit-identical, field for field, to
    ``LVFModel(lane.mean, lane.std, skew)``.
    """
    delta_back = lane.alpha / math.sqrt(1.0 + lane.alpha * lane.alpha)
    centered = delta_back * _B
    stored_gamma = float(
        0.5
        * (4.0 - math.pi)
        * centered**3
        / (1.0 - centered**2) ** 1.5
    )
    sn = SkewNormal.__new__(SkewNormal)
    object.__setattr__(sn, "xi", lane.xi)
    object.__setattr__(sn, "omega", lane.omega)
    object.__setattr__(sn, "alpha", lane.alpha)
    model = LVFModel.__new__(LVFModel)
    object.__setattr__(model, "mu", lane.mean)
    object.__setattr__(model, "sigma", lane.std)
    object.__setattr__(model, "gamma", stored_gamma)
    object.__setattr__(model, "nominal", None)
    object.__setattr__(model, "_sn", sn)
    return model


def _lvf_from_moments_fast(
    mean: float, std: float, skew: float
) -> "LVFModel":
    """``LVFModel(mean, std, skew)``, bit-identical, for the hot paths."""
    return _lvf_from_lane(_sn_lane(mean, std, skew))


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
        if cls is LVFModel:
            return _lvf_from_moments_fast(
                summary.mean, summary.std, summary.skewness
            )
        return cls(summary.mean, summary.std, summary.skewness)

    @classmethod
    def fit_weighted(
        cls, samples: np.ndarray, weights: np.ndarray
    ) -> "LVFModel":
        """Weighted moment fit — the LVF2 EM M-step for one component."""
        summary = weighted_moments(samples, weights)
        if cls is LVFModel:
            return _lvf_from_moments_fast(
                summary.mean, summary.std, summary.skewness
            )
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
