"""The skew-normal (SN) distribution and the LVF moment bijection.

LVF (paper §2.2) stores three moment LUTs — mean shift, standard
deviation and skewness — and interprets them as the unique skew-normal
distribution with those moments.  This module implements the SN law

    f(x | xi, omega, alpha)
        = (2 / omega) * phi((x - xi) / omega) * Phi(alpha (x - xi) / omega)

(Eq. 3) together with the bijection ``g`` between the moment vector
``theta = (mu, sigma, gamma)`` and the direct-parameter vector
``Theta = (xi, omega, alpha)`` (Eq. 2, after Azzalini [11]).

The SN family can only express skewness in the open interval
(-MAX_SKEWNESS, MAX_SKEWNESS) with ``MAX_SKEWNESS ~= 0.9953``; the
bijection clamps requested skewness to that range, exactly as an LVF
characterisation tool must.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from repro.errors import ParameterError
from repro.stats.moments import MomentSummary
from repro.stats.quantiles import bracketed_ppf

__all__ = [
    "MAX_SKEWNESS",
    "SkewNormal",
    "delta_from_alpha",
    "alpha_from_delta",
    "moments_to_params",
    "params_to_moments",
    "clamp_skewness",
]

_B = math.sqrt(2.0 / math.pi)
#: Supremum of |skewness| attainable by a skew-normal distribution:
#: the limit alpha -> +inf of the SN skewness formula.
MAX_SKEWNESS = (
    0.5 * (4.0 - math.pi) * (_B**3) / (1.0 - 2.0 / math.pi) ** 1.5
)
#: Default safety margin used when clamping sample skewness into the
#: attainable range; keeps ``alpha`` finite and well-conditioned.
DEFAULT_SKEW_MARGIN = 1e-4

#: ``(0.5 * (4 - pi)) ** (2/3)``, the constant denominator term of the
#: moments->params inversion.
_HALF_GAP = (0.5 * (4.0 - math.pi)) ** (2.0 / 3.0)


def delta_from_alpha(alpha: float) -> float:
    """Return ``delta = alpha / sqrt(1 + alpha^2)``."""
    return alpha / math.sqrt(1.0 + alpha * alpha)


def alpha_from_delta(delta: float) -> float:
    """Inverse of :func:`delta_from_alpha`; requires ``|delta| < 1``."""
    if not -1.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (-1, 1), got {delta}")
    return delta / math.sqrt(1.0 - delta * delta)


def clamp_skewness(
    gamma: float, margin: float = DEFAULT_SKEW_MARGIN
) -> float:
    """Clamp ``gamma`` into the attainable SN skewness range.

    Args:
        gamma: Requested skewness (e.g. a sample skewness, which can
            exceed the SN bound for heavy-tailed data).
        margin: Distance kept from the theoretical supremum so the
            resulting ``alpha`` stays finite.

    Returns:
        The clamped skewness.
    """
    # Branch order matches ``minimum(maximum(g, -b), b)`` exactly,
    # including NaN (both comparisons false -> NaN passes through), so
    # the array form's ``np.clip`` agrees with it lane for lane.
    bound = MAX_SKEWNESS - margin
    if gamma > bound:
        return float(bound)
    if gamma < -bound:
        return float(-bound)
    return float(gamma)


def moments_to_params(
    mean: float,
    std: float,
    skew: float,
    *,
    margin: float = DEFAULT_SKEW_MARGIN,
) -> tuple[float, float, float]:
    """The bijection ``g``: moments ``(mu, sigma, gamma) -> (xi, omega, alpha)``.

    Inverts the classic SN moment formulas:

        mu    = xi + omega * delta * b          (b = sqrt(2/pi))
        sigma = omega * sqrt(1 - b^2 delta^2)
        gamma = (4 - pi)/2 * (delta b)^3 / (1 - b^2 delta^2)^{3/2}

    Args:
        mean: Target mean.
        std: Target standard deviation, must be positive.
        skew: Target skewness; clamped into the attainable range.
        margin: Clamping margin, see :func:`clamp_skewness`.

    Returns:
        ``(xi, omega, alpha)``: location, scale, shape.

    Raises:
        ParameterError: If ``std`` is not positive and finite.
    """
    if not (std > 0.0 and math.isfinite(std)):
        raise ParameterError(f"std must be positive and finite, got {std}")
    gamma = clamp_skewness(skew, margin)
    magnitude = abs(gamma)
    if magnitude < 1e-14:
        return (float(mean), float(std), 0.0)
    ratio = magnitude ** (2.0 / 3.0)
    abs_delta = math.sqrt(
        (math.pi / 2.0) * ratio / (ratio + _HALF_GAP)
    )
    delta = math.copysign(min(abs_delta, 1.0 - 1e-12), gamma)
    alpha = alpha_from_delta(delta)
    omega = std / math.sqrt(1.0 - (_B * delta) ** 2)
    xi = mean - omega * delta * _B
    return (float(xi), float(omega), float(alpha))


def _moments_to_params_rows(
    means: np.ndarray, stds: np.ndarray, skews: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`moments_to_params` lane by lane over 1-D arrays.

    The array form of the bijection ``g``, run by the EM M-step on
    every component lane at once.  Returns ``(xi, omega, alpha, bad)``.
    ``bad`` flags each lane the arrays do not stand for: ``std`` not
    positive and finite (where :func:`moments_to_params` raises), or a
    result :class:`SkewNormal` rejects.  A flagged lane's values are
    meaningless; its caller resolves it through the scalar functions.
    Every other lane is bit-identical to :func:`moments_to_params`
    with the default margin: ``+ - * / sqrt`` round the same in numpy
    and ``math``, and the two powers run per lane through Python's
    ``**`` (libm) because numpy's vector ``power`` loop can differ
    from it by an ulp.
    """
    bound = MAX_SKEWNESS - DEFAULT_SKEW_MARGIN
    gamma = np.minimum(np.maximum(skews, -bound), bound)
    magnitude = np.abs(gamma)
    ratio = np.array([g ** (2.0 / 3.0) for g in magnitude.tolist()])
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        abs_delta = np.sqrt((math.pi / 2.0) * ratio / (ratio + _HALF_GAP))
        delta = np.copysign(np.minimum(abs_delta, 1.0 - 1e-12), gamma)
        alpha = delta / np.sqrt(1.0 - delta * delta)
        squared = np.array([v**2 for v in (_B * delta).tolist()])
        omega = stds / np.sqrt(1.0 - squared)
        xi = means - omega * delta * _B
        small = magnitude < 1e-14
        if small.any():
            xi[small] = means[small]
            omega[small] = stds[small]
            alpha[small] = 0.0
        # ``omega`` is ``std`` over a factor in (0.6, 1], so it is
        # positive and finite exactly where ``std`` is (short of
        # overflow); a finite sum means all three are finite, and an
        # overflowing one only flags a lane the scalar path then fits.
        good = (omega > 0.0) & np.isfinite(xi + omega + alpha)
    return xi, omega, alpha, ~good


def params_to_moments(
    xi: float, omega: float, alpha: float
) -> tuple[float, float, float]:
    """Inverse bijection: ``(xi, omega, alpha) -> (mu, sigma, gamma)``."""
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ParameterError(
            f"omega must be positive and finite, got {omega}"
        )
    delta = delta_from_alpha(alpha)
    mean = xi + omega * delta * _B
    variance = omega * omega * (1.0 - (_B * delta) ** 2)
    std = math.sqrt(variance)
    centered = delta * _B
    gamma = (
        0.5
        * (4.0 - math.pi)
        * centered**3
        / (1.0 - centered**2) ** 1.5
    )
    return (float(mean), float(std), float(gamma))


@dataclass(frozen=True)
class SkewNormal:
    """A skew-normal distribution in direct parameterisation.

    Attributes:
        xi: Location parameter.
        omega: Scale parameter (positive).
        alpha: Shape parameter; 0 recovers the Gaussian.
    """

    xi: float
    omega: float
    alpha: float

    def __post_init__(self) -> None:
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ParameterError(
                f"omega must be positive and finite, got {self.omega}"
            )
        if not (math.isfinite(self.xi) and math.isfinite(self.alpha)):
            raise ParameterError("xi and alpha must be finite")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_moments(
        cls, mean: float, std: float, skew: float = 0.0
    ) -> "SkewNormal":
        """Build the SN with the given moments (the LVF interpretation)."""
        xi, omega, alpha = moments_to_params(mean, std, skew)
        return cls(xi, omega, alpha)

    @classmethod
    def standard(cls, alpha: float = 0.0) -> "SkewNormal":
        """Unit-location/scale SN with the given shape."""
        return cls(0.0, 1.0, alpha)

    # ------------------------------------------------------------------
    # Density / distribution functions
    # ------------------------------------------------------------------
    def _z(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.xi) / self.omega

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Probability density (Eq. 3)."""
        z = self._z(x)
        base = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return 2.0 / self.omega * base * ndtr(self.alpha * z)

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log-density, numerically stable in the far tail."""
        z = self._z(x)
        log_phi = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
        # log Phi via scipy's log_ndtr for tail stability.
        from scipy.special import log_ndtr

        return (
            math.log(2.0 / self.omega) + log_phi + log_ndtr(self.alpha * z)
        )

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """CDF via Owen's T: ``Phi(z) - 2 T(z, alpha)``."""
        z = self._z(x)
        values = ndtr(z) - 2.0 * owens_t(z, self.alpha)
        return np.clip(values, 0.0, 1.0)

    def sf(self, x: np.ndarray) -> np.ndarray:
        """Survival function ``1 - cdf``."""
        return 1.0 - self.cdf(x)

    def ppf(self, q: np.ndarray) -> np.ndarray:
        """Quantile function by bracketed root-finding on the CDF."""
        mean, std, _ = self.moments_tuple()
        return bracketed_ppf(
            self.cdf, q, mean, std,
            xtol=1e-12 * max(1.0, abs(mean)) + 1e-15,
        )

    # ------------------------------------------------------------------
    # Sampling and moments
    # ------------------------------------------------------------------
    def rvs(
        self,
        size: int,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Draw samples using the two-normal representation.

        If ``(U0, U1)`` are iid standard normal and
        ``delta = alpha / sqrt(1 + alpha^2)``, then
        ``Z = delta |U0| + sqrt(1 - delta^2) U1`` is standard SN(alpha).
        """
        generator = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(rng)
        )
        delta = delta_from_alpha(self.alpha)
        u0 = generator.standard_normal(size)
        u1 = generator.standard_normal(size)
        z = delta * np.abs(u0) + math.sqrt(1.0 - delta * delta) * u1
        return self.xi + self.omega * z

    def moments_tuple(self) -> tuple[float, float, float]:
        """Return ``(mean, std, skewness)``."""
        return params_to_moments(self.xi, self.omega, self.alpha)

    def moments(self) -> MomentSummary:
        """Full four-moment summary (analytic, including kurtosis)."""
        mean, std, gamma = self.moments_tuple()
        delta = delta_from_alpha(self.alpha)
        centered = _B * delta
        kurt = (
            2.0
            * (math.pi - 3.0)
            * centered**4
            / (1.0 - centered**2) ** 2
        )
        return MomentSummary(mean, std, gamma, kurt, count=0)

    @property
    def mean(self) -> float:
        return self.moments_tuple()[0]

    @property
    def std(self) -> float:
        return self.moments_tuple()[1]

    @property
    def skewness(self) -> float:
        return self.moments_tuple()[2]

    def median(self) -> float:
        """Median (the 0.5 quantile)."""
        return float(self.ppf(0.5))

    def support_grid(self, n_points: int = 512, spread: float = 6.0) -> np.ndarray:
        """Evenly spaced grid covering ``mean +/- spread * std``."""
        mean, std, _ = self.moments_tuple()
        return np.linspace(mean - spread * std, mean + spread * std, n_points)

    def shift(self, offset: float) -> "SkewNormal":
        """Return the distribution of ``X + offset``."""
        return SkewNormal(self.xi + offset, self.omega, self.alpha)

    def scale(self, factor: float) -> "SkewNormal":
        """Return the distribution of ``factor * X`` for ``factor > 0``."""
        if factor <= 0.0:
            raise ParameterError("scale factor must be positive")
        return SkewNormal(self.xi * factor, self.omega * factor, self.alpha)


def _gaussian_quantile(q: np.ndarray) -> np.ndarray:
    """Standard-normal quantile (exported for internal reuse)."""
    return ndtri(np.asarray(q, dtype=float))
