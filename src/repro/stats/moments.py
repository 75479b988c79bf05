"""Sample-moment utilities.

The LVF family of timing models is defined in terms of the first four
standardised moments: mean, standard deviation, skewness and (excess)
kurtosis.  This module computes them for plain and weighted samples and
provides a small container, :class:`MomentSummary`, used throughout the
model-fitting code.

Skewness follows the Fisher-Pearson definition ``E[(x-mu)^3] / sigma^3``
and kurtosis is the *excess* kurtosis ``E[(x-mu)^4] / sigma^4 - 3`` so a
Gaussian scores 0 on both, matching the conventions of the LVF standard
and of the LESN literature the paper compares against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FittingError
from repro.runtime import telemetry
from repro.stats.workspace import Workspace

__all__ = [
    "MomentSummary",
    "central_moment",
    "excess_kurtosis",
    "sample_moments",
    "skewness",
    "standard_error_of_mean",
    "validate_samples",
    "weighted_moments",
]


@dataclass(frozen=True)
class MomentSummary:
    """First four standardised moments of a sample or distribution.

    Attributes:
        mean: First raw moment.
        std: Standard deviation (positive).
        skewness: Fisher-Pearson skewness; 0 for symmetric laws.
        kurtosis: *Excess* kurtosis; 0 for a Gaussian.
        count: Number of samples summarised (0 for analytic moments).
    """

    mean: float
    std: float
    skewness: float
    kurtosis: float
    count: int = 0

    @property
    def variance(self) -> float:
        """Second central moment."""
        return self.std * self.std

    def standardize(self, x: np.ndarray) -> np.ndarray:
        """Map ``x`` to zero-mean unit-variance coordinates."""
        return (np.asarray(x, dtype=float) - self.mean) / self.std

    def sigma_point(self, k: float) -> float:
        """Return ``mean + k * std`` (e.g. ``k=3`` for the 3-sigma point)."""
        return self.mean + k * self.std

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Return ``(mean, std, skewness, kurtosis)``."""
        return (self.mean, self.std, self.skewness, self.kurtosis)


def validate_samples(samples: np.ndarray, minimum: int = 2) -> np.ndarray:
    """Coerce ``samples`` to a finite 1-D float array.

    Args:
        samples: Array-like of observations.
        minimum: Minimum acceptable number of samples.

    Returns:
        A contiguous 1-D ``float64`` array.

    Raises:
        FittingError: If the input is empty, too short, or contains
            non-finite values.
    """
    array = np.asarray(samples, dtype=float).ravel()
    if array.size < minimum:
        raise FittingError(
            f"need at least {minimum} samples, got {array.size}"
        )
    if not np.all(np.isfinite(array)):
        bad = int(np.count_nonzero(~np.isfinite(array)))
        raise FittingError(f"samples contain {bad} non-finite values")
    return np.ascontiguousarray(array)


def central_moment(samples: np.ndarray, order: int) -> float:
    """Return the ``order``-th central moment of ``samples``."""
    array = np.asarray(samples, dtype=float)
    if order < 1:
        raise ValueError(f"moment order must be >= 1, got {order}")
    if order == 1:
        return 0.0
    deviations = array - array.mean()
    return float(np.mean(deviations**order))


def skewness(samples: np.ndarray) -> float:
    """Fisher-Pearson skewness of ``samples`` (0 for symmetric data)."""
    array = validate_samples(samples)
    std = array.std()
    if std == 0.0:
        return 0.0
    return central_moment(array, 3) / std**3


def excess_kurtosis(samples: np.ndarray) -> float:
    """Excess kurtosis of ``samples`` (0 for Gaussian data)."""
    array = validate_samples(samples)
    std = array.std()
    if std == 0.0:
        return 0.0
    return central_moment(array, 4) / std**4 - 3.0


def sample_moments(samples: np.ndarray) -> MomentSummary:
    """Compute the first four standardised moments of ``samples``.

    Raises:
        FittingError: If the sample is degenerate (zero variance) —
            a constant "distribution" cannot parameterise any of the
            timing models.
    """
    with telemetry.span("moments.sample", n=int(np.size(samples))):
        array = validate_samples(samples)
        mean = float(array.mean())
        std = float(array.std())
        if std == 0.0:
            raise FittingError("samples have zero variance")
        deviations = (array - mean) / std
        skew = float(np.mean(deviations**3))
        kurt = float(np.mean(deviations**4) - 3.0)
    return MomentSummary(mean, std, skew, kurt, count=array.size)


def weighted_moments(samples: np.ndarray, weights: np.ndarray) -> MomentSummary:
    """Compute weighted moments, as used in the EM M-step.

    Args:
        samples: 1-D observations.
        weights: Non-negative responsibilities, same shape as ``samples``.
            They need not be normalised.

    Returns:
        Moments of the weighted empirical distribution.

    Raises:
        FittingError: If total weight is not positive, shapes mismatch,
            or the weighted variance vanishes.
    """
    array = np.asarray(samples, dtype=float).ravel()
    weight = np.asarray(weights, dtype=float).ravel()
    if array.shape != weight.shape:
        raise FittingError(
            f"samples/weights shape mismatch: {array.shape} vs {weight.shape}"
        )
    if np.any(weight < 0.0):
        raise FittingError("weights must be non-negative")
    total = weight.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise FittingError("total weight must be positive and finite")
    # Reductions are explicit elementwise-product + pairwise ``np.sum``
    # (not ``np.dot``): BLAS dot products use a different accumulation
    # order, and the batched kernel below must reproduce these sums
    # bit-for-bit with ``axis=1`` reductions.
    probability = weight / total
    mean = float(np.sum(probability * array))
    deviations = array - mean
    squared = deviations * deviations
    variance = float(np.sum(probability * squared))
    if variance <= 0.0:
        raise FittingError("weighted variance is zero")
    std = float(np.sqrt(variance))
    # A positive variance can still be so small that ``std**4`` (and
    # for smaller values ``std**3``) underflows to zero; the divisions
    # below would then raise ``ZeroDivisionError``, which is not a
    # fitting outcome the EM loop can recover from.
    if std**4 == 0.0:
        raise FittingError("weighted standard deviation underflows")
    cubed = squared * deviations
    skew = float(np.sum(probability * cubed)) / std**3
    kurt = (
        float(np.sum(probability * (cubed * deviations))) / std**4 - 3.0
    )
    # Effective sample size a la Kish; informative for diagnostics.
    effective = int(round(total**2 / float(np.sum(weight * weight))))
    return MomentSummary(mean, std, skew, kurt, count=effective)


#: Largest ``std`` whose powers the M-step kernel takes on the array
#: path; a lane with a larger one, whose ``std**4`` may overflow (and
#: raise in :func:`weighted_moments`), takes the scalar path.
_POW_SAFE_STD = 1e77


def _weighted_moments_rows(
    array: np.ndarray,
    weight: np.ndarray,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise :func:`weighted_moments`: the EM M-step's kernel.

    ``array`` and ``weight`` must be C-contiguous 2-D stacks of equal
    shape.  Returns ``(means, stds, skews, scalar)``, one entry per
    row.  ``scalar`` flags every row on which :func:`weighted_moments`
    raises, and every row whose ``std`` exceeds :data:`_POW_SAFE_STD`;
    a flagged row's values are meaningless, and its caller resolves it
    through the scalar function.  Every other row is bit-identical to
    the ``(mean, std, skewness)`` of :func:`weighted_moments`: all sums
    run along ``axis=1`` (the serial pairwise order), ``+ - * / sqrt``
    round the same in numpy and Python, and ``std**3`` / ``std**4``
    run per row through Python's ``**`` (libm), because numpy's vector
    ``power`` loop can differ from it by an ulp.

    Every ``(n_points, n_samples)`` temporary lives in ``workspace`` (a
    fresh one when ``None``), so the EM loop, which passes its block
    workspace, allocates no row-sized array here.
    """
    rows, n_samples = array.shape
    scratch = workspace or Workspace(rows, n_samples)
    mask = scratch.take("moments.mask", rows, dtype=bool)
    probability = scratch.take("moments.probability", rows)
    deviations = scratch.take("moments.deviations", rows)
    power = scratch.take("moments.power", rows)
    product = scratch.take("moments.product", rows)
    negative = np.any(np.less(weight, 0.0, out=mask), axis=1)
    totals = weight.sum(axis=1)
    # Flagged rows divide by zero/inf below; their values are dropped,
    # and rows are independent, so suppress the warnings rather than
    # branch per row.  Each in-place step below is the same ufunc on
    # the same operands as the serial expression in
    # ``weighted_moments``; the trailing comments name what the reused
    # ``power`` buffer holds.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        np.divide(weight, totals[:, None], out=probability)
        means = np.sum(
            np.multiply(probability, array, out=product), axis=1
        )
        np.subtract(array, means[:, None], out=deviations)
        np.multiply(deviations, deviations, out=power)  # squared
        variances = np.sum(
            np.multiply(probability, power, out=product), axis=1
        )
        np.multiply(power, deviations, out=power)  # cubed
        sums3 = np.sum(
            np.multiply(probability, power, out=product), axis=1
        )
        sumw2 = np.sum(np.multiply(weight, weight, out=product), axis=1)
        stds = np.sqrt(variances)
        good = (
            ~negative
            & (totals > 0.0)
            # The Kish effective count is not returned, but ``int`` of
            # an infinite or NaN ratio raises in the serial function.
            & (sumw2 > 0.0)
            & np.isfinite(totals * totals / sumw2)
        )
        # ``0 < std`` is ``variance > 0``; a ``std`` above the bound
        # (or NaN) gets no powers and is flagged by its zero ``std**4``.
        stds_l = stds.tolist()
        fourth = np.array(
            [std**4 if 0.0 < std <= _POW_SAFE_STD else 0.0 for std in stds_l]
        )
        cube = np.array(
            [std**3 if 0.0 < std <= _POW_SAFE_STD else 1.0 for std in stds_l]
        )
        good &= fourth != 0.0
        skews = sums3 / cube
    return means, stds, skews, ~good


def standard_error_of_mean(samples: np.ndarray) -> float:
    """Standard error of the sample mean."""
    array = validate_samples(samples)
    return float(array.std(ddof=1) / np.sqrt(array.size))
