"""Norm2: two-component Gaussian mixture timing model.

The GMM-based SSTA model of Takahashi et al. [10], used by the paper as
the "mixture but no skewness" comparison point.  Five parameters:
``(lambda, mu1, sigma1, mu2, sigma2)``; fitted with the same EM loop as
LVF2 but with plain-Gaussian components.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.models.base import TwoComponentModel, register_model
from repro.models.gaussian import GaussianModel
from repro.stats.em import ComponentFamily
from repro.stats.moments import _weighted_moments_rows
from repro.stats.workspace import Workspace

__all__ = ["Norm2Model", "GAUSSIAN_FAMILY"]


def _gaussian_params(component: GaussianModel) -> tuple[float, float]:
    """A Gaussian component's lane: ``(mu, sigma)``."""
    return (component.mu, component.sigma)


def _gaussian_build(lane: Sequence[float]) -> GaussianModel:
    """The :class:`GaussianModel` of a ``(mu, sigma)`` lane."""
    mu, sigma = lane
    return GaussianModel(mu, sigma)


def _gaussian_logpdf_batch(
    params: np.ndarray,
    data: np.ndarray,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Row-wise :meth:`GaussianModel.logpdf` over a stacked batch.

    ``params`` holds one ``(mu, sigma)`` lane per row of ``data``.
    The per-row constant ``math.log(sigma)`` is the serial method's
    ``math`` call; the in-place steps follow its term order, so every
    row is bit-identical to the serial log-density.  The result and
    its temporaries live in ``workspace`` when one is given.
    """
    mus = params[:, 0, None]
    sigmas = params[:, 1, None]
    log_sigmas = np.array([math.log(s) for s in params[:, 1].tolist()])
    rows = data.shape[0]
    scratch = workspace or Workspace(rows, data.shape[1])
    z = scratch.take("logpdf.z", rows)
    out = scratch.take("logpdf.out", rows)
    np.subtract(data, mus, out=z)
    np.divide(z, sigmas, out=z)
    # -0.5 * z * z - log(sigma) - 0.5 * log(2 pi)
    np.multiply(-0.5, z, out=out)
    np.multiply(out, z, out=out)
    np.subtract(out, log_sigmas[:, None], out=out)
    return np.subtract(out, 0.5 * math.log(2.0 * math.pi), out=out)


def _gaussian_fit_weighted_batch(
    data: np.ndarray,
    weights: np.ndarray,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :meth:`GaussianModel.fit_weighted` over a batch.

    Returns the ``(rows, 2)`` ``(mu, sigma)`` lanes and the rows the
    weighted-moment kernel flags for the scalar path.
    """
    means, stds, _, scalar = _weighted_moments_rows(data, weights, workspace)
    return np.array([means, stds]).T, scalar


#: Component family wiring GaussianModel into the generic EM driver.
GAUSSIAN_FAMILY = ComponentFamily(
    name="normal",
    fit=GaussianModel.fit,
    fit_weighted=GaussianModel.fit_weighted,
    params=_gaussian_params,
    build=_gaussian_build,
    logpdf_batch=_gaussian_logpdf_batch,
    fit_weighted_batch=_gaussian_fit_weighted_batch,
)


@register_model
@dataclass(frozen=True, repr=False)
class Norm2Model(TwoComponentModel):
    """Weighted pair of Gaussians ``(1-lambda) N1 + lambda N2``.

    Attributes:
        weight: Mixing weight ``lambda`` of the second component.
        component1: First (lower-mean) :class:`GaussianModel`.
        component2: Second Gaussian, or ``None`` when the fit collapsed
            to a single component.
    """

    name = "Norm2"
    family = GAUSSIAN_FAMILY

    # ------------------------------------------------------------------
    @property
    def n_parameters(self) -> int:
        return 2 if self.is_collapsed else 5

    def parameters(self) -> tuple[float, float, float, float, float]:
        """The five-tuple ``(lambda, mu1, sigma1, mu2, sigma2)``."""
        second = self.component2 or self.component1
        return (
            self.weight,
            self.component1.mu,
            self.component1.sigma,
            second.mu,
            second.sigma,
        )
