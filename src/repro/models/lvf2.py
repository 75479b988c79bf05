"""LVF2: the paper's statistical timing model (§3).

A two-component mixture of skew-normals (Eq. 4):

    f(x) = (1 - lambda) * f_SN(x | theta1) + lambda * f_SN(x | theta2)

fitted by EM (Eqs. 5-9) with k-means + method-of-moments
initialisation.  Each component is an :class:`repro.models.lvf.LVFModel`
so the mixture carries exactly the seven Liberty attributes of §3.3:
``(lambda, mu1, sigma1, gamma1, mu2, sigma2, gamma2)``.

Backward compatibility (Eq. 10): when ``lambda == 0`` (or the EM fit
collapses), the model *is* a plain LVF distribution; :meth:`to_lvf`
returns it and the Liberty writer emits only the conventional LVF
attributes for it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, logit

from repro.errors import FittingError, ParameterError
from repro.models.base import TimingModel, TwoComponentModel, register_model
from repro.models.lvf import LVFModel, _lvf_from_direct
from repro.models.norm2 import GAUSSIAN_FAMILY
from repro.stats.em import (
    ComponentFamily,
    EMConfig,
    EMResult,
    fit_mixture_em_batch,
)
from repro.stats.kmeans import KMeansResult
from repro.stats.mixtures import Mixture
from repro.stats.moments import _weighted_moments_rows
from repro.stats.skew_normal import SkewNormal, _moments_to_params_rows
from repro.stats.workspace import Workspace

__all__ = ["LVF2Model", "SKEW_NORMAL_FAMILY"]


def _sn_params(component: Any) -> tuple[float, ...]:
    """A skew-normal component's lane: ``(mean, std, xi, omega, alpha)``.

    An :class:`LVFModel` gives its fitted ``(mu, sigma)`` and its
    distribution's direct parameters, never a re-inversion of its
    stored (round-tripped) skewness, which can move ``xi`` by an ulp.
    A bare :class:`SkewNormal` (a legal warm-start component) gives
    its analytic mean and std.
    """
    if isinstance(component, LVFModel):
        mean, std, sn = component.mu, component.sigma, component.skew_normal
    else:
        (mean, std, _), sn = component.moments_tuple(), component
    return (mean, std, sn.xi, sn.omega, sn.alpha)


def _sn_build(lane: Sequence[float]) -> LVFModel:
    """The :class:`LVFModel` of a ``(mean, std, xi, omega, alpha)`` lane."""
    mean, std, xi, omega, alpha = lane
    return _lvf_from_direct(mean, std, SkewNormal(xi, omega, alpha))


def _sn_logpdf_batch(
    params: np.ndarray,
    data: np.ndarray,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Row-wise skew-normal log-density over a stacked batch.

    ``params`` holds one :func:`_sn_params` lane per row of ``data``.
    Follows :meth:`repro.stats.skew_normal.SkewNormal.logpdf` term for
    term: the per-row constant is the serial ``math.log(2.0 / omega)``
    call, and the in-place steps keep the serial association order
    ``(const + log_phi) + log_ndtr``, so every row is bit-identical to
    the serial method.  The result and its temporaries live in
    ``workspace`` when one is given.
    """
    from scipy.special import log_ndtr

    xis = params[:, 2, None]
    omegas = params[:, 3, None]
    alphas = params[:, 4, None]
    consts = np.array([math.log(2.0 / o) for o in params[:, 3].tolist()])
    rows = data.shape[0]
    scratch = workspace or Workspace(rows, data.shape[1])
    z = scratch.take("logpdf.z", rows)
    tail = scratch.take("logpdf.tail", rows)
    out = scratch.take("logpdf.out", rows)
    np.subtract(data, xis, out=z)
    np.divide(z, omegas, out=z)
    # log_phi = -0.5 * z * z - 0.5 * log(2 pi)
    np.multiply(-0.5, z, out=out)
    np.multiply(out, z, out=out)
    np.subtract(out, 0.5 * math.log(2.0 * math.pi), out=out)
    np.add(consts[:, None], out, out=out)
    log_ndtr(np.multiply(alphas, z, out=tail), out=tail)
    return np.add(out, tail, out=out)


def _sn_fit_weighted_batch(
    data: np.ndarray,
    weights: np.ndarray,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :meth:`LVFModel.fit_weighted` over a batch.

    Returns the ``(rows, 5)`` :func:`_sn_params` lanes and the rows
    that need the scalar path: those the weighted-moment kernel or the
    array moment inversion flags.
    """
    means, stds, skews, scalar = _weighted_moments_rows(
        data, weights, workspace
    )
    xi, omega, alpha, bad = _moments_to_params_rows(means, stds, skews)
    return np.array([means, stds, xi, omega, alpha]).T, scalar | bad


#: Component family wiring LVFModel (skew-normal) into the EM driver.
SKEW_NORMAL_FAMILY = ComponentFamily(
    name="skew-normal",
    fit=LVFModel.fit,
    fit_weighted=LVFModel.fit_weighted,
    params=_sn_params,
    build=_sn_build,
    logpdf_batch=_sn_logpdf_batch,
    fit_weighted_batch=_sn_fit_weighted_batch,
)


@register_model
@dataclass(frozen=True, repr=False)
class LVF2Model(TwoComponentModel):
    """Weighted pair of skew-normals, the LVF2 distribution (Eq. 4).

    Attributes:
        weight: Mixing weight ``lambda`` of the second component
            (``ocv_weight2`` in the Liberty extension).
        component1: First skew-normal as an :class:`LVFModel` triple.
        component2: Second skew-normal, or ``None`` for a collapsed /
            plain-LVF model (``lambda = 0``, Eq. 10).
        nominal: Optional nominal corner value carried through to the
            Liberty mean-shift attributes.
    """

    name = "LVF2"
    family = SKEW_NORMAL_FAMILY

    nominal: float | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    @classmethod
    def fit_batch(
        cls,
        samples: np.ndarray,
        *,
        config: EMConfig | None = None,
        refine: str = "none",
        **kwargs: Any,
    ) -> "list[LVF2Model | Exception]":
        """Fit one LVF2 model per row of a ``(n_points, n_samples)`` stack.

        :meth:`TwoComponentModel.fit_batch` with the Norm2 warm start
        (:meth:`_warm_starts`); :meth:`fit` is a batch of one.

        Args:
            samples: Stacked observations, one grid point per row.
            config: EM settings shared by all rows.
            refine: ``"none"`` for the plain EM (moment-based M-step)
                or ``"mle"`` to follow EM on every uncollapsed row
                with :meth:`refine_mle`, a direct L-BFGS ascent of the
                full log-likelihood (Eq. 5).

        Returns:
            One entry per row: the fitted model, or the exception
            :meth:`fit` raises on that row.
        """
        if refine not in ("none", "mle"):
            raise ParameterError(
                f"refine must be 'none' or 'mle', got {refine!r}"
            )
        return super().fit_batch(samples, config=config, refine=refine)

    @classmethod
    def _warm_starts(
        cls,
        stack: np.ndarray,
        splits: list[KMeansResult | None],
        config: EMConfig | None,
    ) -> list[Mixture | Exception | None]:
        """Each row's Norm2 warm start: a two-Gaussian EM fit.

        The Gaussian EM runs from the row's k-means split and is recast
        as zero-skew components.  Skew-normal mixtures generalise
        Gaussian ones, so the warm start puts one LVF2 start in the
        basin of a two-Gaussian fit.  It does not make LVF2 at least as
        likely as Norm2: the warm start is the Gaussian fit from the
        k-means split, not Norm2's best start, and the moment M-step is
        not an ascent step, so LVF2 can end below Norm2 (the Table 1
        Multi-Peaks scenario and a few Fig. 4 delay points do).  A
        Gaussian fit that raises :class:`FittingError` or collapses
        means "no warm start"; any other error fails the row.
        """
        warms: list[Mixture | Exception | None] = []
        for gaussian in fit_mixture_em_batch(
            stack, GAUSSIAN_FAMILY, config=config, initials=splits
        ):
            if isinstance(gaussian, FittingError) or (
                isinstance(gaussian, EMResult) and gaussian.collapsed
            ):
                warms.append(None)
            elif isinstance(gaussian, Exception):
                warms.append(gaussian)
            else:
                try:
                    components = tuple(
                        LVFModel(component.mu, component.sigma, 0.0)
                        for component in gaussian.mixture.components
                    )
                    warms.append(
                        Mixture(gaussian.mixture.weights, components)
                    )
                except Exception as error:  # noqa: BLE001 — row error
                    warms.append(error)
        return warms

    @classmethod
    def _finish(
        cls,
        model: "LVF2Model",
        row: np.ndarray,
        *,
        refine: str = "none",
        **kwargs: Any,
    ) -> "LVF2Model":
        """``refine="mle"`` polishes an uncollapsed model on its row."""
        if refine == "mle" and not model.is_collapsed:
            return model.refine_mle(row)
        return model

    @classmethod
    def from_lvf(cls, lvf: LVFModel) -> "LVF2Model":
        """Eq. 10: interpret a plain LVF triple as LVF2 with lambda=0."""
        return cls(0.0, lvf, None, nominal=lvf.nominal)

    def refine_mle(self, samples: np.ndarray) -> "LVF2Model":
        """Maximise the observed-data log-likelihood directly.

        EM with a moment-based M-step is a conditional-maximisation
        scheme; this optional pass polishes its output with L-BFGS on
        the direct parameterisation ``(logit lambda, xi_i, log omega_i,
        alpha_i)``.  Returns the better of the two fits by likelihood.
        """
        if self.component2 is None:
            return self
        data = np.asarray(samples, dtype=float).ravel()
        sn1 = self.component1.skew_normal
        sn2 = self.component2.skew_normal
        start = np.array(
            [
                logit(min(max(self.weight, 1e-6), 1.0 - 1e-6)),
                sn1.xi,
                math.log(sn1.omega),
                sn1.alpha,
                sn2.xi,
                math.log(sn2.omega),
                sn2.alpha,
            ]
        )

        def negative_loglik(params: np.ndarray) -> float:
            lam = float(expit(params[0]))
            try:
                mix = Mixture(
                    (1.0 - lam, lam),
                    (
                        SkewNormal(
                            params[1], math.exp(params[2]), params[3]
                        ),
                        SkewNormal(
                            params[4], math.exp(params[5]), params[6]
                        ),
                    ),
                )
            except (ParameterError, OverflowError):
                return 1e12
            value = mix.loglik(data)
            return 1e12 if not math.isfinite(value) else -value

        result = minimize(
            negative_loglik, start, method="L-BFGS-B",
            options={"maxiter": 300},
        )
        if not math.isfinite(result.fun) or -result.fun <= self.loglik(data):
            return self
        lam = float(expit(result.x[0]))
        first = LVFModel.from_skew_normal(
            SkewNormal(result.x[1], math.exp(result.x[2]), result.x[3])
        )
        second = LVFModel.from_skew_normal(
            SkewNormal(result.x[4], math.exp(result.x[5]), result.x[6])
        )
        if first.mu > second.mu:
            first, second = second, first
            lam = 1.0 - lam
        return LVF2Model(lam, first, second, nominal=self.nominal)

    def collapse_by_bic(self, samples: np.ndarray) -> TimingModel:
        """Return plain LVF when BIC prefers it (paper §3.4 insight).

        The CLT analysis says LVF2's advantage vanishes for
        near-Gaussian data; a BIC comparison against the 3-parameter
        LVF fit implements the "when to switch back" rule and saves
        library storage.
        """
        lvf = LVFModel.fit(samples)
        if self.is_collapsed or lvf.bic(samples) <= self.bic(samples):
            return lvf
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def to_lvf(self) -> LVFModel:
        """Project to the backward-compatible LVF triple.

        For a collapsed model this is exact (Eq. 10); otherwise it is
        the moment-matched single skew-normal of the mixture — what a
        legacy LVF-only tool would effectively see.
        """
        if self.is_collapsed:
            return self.component1
        summary = self.moments()
        return LVFModel(
            summary.mean, summary.std, summary.skewness, nominal=self.nominal
        )

    @property
    def n_parameters(self) -> int:
        return 3 if self.is_collapsed else 7

    def parameters(self) -> dict[str, float | None]:
        """The seven LVF2 parameters, keyed by Liberty-style names."""
        second = self.component2
        return {
            "weight2": self.weight,
            "mean1": self.component1.mu,
            "std_dev1": self.component1.sigma,
            "skewness1": self.component1.gamma,
            "mean2": second.mu if second else None,
            "std_dev2": second.sigma if second else None,
            "skewness2": second.gamma if second else None,
        }

    def decomposition(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Weighted component densities (Fig. 3 bottom row).

        Returns ``((1-lambda) f1(x), lambda f2(x))``; the second array
        is zero for a collapsed model.
        """
        x = np.asarray(x, dtype=float)
        first = (1.0 - self.weight) * self.component1.pdf(x)
        if self.component2 is None:
            return first, np.zeros_like(x)
        return first, self.weight * self.component2.pdf(x)
