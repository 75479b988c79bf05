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
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, logit

from repro.errors import FittingError, ParameterError
from repro.models.base import TimingModel, _from_mixture, register_model
from repro.models.lvf import (
    LVFModel,
    _lvf_from_lane,
    _sn_lane,
    _SNLane,
)
from repro.stats.em import (
    ComponentFamily,
    EMConfig,
    _as_stack,
    _kmeans_starts,
    _multistart,
    _single_row,
    fit_mixture_em_batch,
)
from repro.stats.mixtures import Mixture
from repro.stats.moments import MomentSummary, _weighted_moments_rows
from repro.stats.skew_normal import SkewNormal
from repro.stats.workspace import Workspace

__all__ = ["LVF2Model", "SKEW_NORMAL_FAMILY"]


def _sn_realize(component: Any) -> Any:
    """Turn an :class:`_SNLane` into the serial-identical model."""
    if type(component) is _SNLane:
        return _lvf_from_lane(component)
    return component


def _sn_logpdf_batch(
    components: "list[LVFModel | _SNLane]",
    data: np.ndarray,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Row-wise skew-normal log-density over a stacked batch.

    Mirrors :meth:`repro.stats.skew_normal.SkewNormal.logpdf` term for
    term: the per-component scalar constant uses the same
    ``math.log(2.0 / omega)`` call, and the in-place steps keep the
    serial association order ``(const + log_phi) + log_ndtr``, so every
    lane is bit-identical to the serial method.  Components may be
    models (warm starts, kept-previous estimates) or :class:`_SNLane`
    stand-ins from the batched M-step, interchangeably.  The result
    and its temporaries live in ``workspace`` when one is given.
    """
    from scipy.special import log_ndtr

    params: list[tuple[float, float, float]] = []
    for component in components:
        if type(component) is _SNLane:
            params.append(
                (component.xi, component.omega, component.alpha)
            )
        else:
            # LVFModel wraps its distribution; a bare SkewNormal (a
            # legal serial warm-start component) carries the direct
            # parameters itself.
            sn = getattr(component, "skew_normal", component)
            params.append((sn.xi, sn.omega, sn.alpha))
    xis = np.array([p[0] for p in params], dtype=float)
    omegas = np.array([p[1] for p in params], dtype=float)
    alphas = np.array([p[2] for p in params], dtype=float)
    consts = np.array(
        [math.log(2.0 / p[1]) for p in params], dtype=float
    )
    rows = data.shape[0]
    scratch = workspace or Workspace(rows, data.shape[1])
    z = scratch.take("logpdf.z", rows)
    tail = scratch.take("logpdf.tail", rows)
    out = scratch.take("logpdf.out", rows)
    np.subtract(data, xis[:, None], out=z)
    np.divide(z, omegas[:, None], out=z)
    # log_phi = -0.5 * z * z - 0.5 * log(2 pi)
    np.multiply(-0.5, z, out=out)
    np.multiply(out, z, out=out)
    np.subtract(out, 0.5 * math.log(2.0 * math.pi), out=out)
    np.add(consts[:, None], out, out=out)
    log_ndtr(np.multiply(alphas[:, None], z, out=tail), out=tail)
    return np.add(out, tail, out=out)


def _sn_fit_weighted_batch(
    data: np.ndarray,
    weights: np.ndarray,
    workspace: Workspace | None = None,
) -> "list[_SNLane | Exception]":
    """Row-wise :meth:`LVFModel.fit_weighted` over a batch.

    Returns :class:`_SNLane` stand-ins (realized by
    :func:`_sn_realize` on convergence); the scalar expressions and
    error behaviour per row match the serial ``fit_weighted`` exactly.
    ``data`` and ``weights`` are C-contiguous stacks of equal shape.
    """
    results: "list[_SNLane | Exception]" = []
    for summary in _weighted_moments_rows(
        data, weights, errors="capture", raw=True, workspace=workspace
    ):
        if isinstance(summary, Exception):
            results.append(summary)
            continue
        try:
            results.append(_sn_lane(*summary))
        except Exception as error:  # noqa: BLE001 — mirrors serial raise
            results.append(error)
    return results


#: Component family wiring LVFModel (skew-normal) into the EM driver.
SKEW_NORMAL_FAMILY = ComponentFamily(
    name="skew-normal",
    fit=LVFModel.fit,
    fit_weighted=LVFModel.fit_weighted,
    logpdf_batch=_sn_logpdf_batch,
    fit_weighted_batch=_sn_fit_weighted_batch,
    realize=_sn_realize,
)


@register_model
@dataclass(frozen=True, repr=False)
class LVF2Model(TimingModel):
    """Weighted pair of skew-normals, the LVF2 distribution (Eq. 4).

    Attributes:
        weight: Mixing weight ``lambda`` of the second component
            (``ocv_weight2`` in the Liberty extension).
        component1: First skew-normal as an LVF moment triple.
        component2: Second skew-normal, or ``None`` for a collapsed /
            plain-LVF model (``lambda = 0``, Eq. 10).
        nominal: Optional nominal corner value carried through to the
            Liberty mean-shift attributes.
    """

    name = "LVF2"

    weight: float
    component1: LVFModel
    component2: LVFModel | None = None
    nominal: float | None = None
    _mixture: Mixture = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ParameterError(
                f"weight must lie in [0, 1], got {self.weight}"
            )
        if self.component2 is None and self.weight != 0.0:
            raise ParameterError(
                "weight must be 0 when the second component is absent"
            )
        if self.component2 is None:
            mixture = Mixture((1.0,), (self.component1,))
        else:
            mixture = Mixture(
                (1.0 - self.weight, self.weight),
                (self.component1, self.component2),
            )
        object.__setattr__(self, "_mixture", mixture)

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        samples: np.ndarray,
        *,
        config: EMConfig | None = None,
        refine: str = "none",
        **kwargs: Any,
    ) -> "LVF2Model":
        """Fit by multi-start EM (paper §3.2): a batch of one.

        Runs :meth:`fit_batch` on the samples as its single row.

        Args:
            samples: Golden Monte-Carlo samples.
            config: EM loop settings.
            refine: ``"none"`` for the plain EM (moment-based M-step)
                or ``"mle"`` to follow EM with a direct L-BFGS ascent
                of the full log-likelihood (Eq. 5).

        Returns:
            Fitted model; collapses to ``lambda = 0`` when the data do
            not support two components.
        """
        (model,) = cls.fit_batch(
            _single_row(samples, "LVF2Model.fit", "LVF2Model.fit_batch"),
            config=config,
            refine=refine,
        )
        return model

    @classmethod
    def fit_batch(
        cls,
        samples: np.ndarray,
        *,
        config: EMConfig | None = None,
        refine: str = "none",
        errors: str = "raise",
        **kwargs: Any,
    ) -> "list[LVF2Model | Exception]":
        """Fit one LVF2 model per row of a ``(n_points, n_samples)`` stack.

        Multi-start EM: a Norm2 (two-Gaussian) EM fit per row first,
        recast as zero-skew components; then
        :func:`~repro.stats.em.fit_mixture_em_multistart` over the
        k-means start, the concentric start and that Norm2 warm start.
        Skew-normal mixtures strictly generalise Gaussian ones, so
        starting on Norm2's basin guarantees LVF2 never loses to it in
        likelihood.  A Norm2 fit that raises :class:`FittingError` or
        collapses means "no warm start"; any other error fails the row.
        Both k-means starts are one split per row, computed once: the
        split depends only on the row, ``kmeans_restarts`` and
        ``seed``, not on the component family.

        Args:
            samples: Stacked observations, one grid point per row.
            config: EM settings shared by all rows.
            refine: ``"mle"`` polishes every uncollapsed row with
                :meth:`refine_mle`, as :meth:`fit` documents.
            errors: ``"raise"`` re-raises the first failing row's error
                in row order; ``"capture"`` stores exceptions in their
                row slots so the caller can fall back per point.

        Returns:
            One fitted model (or captured exception) per row.
        """
        from repro.models.norm2 import GAUSSIAN_FAMILY

        if refine not in ("none", "mle"):
            raise ParameterError(
                f"refine must be 'none' or 'mle', got {refine!r}"
            )
        if errors not in ("raise", "capture"):
            raise ValueError(f"unknown errors mode: {errors!r}")
        stack = _as_stack(samples)
        n_points = stack.shape[0]
        results: "list[LVF2Model | Exception | None]" = [None] * n_points

        warms: list[Mixture | None] = [None] * n_points
        splits = _kmeans_starts(stack, 2, config)
        gaussian_results = fit_mixture_em_batch(
            stack,
            GAUSSIAN_FAMILY,
            n_components=2,
            config=config,
            initials=splits,
            errors="capture",
        )
        for p, gaussian in enumerate(gaussian_results):
            if isinstance(gaussian, FittingError):
                continue
            if isinstance(gaussian, Exception):
                results[p] = gaussian
                continue
            if gaussian.mixture.n_components != 2:
                continue
            try:
                components = tuple(
                    LVFModel(component.mu, component.sigma, 0.0)
                    for component in gaussian.mixture.components
                )
                warms[p] = Mixture(gaussian.mixture.weights, components)
            except Exception as error:  # noqa: BLE001 — row error
                results[p] = error

        live = [p for p in range(n_points) if results[p] is None]
        fits = _multistart(
            stack[live],
            SKEW_NORMAL_FAMILY,
            2,
            config,
            [splits[p] for p in live],
            [warms[p] for p in live],
        )
        for p, best in zip(live, fits):
            if isinstance(best, Exception):
                results[p] = best
                continue
            try:
                model = _from_mixture(cls, best.mixture)
                if refine == "mle" and not model.is_collapsed:
                    model = model.refine_mle(stack[p])
                results[p] = model
            except Exception as error:  # noqa: BLE001 — row error
                results[p] = error
        if errors == "raise":
            for outcome in results:
                if isinstance(outcome, Exception):
                    raise outcome
        assert all(outcome is not None for outcome in results)
        return results  # type: ignore[return-value]

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
    @property
    def mixture(self) -> Mixture:
        return self._mixture

    @property
    def is_collapsed(self) -> bool:
        """True when the model is effectively a plain LVF (Eq. 10)."""
        return self.component2 is None or self.weight == 0.0

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

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return self._mixture.pdf(x)

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        return self._mixture.logpdf(x)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return self._mixture.cdf(x)

    def ppf(self, q: np.ndarray) -> np.ndarray:
        return self._mixture.ppf(q)

    def rvs(
        self, size: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        return self._mixture.rvs(size, rng=rng)

    def moments(self) -> MomentSummary:
        return self._mixture.moments()

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
