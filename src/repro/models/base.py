"""Abstract timing-model interface and model registry.

Every statistical timing model compared in the paper — LVF, LVF2,
Norm2, LESN — plus the extension models implements
:class:`TimingModel`: fit from Monte-Carlo samples, then answer
pdf/cdf/ppf/moment queries.  The registry maps the paper's model names
to classes so experiments and the CLI can select models by string.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Any, ClassVar, TypeVar

import numpy as np

from repro.errors import ParameterError, raise_first
from repro.stats.em import (
    ComponentFamily,
    EMConfig,
    _as_stack,
    _kmeans_starts,
    _single_row,
    fit_mixture_em_multistart,
)
from repro.stats.kmeans import KMeansResult
from repro.stats.mixtures import Mixture
from repro.stats.moments import MomentSummary

__all__ = [
    "TimingModel",
    "TwoComponentModel",
    "available_models",
    "get_model",
    "fit_model",
    "register_model",
]

_MODEL_REGISTRY: dict[str, type["TimingModel"]] = {}

ModelT = TypeVar("ModelT", bound="TimingModel")


def register_model(cls: type[ModelT]) -> type[ModelT]:
    """Class decorator adding ``cls`` to the global model registry."""
    name = cls.name
    if not name:
        raise ParameterError(f"{cls.__name__} must define a model name")
    if name in _MODEL_REGISTRY:
        raise ParameterError(f"model name {name!r} already registered")
    _MODEL_REGISTRY[name] = cls
    return cls


def available_models() -> tuple[str, ...]:
    """Names of all registered models, sorted."""
    return tuple(sorted(_MODEL_REGISTRY))


def get_model(name: str) -> type["TimingModel"]:
    """Look up a model class by registry name.

    Raises:
        ParameterError: For unknown names, listing what is available.
    """
    try:
        return _MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(available_models())
        raise ParameterError(
            f"unknown model {name!r}; available: {known}"
        ) from None


def fit_model(name: str, samples: np.ndarray, **kwargs: Any) -> "TimingModel":
    """Convenience: ``get_model(name).fit(samples, **kwargs)``."""
    return get_model(name).fit(samples, **kwargs)


class TimingModel(abc.ABC):
    """A fitted statistical model of one timing distribution.

    Subclasses are immutable once fitted.  The class attribute ``name``
    is the registry key (and the label used in the paper's tables);
    ``n_parameters`` is the number of free scalars, used for BIC-based
    model-order decisions (the "when to fall back to LVF" insight of
    paper §3.4).
    """

    #: Registry key, e.g. ``"LVF2"``.
    name: ClassVar[str] = ""

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    @classmethod
    @abc.abstractmethod
    def fit(cls: type[ModelT], samples: np.ndarray, **kwargs: Any) -> ModelT:
        """Fit the model to 1-D Monte-Carlo samples.

        Raises:
            FittingError: For degenerate inputs.
        """

    @classmethod
    def fit_batch(
        cls: type[ModelT], samples: np.ndarray, **kwargs: Any
    ) -> list[ModelT | Exception]:
        """Fit one model per row of a ``(n_points, n_samples)`` stack.

        Returns one entry per row: the model ``fit(row, **kwargs)``
        returns, or the exception it raises.  A fail-fast caller
        passes the list through :func:`repro.errors.raise_first`.  The
        default calls :meth:`fit` on each row; models whose fit is a
        batched EM override it with one lockstep call over all rows.
        """
        outcomes: list[ModelT | Exception] = []
        for row in _as_stack(samples):
            try:
                outcomes.append(cls.fit(row, **kwargs))
            except Exception as error:  # noqa: BLE001 — the row's outcome
                outcomes.append(error)
        return outcomes

    # ------------------------------------------------------------------
    # Distribution queries
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Probability density at ``x``."""

    @abc.abstractmethod
    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Cumulative distribution function at ``x``."""

    @abc.abstractmethod
    def ppf(self, q: np.ndarray) -> np.ndarray:
        """Quantile function at probabilities ``q``."""

    @abc.abstractmethod
    def rvs(
        self, size: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Draw ``size`` samples from the fitted distribution."""

    @abc.abstractmethod
    def moments(self) -> MomentSummary:
        """Analytic moments of the fitted distribution."""

    @property
    @abc.abstractmethod
    def n_parameters(self) -> int:
        """Number of free scalar parameters (for AIC/BIC)."""

    # ------------------------------------------------------------------
    # Defaults shared by all models
    # ------------------------------------------------------------------
    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log-density; subclasses override when a stabler form exists."""
        with np.errstate(divide="ignore"):
            return np.log(self.pdf(x))

    def sf(self, x: np.ndarray) -> np.ndarray:
        """Survival function ``1 - cdf``."""
        return 1.0 - self.cdf(x)

    def loglik(self, samples: np.ndarray) -> float:
        """Total log-likelihood of ``samples`` under the model."""
        return float(np.sum(self.logpdf(np.asarray(samples, dtype=float))))

    def aic(self, samples: np.ndarray) -> float:
        """Akaike information criterion (lower is better)."""
        return 2.0 * self.n_parameters - 2.0 * self.loglik(samples)

    def bic(self, samples: np.ndarray) -> float:
        """Bayesian information criterion (lower is better)."""
        n = np.asarray(samples).size
        return self.n_parameters * math.log(n) - 2.0 * self.loglik(samples)

    def sigma_point(self, k: float) -> float:
        """``mean + k * std`` of the fitted distribution."""
        return self.moments().sigma_point(k)

    def probability_between(self, lower: float, upper: float) -> float:
        """``P(lower < X <= upper)`` under the model."""
        if upper < lower:
            raise ParameterError(
                f"upper bound {upper} below lower bound {lower}"
            )
        return float(self.cdf(upper) - self.cdf(lower))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        summary = self.moments()
        return (
            f"<{type(self).__name__} mean={summary.mean:.6g} "
            f"std={summary.std:.6g} skew={summary.skewness:.4g}>"
        )


@dataclass(frozen=True, repr=False)
class TwoComponentModel(TimingModel):
    """Weighted pair ``(1 - lambda) f1 + lambda f2`` of components.

    The shared body of the paper's two mixture models, LVF2 (Eq. 4)
    and Norm2: the multi-start EM fit (paper §3.2), the weight checks,
    the :class:`Mixture` the queries delegate to, and the collapse to
    one component (``lambda = 0``, Eq. 10).  A subclass names its
    component ``family``, may add a warm start per row
    (:meth:`_warm_starts`) and a per-row finish step (:meth:`_finish`),
    and adds its fields after these and its parameter accounting.
    ``_mixture`` is set last, in ``__post_init__``, so an instance's
    ``__dict__`` (what pickled checkpoint payloads hold) lists the
    init fields in order and then ``_mixture``.

    Attributes:
        weight: Mixing weight ``lambda`` of the second component.
        component1: First (lower-mean) component.
        component2: Second component, or ``None`` when the model is a
            single component (``lambda = 0``).
    """

    #: Component family the mixture EM fits.
    family: ClassVar[ComponentFamily]

    weight: float
    component1: Any
    component2: Any | None = None
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

    @classmethod
    def fit(
        cls: type[ModelT],
        samples: np.ndarray,
        *,
        config: EMConfig | None = None,
        **kwargs: Any,
    ) -> ModelT:
        """Fit by multi-start EM (paper §3.2): a batch of one.

        Runs :meth:`fit_batch` on the samples as its single row and
        raises that row's error.

        Returns:
            Fitted model; collapses to ``lambda = 0`` when the data do
            not support two components.
        """
        name = cls.__name__
        (model,) = raise_first(
            cls.fit_batch(
                _single_row(samples, f"{name}.fit", f"{name}.fit_batch"),
                config=config,
                **kwargs,
            )
        )
        return model

    @classmethod
    def fit_batch(
        cls: type[ModelT],
        samples: np.ndarray,
        *,
        config: EMConfig | None = None,
        **kwargs: Any,
    ) -> list[ModelT | Exception]:
        """Fit one model per row of a ``(n_points, n_samples)`` stack.

        Multi-start EM of the class's ``family`` by
        :func:`~repro.stats.em.fit_mixture_em_multistart`, all rows
        and starts in one lockstep call: each row's k-means start,
        its concentric start and its :meth:`_warm_starts` entry.  The
        k-means split is one per row, computed once, so a warm start
        fitted from it sees the same split.  A row whose warm start is
        an error keeps that error and runs no start.  ``kwargs`` go
        to :meth:`_finish`.

        Returns:
            One entry per row: the fitted model, or the exception
            :meth:`fit` raises on that row.
        """
        stack = _as_stack(samples)
        splits = _kmeans_starts(stack, config)
        outcomes: list[Any] = cls._warm_starts(stack, splits, config)
        live = [
            p for p, warm in enumerate(outcomes)
            if not isinstance(warm, Exception)
        ]
        fits = fit_mixture_em_multistart(
            stack[live],
            cls.family,
            config=config,
            splits=[splits[p] for p in live],
            extra_initials=[outcomes[p] for p in live],
        )
        for p, best in zip(live, fits):
            if isinstance(best, Exception):
                outcomes[p] = best
                continue
            try:
                model = cls._from_mixture(best.mixture)
                outcomes[p] = cls._finish(model, stack[p], **kwargs)
            except Exception as error:  # noqa: BLE001 — row error
                outcomes[p] = error
        return outcomes

    @classmethod
    def _warm_starts(
        cls,
        stack: np.ndarray,
        splits: list[KMeansResult | None],
        config: EMConfig | None,
    ) -> list[Mixture | Exception | None]:
        """Each row's extra EM start, ``None`` for none, or its error.

        ``splits`` holds each row's k-means split (``None`` where the
        row cannot be split).  The default adds no start.
        """
        return [None] * stack.shape[0]

    @classmethod
    def _finish(
        cls: type[ModelT], model: ModelT, row: np.ndarray, **kwargs: Any
    ) -> ModelT:
        """The row's final model from its EM fit; the default keeps it."""
        return model

    @classmethod
    def _from_mixture(cls: type[ModelT], mixture: Mixture) -> ModelT:
        """The model of a fitted mixture of one or two components.

        A mixture EM collapsed to one component becomes
        ``cls(0.0, first, None)``.
        """
        if len(mixture.components) == 1:
            return cls(0.0, mixture.components[0], None)
        return cls(
            float(mixture.weights[1]),
            mixture.components[0],
            mixture.components[1],
        )

    @property
    def mixture(self) -> Mixture:
        return self._mixture

    @property
    def is_collapsed(self) -> bool:
        """True when the model is effectively one component."""
        return self.component2 is None or self.weight == 0.0

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
