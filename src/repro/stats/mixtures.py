"""Generic finite-mixture machinery.

LVF2 (paper Eq. 4) is a two-component mixture of skew-normals; Norm2
[10] is a two-component mixture of Gaussians.  This module provides a
component-agnostic :class:`Mixture` wrapper: any component exposing
``pdf/logpdf/cdf/rvs/moments`` can be mixed.  Mixture moments are
assembled analytically from component moments using the law of total
cumulance, so no sampling is needed to evaluate the μ±kσ bin boundaries.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.errors import ParameterError
from repro.stats.moments import MomentSummary
from repro.stats.quantiles import bracketed_ppf

__all__ = ["Mixture", "MixtureComponent", "mixture_moments"]


@runtime_checkable
class MixtureComponent(Protocol):
    """Structural interface a mixture component must satisfy."""

    def pdf(self, x: np.ndarray) -> np.ndarray: ...

    def logpdf(self, x: np.ndarray) -> np.ndarray: ...

    def cdf(self, x: np.ndarray) -> np.ndarray: ...

    def rvs(
        self, size: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray: ...

    def moments(self) -> MomentSummary: ...


def mixture_moments(
    weights: Sequence[float], summaries: Sequence[MomentSummary]
) -> MomentSummary:
    """Exact moments of a finite mixture from component moments.

    With component means ``mu_i``, central moments ``m2_i..m4_i`` and
    offsets ``d_i = mu_i - mu``:

        m2 = sum w_i (m2_i + d_i^2)
        m3 = sum w_i (m3_i + 3 d_i m2_i + d_i^3)
        m4 = sum w_i (m4_i + 4 d_i m3_i + 6 d_i^2 m2_i + d_i^4)
    """
    w = np.asarray(weights, dtype=float)
    if w.size != len(summaries):
        raise ParameterError("weights and summaries length mismatch")
    if np.any(w < 0.0) or not math.isclose(w.sum(), 1.0, abs_tol=1e-9):
        raise ParameterError(
            f"weights must be non-negative and sum to 1, got {w.tolist()}"
        )
    means = np.array([s.mean for s in summaries])
    m2 = np.array([s.variance for s in summaries])
    m3 = np.array([s.skewness * s.std**3 for s in summaries])
    m4 = np.array([(s.kurtosis + 3.0) * s.std**4 for s in summaries])
    mean = float(np.dot(w, means))
    d = means - mean
    mix_m2 = float(np.dot(w, m2 + d**2))
    mix_m3 = float(np.dot(w, m3 + 3.0 * d * m2 + d**3))
    mix_m4 = float(np.dot(w, m4 + 4.0 * d * m3 + 6.0 * d**2 * m2 + d**4))
    if mix_m2 <= 0.0:
        raise ParameterError("mixture variance must be positive")
    std = math.sqrt(mix_m2)
    return MomentSummary(
        mean,
        std,
        mix_m3 / std**3,
        mix_m4 / std**4 - 3.0,
        count=0,
    )


@dataclass(frozen=True)
class Mixture:
    """Finite mixture of arbitrary scalar distributions.

    Attributes:
        weights: Component weights; non-negative, summing to 1.
        components: Component distributions implementing
            :class:`MixtureComponent`.
    """

    weights: tuple[float, ...]
    components: tuple[Any, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.components):
            raise ParameterError(
                "weights and components must have equal length"
            )
        if not self.components:
            raise ParameterError("mixture needs at least one component")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -1e-12) or not math.isclose(
            float(w.sum()), 1.0, abs_tol=1e-8
        ):
            raise ParameterError(
                f"weights must be non-negative and sum to 1, got {w.tolist()}"
            )

    @classmethod
    def of(cls, *pairs: tuple[float, Any]) -> "Mixture":
        """Build from ``(weight, component)`` pairs."""
        weights = tuple(float(weight) for weight, _ in pairs)
        components = tuple(component for _, component in pairs)
        return cls(weights, components)

    @property
    def n_components(self) -> int:
        return len(self.components)

    # ------------------------------------------------------------------
    def pdf(self, x: np.ndarray) -> np.ndarray:
        values = np.zeros_like(np.asarray(x, dtype=float))
        for weight, component in zip(self.weights, self.components):
            if weight > 0.0:
                values = values + weight * component.pdf(x)
        return values

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rows = []
        for weight, component in zip(self.weights, self.components):
            if weight > 0.0:
                rows.append(math.log(weight) + component.logpdf(x))
        if not rows:
            raise ParameterError("all mixture weights are zero")
        return np.logaddexp.reduce(np.stack(rows, axis=0), axis=0)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        values = np.zeros_like(np.asarray(x, dtype=float))
        for weight, component in zip(self.weights, self.components):
            if weight > 0.0:
                values = values + weight * component.cdf(x)
        return np.clip(values, 0.0, 1.0)

    def sf(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - self.cdf(x)

    def ppf(self, q: np.ndarray) -> np.ndarray:
        """Quantiles by bracketed root finding on the mixture CDF."""
        summary = self.moments()
        return bracketed_ppf(self.cdf, q, summary.mean, summary.std)

    def rvs(
        self, size: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Sample by multinomial component selection."""
        generator = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(rng)
        )
        counts = generator.multinomial(size, np.asarray(self.weights))
        pieces = [
            component.rvs(int(count), rng=generator)
            for count, component in zip(counts, self.components)
            if count > 0
        ]
        samples = np.concatenate(pieces) if pieces else np.empty(0)
        generator.shuffle(samples)
        return samples

    def moments(self) -> MomentSummary:
        return mixture_moments(
            self.weights, [c.moments() for c in self.components]
        )

    # ------------------------------------------------------------------
    def responsibilities(self, x: np.ndarray) -> np.ndarray:
        """Posterior component probabilities for each sample (E-step).

        Returns an ``(n_components, n_samples)`` matrix whose columns
        sum to 1 — Eq. (6) of the paper, generalised to k components.
        """
        x = np.asarray(x, dtype=float)
        log_rows = np.full((self.n_components, x.size), -np.inf)
        for row, (weight, component) in enumerate(
            zip(self.weights, self.components)
        ):
            if weight > 0.0:
                log_rows[row] = math.log(weight) + component.logpdf(
                    x.ravel()
                )
        log_norm = np.logaddexp.reduce(log_rows, axis=0)
        return np.exp(log_rows - log_norm)

    def loglik(self, x: np.ndarray) -> float:
        """Total log-likelihood of the data under the mixture (Eq. 5)."""
        return float(np.sum(self.logpdf(np.asarray(x, dtype=float))))

    def dominant_component(self) -> int:
        """Index of the highest-weight component."""
        return int(np.argmax(self.weights))

    def sorted_by_mean(self) -> "Mixture":
        """Return an equivalent mixture with components ordered by mean."""
        order = np.argsort([c.moments().mean for c in self.components])
        return Mixture(
            tuple(self.weights[i] for i in order),
            tuple(self.components[i] for i in order),
        )
