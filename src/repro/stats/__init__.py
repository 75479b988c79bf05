"""Statistics substrate: distributions, moments, sampling, EM.

Everything in this package is generic probability/statistics machinery;
the timing-model semantics live in :mod:`repro.models`.
"""

from repro.stats.empirical import EmpiricalDistribution, cdf_grid, ecdf
from repro.stats.em import (
    ComponentFamily,
    EMConfig,
    EMResult,
    fit_mixture_em,
    fit_mixture_em_batch,
)
from repro.stats.extended_skew_normal import ExtendedSkewNormal
from repro.stats.kmeans import KMeansResult, kmeans_1d_batch
from repro.stats.lhs import discrepancy, latin_hypercube, lhs_normal, lhs_transform
from repro.stats.mixtures import Mixture, mixture_moments
from repro.stats.moments import (
    MomentSummary,
    sample_moments,
    weighted_moments,
)
from repro.stats.skew_normal import (
    MAX_SKEWNESS,
    SkewNormal,
    clamp_skewness,
    moments_to_params,
    params_to_moments,
)

__all__ = [
    "MAX_SKEWNESS",
    "ComponentFamily",
    "EMConfig",
    "EMResult",
    "EmpiricalDistribution",
    "ExtendedSkewNormal",
    "KMeansResult",
    "Mixture",
    "MomentSummary",
    "SkewNormal",
    "cdf_grid",
    "clamp_skewness",
    "discrepancy",
    "ecdf",
    "fit_mixture_em",
    "fit_mixture_em_batch",
    "kmeans_1d_batch",
    "latin_hypercube",
    "lhs_normal",
    "lhs_transform",
    "mixture_moments",
    "moments_to_params",
    "params_to_moments",
    "sample_moments",
    "weighted_moments",
]
