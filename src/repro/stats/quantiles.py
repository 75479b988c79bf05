"""Quantiles by bracketed root finding on a CDF.

The skew-normal, the mixture and the extended skew-normal have no
closed-form quantile function; each inverts its CDF with the one
bracket-expand plus ``brentq`` loop below.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
from scipy.optimize import brentq

from repro.errors import ParameterError

__all__ = ["bracketed_ppf"]


def bracketed_ppf(
    cdf: Callable[[float], np.ndarray],
    q: np.ndarray,
    mean: float,
    std: float,
    *,
    xtol: float = 2e-12,
) -> np.ndarray:
    """Invert ``cdf`` at each probability in ``q``.

    The bracket starts at ``mean ± 12 std`` and widens by ``8 std``
    until it holds the root; ``brentq`` then solves to ``xtol``.
    Probabilities 0 and 1 map to ``∓inf``.  A 0-d ``q`` returns a
    scalar, otherwise the result has ``q``'s shape.

    Raises:
        ParameterError: When a probability lies outside [0, 1].
    """
    quantiles = np.asarray(q, dtype=float)
    scalar = quantiles.ndim == 0
    flat = np.atleast_1d(quantiles)
    if np.any((flat < 0.0) | (flat > 1.0)):
        raise ParameterError("quantiles must lie in [0, 1]")
    out = np.empty(flat.shape, dtype=float)
    for index, prob in enumerate(flat):
        if prob <= 0.0:
            out[index] = -math.inf
        elif prob >= 1.0:
            out[index] = math.inf
        else:
            lo = mean - 12.0 * std
            hi = mean + 12.0 * std
            while float(cdf(lo)) > prob:
                lo -= 8.0 * std
            while float(cdf(hi)) < prob:
                hi += 8.0 * std
            out[index] = brentq(
                lambda value: float(cdf(value)) - prob, lo, hi, xtol=xtol
            )
    return out[0] if scalar else out.reshape(quantiles.shape)
