"""Test-only reference: the serial EM loop the lockstep engine replaced.

``repro.stats.em`` has one EM engine, the lockstep
``fit_mixture_em_batch``.  Its load-bearing invariant is that every
row is bit-identical to fitting that row alone with the original
per-point loop.  That loop lives on here as the oracle the
equivalence tests compare against, with the engine's stop rule (an
absolute ``tol`` nats per sample) and its best-iterate return
mirrored in: ``kmeans_1d`` (the scalar k-means seeding),
``fit_mixture_em`` (one row), ``fit_mixture_em_multi`` (k-means,
concentric and extra starts) and the LVF2 / Norm2 multi-start fits
built on them.

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.errors import ConvergenceWarningError, FittingError
from repro.models.lvf import LVFModel
from repro.models.lvf2 import SKEW_NORMAL_FAMILY, LVF2Model
from repro.models.norm2 import GAUSSIAN_FAMILY, Norm2Model
from repro.runtime import telemetry
from repro.stats.em import (
    ComponentFamily,
    EMConfig,
    EMResult,
    concentric_initial,
)
from repro.stats.kmeans import (
    KMeansResult,
    _seed_plus_plus,
    split_by_labels,
)
from repro.stats.mixtures import Mixture
from repro.stats.moments import validate_samples


def kmeans_1d(
    samples: np.ndarray,
    n_clusters: int = 2,
    *,
    max_iter: int = 100,
    n_restarts: int = 4,
    seed: int | None = 0,
) -> KMeansResult:
    """Cluster scalar samples into ``n_clusters`` groups.

    Args:
        samples: 1-D observations.
        n_clusters: Number of clusters ``k`` (the paper uses 2).
        max_iter: Lloyd-iteration cap per restart.
        n_restarts: Independent seedings; the lowest-inertia run wins.
        seed: RNG seed for reproducible seeding; ``None`` for entropy.

    Returns:
        The best :class:`KMeansResult`, centres sorted ascending.

    Raises:
        FittingError: If there are fewer distinct values than clusters.
    """
    array = np.asarray(samples, dtype=float)
    if array.ndim > 1:
        raise FittingError(
            f"kmeans_1d expects 1-D samples, got ndim={array.ndim}; "
            "use kmeans_1d_batch for stacked (n_points, n_samples) grids"
        )
    data = array.ravel()
    if data.size < n_clusters:
        raise FittingError(
            f"need at least {n_clusters} samples for {n_clusters} clusters"
        )
    if np.unique(data).size < n_clusters:
        raise FittingError(
            f"need at least {n_clusters} distinct values for k-means"
        )
    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None
    for _ in range(max(1, n_restarts)):
        centers = np.sort(_seed_plus_plus(data, n_clusters, rng))
        labels = np.zeros(data.size, dtype=np.intp)
        converged = False
        iteration = 0
        for iteration in range(1, max_iter + 1):
            new_labels = np.argmin(
                np.abs(data[:, None] - centers[None, :]), axis=1
            )
            for cluster in range(n_clusters):
                mask = new_labels == cluster
                if np.any(mask):
                    centers[cluster] = data[mask].mean()
                else:
                    # Re-seed an empty cluster at the farthest point.
                    distances = np.abs(data - centers[new_labels])
                    centers[cluster] = data[int(np.argmax(distances))]
            if np.array_equal(new_labels, labels) and iteration > 1:
                converged = True
                labels = new_labels
                break
            labels = new_labels
        order = np.argsort(centers)
        centers = centers[order]
        remap = np.empty_like(order)
        remap[order] = np.arange(n_clusters)
        labels = remap[labels]
        inertia = float(np.sum((data - centers[labels]) ** 2))
        candidate = KMeansResult(centers, labels, inertia, iteration, converged)
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    assert best is not None
    return best

def _initial_mixture(
    samples: np.ndarray,
    family: ComponentFamily,
    n_components: int,
    config: EMConfig,
) -> Mixture:
    """K-means + per-group method-of-moments initialisation (§3.2)."""
    with telemetry.span("kmeans.seed", n=int(samples.size)):
        result = kmeans_1d(
            samples,
            n_components,
            n_restarts=config.kmeans_restarts,
            seed=config.seed,
        )
    return _initial_from_kmeans(samples, family, result)


def _initial_from_kmeans(
    samples: np.ndarray,
    family: ComponentFamily,
    result: KMeansResult,
) -> Mixture:
    """Per-group method-of-moments estimates from a k-means split."""
    groups = split_by_labels(samples, result.labels)
    weights: list[float] = []
    components: list[Any] = []
    for group in groups:
        if group.size < 8 or np.unique(group).size < 2:
            continue
        try:
            components.append(family.fit(group))
        except FittingError:
            continue
        weights.append(group.size / samples.size)
    total = sum(weights)
    if not components or total <= 0.0:
        raise FittingError(
            f"could not initialise any {family.name} component"
        )
    return Mixture(
        tuple(weight / total for weight in weights), tuple(components)
    )


def _collapse(
    samples: np.ndarray, family: ComponentFamily
) -> Mixture:
    """Single-component fallback when the mixture degenerates."""
    return Mixture((1.0,), (family.fit(samples),))


def fit_mixture_em(
    samples: np.ndarray,
    family: ComponentFamily,
    n_components: int = 2,
    *,
    config: EMConfig | None = None,
    initial: Mixture | Sequence[Any] | None = None,
) -> EMResult:
    """Fit an ``n_components`` mixture of ``family`` by EM.

    Args:
        samples: 1-D observations (the 50k-sample MC population in the
            paper's characterisation flow).
        family: Component family (skew-normal for LVF2, normal for
            Norm2).
        n_components: Number of mixture components (paper uses 2).
        config: Loop configuration; defaults to :class:`EMConfig`.
        initial: Optional warm start — either a ready mixture or a
            sequence of components (equal initial weights).

    Returns:
        An :class:`EMResult`; ``result.mixture`` components are sorted
        by ascending mean for deterministic downstream handling.

    Raises:
        FittingError: For degenerate inputs.
        ConvergenceWarningError: Only when
            ``config.require_convergence`` is set and the cap is hit.
    """
    with telemetry.span(
        "em.fit", family=family.name, n_components=n_components
    ):
        result = _fit_mixture_em_impl(
            samples, family, n_components, config=config, initial=initial
        )
    telemetry.counter_inc("em.fits")
    telemetry.observe("em.iterations", result.n_iter)
    if result.collapsed:
        telemetry.counter_inc("em.collapsed")
    if not result.converged:
        telemetry.counter_inc("em.nonconverged")
    if not result.collapsed and result.history and (
        result.loglik != result.history[-1]
    ):
        telemetry.counter_inc("em.best_earlier")
    return result


def _fit_mixture_em_impl(
    samples: np.ndarray,
    family: ComponentFamily,
    n_components: int,
    *,
    config: EMConfig | None,
    initial: Mixture | Sequence[Any] | None,
) -> EMResult:
    # An accidental (n_points, n_samples) stack would silently flatten
    # in validate_samples and fit one garbage mixture to the whole
    # grid; reject it loudly instead.
    if np.ndim(samples) > 1:
        raise FittingError(
            "fit_mixture_em expects 1-D samples, got "
            f"ndim={np.ndim(samples)}; use fit_mixture_em_batch for "
            "stacked (n_points, n_samples) grids"
        )
    data = validate_samples(samples, minimum=max(16, 8 * n_components))
    cfg = config or EMConfig()
    if n_components < 1:
        raise FittingError(f"n_components must be >= 1, got {n_components}")

    if initial is None:
        mixture = _initial_mixture(data, family, n_components, cfg)
    elif isinstance(initial, Mixture):
        mixture = initial
    else:
        count = len(initial)
        mixture = Mixture(
            tuple(1.0 / count for _ in range(count)), tuple(initial)
        )

    collapsed = mixture.n_components < n_components
    if mixture.n_components == 1:
        single = _collapse(data, family)
        return EMResult(
            single, single.loglik(data), 0, True, collapsed=True
        )

    def _log_rows(current: Mixture) -> np.ndarray:
        """Per-component weighted log densities (one pass per iter)."""
        import math

        rows = np.full((current.n_components, data.size), -np.inf)
        for row, (weight, component) in enumerate(
            zip(current.weights, current.components)
        ):
            if weight > 0.0:
                rows[row] = math.log(weight) + component.logpdf(data)
        return rows

    history: list[float] = []
    best: Mixture = mixture
    best_loglik = float("nan")
    log_rows = _log_rows(mixture)
    # np.logaddexp.reduce: same math as scipy's logsumexp with far
    # less per-call overhead (this loop is the fitting hot path).  The
    # normaliser of the log-likelihood pass is also the next E-step's.
    log_norm = np.logaddexp.reduce(log_rows, axis=0)
    loglik = float(np.sum(log_norm))
    converged = False
    iteration = 0
    for iteration in range(1, cfg.max_iter + 1):
        responsibilities = np.exp(log_rows - log_norm)
        weights = responsibilities.mean(axis=1)

        if np.any(weights < cfg.min_weight):
            keep = weights >= cfg.min_weight
            if int(keep.sum()) <= 1:
                single = _collapse(data, family)
                return EMResult(
                    single,
                    single.loglik(data),
                    iteration,
                    True,
                    collapsed=True,
                    history=tuple(history),
                )
            responsibilities = responsibilities[keep]
            responsibilities = responsibilities / responsibilities.sum(
                axis=0, keepdims=True
            )
            weights = responsibilities.mean(axis=1)
            mixture = Mixture(
                tuple(weights / weights.sum()),
                tuple(
                    component
                    for flag, component in zip(keep, mixture.components)
                    if flag
                ),
            )
            collapsed = True

        new_components: list[Any] = []
        for row, component in enumerate(mixture.components):
            try:
                new_components.append(
                    family.fit_weighted(data, responsibilities[row])
                )
            except FittingError:
                # Keep the previous estimate if the weighted update is
                # degenerate for this iteration.
                new_components.append(component)
        weights = weights / weights.sum()
        mixture = Mixture(tuple(weights), tuple(new_components))

        log_rows = _log_rows(mixture)
        log_norm = np.logaddexp.reduce(log_rows, axis=0)
        new_loglik = float(np.sum(log_norm))
        history.append(new_loglik)
        # The best post-M-step iterate; a tie goes to the later one.
        if new_loglik >= best_loglik or np.isnan(best_loglik):
            best, best_loglik = mixture, new_loglik
        # Absolute change per sample: the rule is unit-free.
        if abs(new_loglik - loglik) <= cfg.tol * data.size:
            loglik = new_loglik
            converged = True
            break
        loglik = new_loglik

    if not converged and cfg.require_convergence:
        raise ConvergenceWarningError(
            f"EM did not converge in {cfg.max_iter} iterations "
            f"(last loglik {loglik:.6g})"
        )
    if iteration:
        mixture, loglik = best, best_loglik
    return EMResult(
        mixture.sorted_by_mean(),
        loglik,
        iteration,
        converged,
        collapsed=collapsed,
        history=tuple(history),
    )



def fit_mixture_em_multi(
    samples: np.ndarray,
    family: ComponentFamily,
    n_components: int = 2,
    *,
    config: EMConfig | None = None,
    extra_initials: Sequence[Mixture] = (),
) -> EMResult:
    """Multi-start EM: k-means, concentric, and caller-supplied starts.

    Runs :func:`fit_mixture_em` from every viable initialisation and
    returns the highest-likelihood result.  This is what makes LVF2
    dominate Norm2 on the paper's Minor Saddle / Kurtosis scenarios,
    where the default k-means basin is not the global one.
    """
    if np.ndim(samples) > 1:
        raise FittingError(
            "fit_mixture_em_multi expects 1-D samples, got "
            f"ndim={np.ndim(samples)}; use fit_mixture_em_batch for "
            "stacked (n_points, n_samples) grids"
        )
    data = validate_samples(samples, minimum=max(16, 8 * n_components))
    results = [
        fit_mixture_em(data, family, n_components, config=config)
    ]
    if n_components == 2:
        concentric = concentric_initial(data, family)
        if concentric is not None:
            results.append(
                fit_mixture_em(
                    data,
                    family,
                    n_components,
                    config=config,
                    initial=concentric,
                )
            )
    for initial in extra_initials:
        results.append(
            fit_mixture_em(
                data, family, n_components, config=config, initial=initial
            )
        )
    return max(results, key=lambda result: result.loglik)


def _norm2_warm_start(
    samples: np.ndarray, config: EMConfig | None
) -> Mixture | None:
    """Gaussian-EM solution recast as zero-skew SN components."""
    try:
        gaussian = fit_mixture_em(
            samples, GAUSSIAN_FAMILY, n_components=2, config=config
        )
    except FittingError:
        return None
    if gaussian.mixture.n_components != 2:
        return None
    components = tuple(
        LVFModel(component.mu, component.sigma, 0.0)
        for component in gaussian.mixture.components
    )
    return Mixture(gaussian.mixture.weights, components)


def lvf2_fit(
    samples: np.ndarray, config: EMConfig | None = None
) -> LVF2Model:
    """``LVF2Model.fit(samples, config=config)`` as the serial loop ran it."""
    extra_initials = []
    norm2_start = _norm2_warm_start(samples, config)
    if norm2_start is not None:
        extra_initials.append(norm2_start)
    result = fit_mixture_em_multi(
        samples,
        SKEW_NORMAL_FAMILY,
        n_components=2,
        config=config,
        extra_initials=extra_initials,
    )
    mixture = result.mixture
    if mixture.n_components == 1:
        return LVF2Model(0.0, mixture.components[0], None)
    return LVF2Model(
        float(mixture.weights[1]),
        mixture.components[0],
        mixture.components[1],
    )


def norm2_fit(
    samples: np.ndarray, config: EMConfig | None = None
) -> Norm2Model:
    """``Norm2Model.fit(samples, config=config)`` as the serial loop ran it."""
    result = fit_mixture_em_multi(
        samples, GAUSSIAN_FAMILY, n_components=2, config=config
    )
    mixture = result.mixture
    if mixture.n_components == 1:
        return Norm2Model(0.0, mixture.components[0], None)
    return Norm2Model(
        float(mixture.weights[1]),
        mixture.components[0],
        mixture.components[1],
    )
