"""Generic expectation-maximisation driver for finite mixtures.

Implements the fitting loop of paper §3.2: latent responsibilities
(Eq. 6) in the E-step, component re-estimation in the M-step (Eqs. 8-9),
initialised by k-means partitioning plus per-group method-of-moments
estimates.  Every mixture has two components (Eq. 4).  The driver is
component-family agnostic: the same loop fits LVF2 (skew-normal
components) and Norm2 (Gaussian components), the two mixture models
compared in the paper.  There is one engine,
:func:`fit_mixture_em_batch`, which fits a stack of sample rows in
lockstep; a scalar fit is a batch of one.  Inside the loop a block's
mixtures are plain arrays (weights and component parameter lanes);
mixture and component objects are built only where a row starts and
where it finishes.

The M-step is pluggable.  The default family implementations use
weighted method-of-moments updates — fast, closed-form and stable, but
not an ascent step: the observed-data log-likelihood (Eq. 5) is not
guaranteed to increase, and real fits do show decreasing steps.  The
loop stops when one iteration changes the log-likelihood by at most
``EMConfig.tol`` nats per sample, or at ``max_iter``.  The rule does
not depend on the units of the samples: rescaling them shifts every
log-likelihood by the same constant.  Because a step can go down, each
row keeps its best post-M-step iterate and returns that one, converged
or capped; its ``history`` is still the full trace.  An optional
weighted-MLE refinement (``refine="mle"``) on the model classes
polishes the result by direct likelihood ascent.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConvergenceWarningError, FittingError, raise_first
from repro.runtime import fanout, telemetry
from repro.stats.kmeans import (
    KMeansResult,
    kmeans_1d_batch,
    split_by_labels,
)
from repro.stats.mixtures import Mixture
from repro.stats.moments import validate_samples
from repro.stats.workspace import Workspace

__all__ = [
    "ComponentFamily",
    "EMConfig",
    "EMResult",
    "concentric_initial",
    "fit_mixture_em",
    "fit_mixture_em_batch",
    "fit_mixture_em_multistart",
    "lockstep_blocks",
]

#: Components per mixture: the paper's model is a two-component mixture
#: (Eq. 4), and so is every fit here.
_COMPONENTS = 2


@dataclass(frozen=True)
class ComponentFamily:
    """A parametric family usable as mixture components.

    The lockstep EM loop holds each component as a *lane*: ``P``
    floats, one row of a ``(rows, 2, P)`` parameter array.
    ``params`` and ``build`` convert between lanes and components where
    a row starts and where it finishes; every iteration in between
    runs on the arrays.

    Attributes:
        name: Family name for diagnostics ("skew-normal", "normal").
        fit: Unweighted fit, used on the initial k-means groups and for
            the single-component collapse.
        fit_weighted: Weighted fit of one component (all samples plus
            that component's responsibilities).  The scalar spec of the
            M-step: ``fit_weighted_batch`` reproduces it on every lane
            it does not flag, and the loop calls it on the lanes it
            flags.
        params: The lane of a component, a tuple of ``P`` floats.
        build: The component of a lane; ``build(params(c))`` equals
            ``c`` field for field for every component ``fit`` and
            ``fit_weighted`` return.
        logpdf_batch: Vectorized density: receives a ``(rows, P)`` lane
            array, the C-contiguous ``(rows, n_samples)`` data stack
            and a :class:`~repro.stats.workspace.Workspace`, and
            returns per-row log densities bit-identical to each lane's
            component's ``logpdf`` on its row.  The result may be a
            workspace view (valid until the next call).
        fit_weighted_batch: Vectorized M-step: receives the data stack,
            per-row responsibilities and the workspace, and returns the
            ``(rows, P)`` new lanes plus a ``(rows,)`` mask of the lanes
            that need the scalar path.  Every unflagged lane is
            bit-identical to ``params(fit_weighted(row, weights))``; a
            flagged lane's values are meaningless.
    """

    name: str
    fit: Callable[[np.ndarray], Any]
    fit_weighted: Callable[[np.ndarray, np.ndarray], Any]
    params: Callable[[Any], tuple[float, ...]]
    build: Callable[[Sequence[float]], Any]
    logpdf_batch: Callable[[np.ndarray, np.ndarray, Workspace], np.ndarray]
    fit_weighted_batch: Callable[
        [np.ndarray, np.ndarray, Workspace], tuple[np.ndarray, np.ndarray]
    ]


@dataclass(frozen=True)
class EMConfig:
    """Tuning knobs for :func:`fit_mixture_em`.

    Attributes:
        max_iter: Iteration cap for the E/M loop.
        tol: Convergence threshold in nats per sample: the loop stops
            once one iteration changes the observed-data
            log-likelihood by at most ``tol * n_samples``.  An absolute
            per-sample change, so the same data stops at the same
            iteration in any time unit.
        min_weight: A component whose weight falls below this value is
            considered collapsed; the fit degrades gracefully to one
            component rather than chasing a degenerate optimum.
        kmeans_restarts: Restarts for the k-means initialiser.
        seed: Seed forwarded to k-means seeding.
        require_convergence: Raise instead of returning a best-effort
            result when the loop hits ``max_iter``.
    """

    max_iter: int = 200
    tol: float = 1e-6
    min_weight: float = 1e-4
    kmeans_restarts: int = 4
    seed: int | None = 0
    require_convergence: bool = False


@dataclass(frozen=True)
class EMResult:
    """Outcome of an EM fit.

    Attributes:
        mixture: Fitted mixture, components sorted by mean.
        loglik: Observed-data log-likelihood (Eq. 5) of ``mixture``:
            the best post-M-step iterate's, ``max(history)``, for a
            two-component fit; the single component's for a collapsed
            one.
        n_iter: E/M iterations performed (the returned iterate may be
            an earlier one).
        converged: Whether the tolerance criterion was met.
        collapsed: True when the fit fell back to a single component
            (a component below ``min_weight`` or a one-component
            start).
        history: Log-likelihood trace, one entry per iteration.
    """

    mixture: Mixture
    loglik: float
    n_iter: int
    converged: bool
    collapsed: bool = False
    history: tuple[float, ...] = field(default_factory=tuple)


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


def _single_row(samples: np.ndarray, caller: str, batch: str) -> np.ndarray:
    """One 1-D sample set as the one-row stack of a batch of one.

    An accidental ``(n_points, n_samples)`` stack would otherwise be
    fitted as a single garbage row; reject it loudly instead.
    """
    if np.ndim(samples) > 1:
        raise FittingError(
            f"{caller} expects 1-D samples, got "
            f"ndim={np.ndim(samples)}; use {batch} for "
            "stacked (n_points, n_samples) grids"
        )
    return np.asarray(samples, dtype=float).reshape(1, -1)


def _as_stack(samples: np.ndarray) -> np.ndarray:
    """Coerce a ``(n_points, n_samples)`` stack to C-contiguous floats."""
    stack = np.asarray(samples, dtype=float)
    if stack.ndim != 2:
        raise FittingError(
            "batched samples must be a 2-D (n_points, n_samples) "
            f"array, got ndim={stack.ndim}"
        )
    return np.ascontiguousarray(stack)


def fit_mixture_em(
    samples: np.ndarray,
    family: ComponentFamily,
    *,
    config: EMConfig | None = None,
    initial: Mixture | Sequence[Any] | None = None,
) -> EMResult:
    """Fit a two-component mixture of ``family`` by EM.

    A batch of one: the samples run as the single row of
    :func:`fit_mixture_em_batch`, the one EM engine.

    Args:
        samples: 1-D observations (the 50k-sample MC population in the
            paper's characterisation flow).
        family: Component family (skew-normal for LVF2, normal for
            Norm2).
        config: Loop configuration; defaults to :class:`EMConfig`.
        initial: Optional warm start — either a ready mixture or a
            sequence of components (equal initial weights) — of at
            most two components; one component means the
            single-component fit.

    Returns:
        An :class:`EMResult`; ``result.mixture`` components are sorted
        by ascending mean for deterministic downstream handling.

    Raises:
        FittingError: For degenerate inputs and for a warm start of
            three or more components.
        ConvergenceWarningError: Only when
            ``config.require_convergence`` is set and the cap is hit.
    """
    (result,) = raise_first(
        fit_mixture_em_batch(
            _single_row(samples, "fit_mixture_em", "fit_mixture_em_batch"),
            family,
            config=config,
            initials=[initial],
        )
    )
    return result


def _per_row(
    values: Sequence[Any] | None, n_points: int, name: str
) -> list[Any]:
    """``values`` as one entry per stack row; all ``None`` if omitted."""
    if values is None:
        return [None] * n_points
    entries = list(values)
    if len(entries) != n_points:
        raise FittingError(
            f"{name} length {len(entries)} does not match {n_points} rows"
        )
    return entries


#: Bytes of one ``(rows, 2, n_samples)`` float64 stack in a lockstep
#: block.  The loop keeps about a dozen such stacks live (its
#: own log rows, responsibilities and data, plus the density and
#: weighted-moment temporaries), so the budget is what keeps a block's
#: working set near the cache.  Chosen by measurement (DESIGN §14).
_BLOCK_BUDGET = 512 * 1024


def _block_rows(n_samples: int) -> int:
    """Stack rows per lockstep block under :data:`_BLOCK_BUDGET`."""
    return max(1, _BLOCK_BUDGET // max(1, _COMPONENTS * n_samples * 8))


def lockstep_blocks(n_rows: int, n_samples: int) -> int:
    """Lockstep blocks :func:`fit_mixture_em_batch` cuts a stack into.

    An ``(n_rows, n_samples)`` stack of two or more blocks is what the
    engine spreads over the usable cores.
    """
    return -(-n_rows // _block_rows(n_samples))


def fit_mixture_em_batch(
    samples: np.ndarray,
    family: ComponentFamily,
    *,
    config: EMConfig | None = None,
    initials: Sequence[Mixture | Sequence[Any] | KMeansResult | None]
    | None = None,
) -> list[EMResult | Exception]:
    """Fit one two-component mixture per row of a stack.

    The EM engine: every fit, scalar ones included (as a batch of
    one), runs here.  The E-step (log densities, responsibilities,
    weights) and the weighted M-step moments run as batched numpy over
    every still-iterating row, with all reductions along the last axis
    of C-contiguous stacks, so each row's result is bit-identical to
    fitting that row alone.  Rows that satisfy the convergence
    criterion freeze and are compacted out while stragglers keep
    iterating.  The loop runs over cache-sized blocks of rows; in a
    top-level process the blocks of one call are spread over the
    usable cores (:func:`repro.runtime.fanout.run_blocks`), which
    changes no row's result.

    Every row stays in lockstep until it finishes.  A row whose start
    has one component (a k-means split that seeded one group) or that
    prunes a component below ``min_weight`` gets the single-component
    fit.  A row that fails validation or k-means, whose start has three
    or more components, or whose M-step or mixture update raises
    anything but :class:`FittingError`, keeps that exception as its
    result.

    Args:
        samples: 2-D stack, one row of observations per grid point.
        family: Component family (its ``logpdf_batch`` /
            ``fit_weighted_batch`` hooks drive the loop).
        config: Loop configuration shared by all rows.
        initials: Optional per-row starts — a ready mixture, a
            sequence of components (equal initial weights) or a
            precomputed k-means split of the row (a
            :class:`~repro.stats.kmeans.KMeansResult`, turned into the
            family's mixture); ``None`` entries k-means-seed.

    Returns:
        One entry per row: the :class:`EMResult`
        :func:`fit_mixture_em` returns for that row alone, or the
        exception it raises.
    """
    stack = _as_stack(samples)
    cfg = config or EMConfig()
    n_points = stack.shape[0]
    initial_list = _per_row(initials, n_points, "initials")
    results: list[EMResult | Exception | None] = [None] * n_points
    block_rows = _block_rows(stack.shape[1])

    with telemetry.span(
        "em.fit_batch",
        family=family.name,
        n_points=n_points,
        blocks=lockstep_blocks(n_points, stack.shape[1]),
        block_rows=block_rows,
    ):
        _fit_mixture_em_batch_impl(
            stack, family, cfg, initial_list, results, block_rows
        )
    for outcome in results:
        if not isinstance(outcome, EMResult):
            continue
        telemetry.counter_inc("em.fits")
        telemetry.observe("em.iterations", outcome.n_iter)
        if outcome.collapsed:
            telemetry.counter_inc("em.collapsed")
        if not outcome.converged:
            telemetry.counter_inc("em.nonconverged")
        if not outcome.collapsed and outcome.history and (
            outcome.loglik != outcome.history[-1]
        ):
            telemetry.counter_inc("em.best_earlier")
    assert all(outcome is not None for outcome in results)
    return results  # type: ignore[return-value]


def _fit_mixture_em_batch_impl(
    stack: np.ndarray,
    family: ComponentFamily,
    cfg: EMConfig,
    initial_list: list[Mixture | Sequence[Any] | KMeansResult | None],
    results: list[EMResult | Exception | None],
    block_rows: int,
) -> None:
    """Fill ``results`` with one ``EMResult`` or exception per row."""
    n_points = stack.shape[0]

    # --- per-row validation ------------------------------------------
    active: list[int] = []
    for p in range(n_points):
        error = _row_error(stack[p])
        if error is None:
            active.append(p)
        else:
            results[p] = error

    # --- initial mixtures (batched k-means where not supplied) -------
    seed_results = _kmeans_splits(
        stack,
        [p for p in active if initial_list[p] is None],
        cfg,
    )
    mixtures: dict[int, Mixture] = {}
    batch_rows: list[int] = []
    for p in active:
        initial = initial_list[p]
        try:
            if initial is None or isinstance(initial, KMeansResult):
                seeded = seed_results.get(p, initial)
                if isinstance(seeded, Exception):
                    raise seeded
                mixture = _initial_from_kmeans(stack[p], family, seeded)
            elif isinstance(initial, Mixture):
                mixture = initial
            else:
                count = len(initial)
                mixture = Mixture(
                    tuple(1.0 / count for _ in range(count)),
                    tuple(initial),
                )
            count = len(mixture.weights)
            if count == 1:
                # Nothing to iterate: the single-component fit.
                single = _collapse(stack[p], family)
                results[p] = EMResult(
                    single, single.loglik(stack[p]), 0, True, collapsed=True
                )
                continue
            if count > _COMPONENTS:
                raise FittingError(
                    f"initial mixture has {count} components; "
                    f"EM fits {_COMPONENTS}"
                )
        except Exception as error:
            results[p] = error
            continue
        mixtures[p] = mixture
        batch_rows.append(p)

    if not batch_rows:
        return

    # --- lockstep E/M loop, one block of stack rows at a time ---------
    # Rows are independent, so the split cannot change any row's
    # result; it keeps each block's stacks cache-sized, and the blocks
    # of one call run on every usable core (``runtime.fanout``).
    spans = [
        [p for p in batch_rows if start <= p < start + block_rows]
        for start in range(0, n_points, block_rows)
    ]
    blocks = [block for block in spans if block]
    payloads = [
        _Block(
            stack[block],
            *_lanes([mixtures[p] for p in block], family),
            family,
            cfg,
        )
        for block in blocks
    ]
    for block, outcomes in zip(
        blocks, fanout.run_blocks(_fit_block, payloads)
    ):
        for p, outcome in zip(block, outcomes):
            results[p] = outcome


def _lanes(
    mixtures: list[Mixture], family: ComponentFamily
) -> tuple[np.ndarray, np.ndarray]:
    """Two-component mixtures as a :class:`_Block`'s weights and lanes."""
    weights = np.array([m.weights for m in mixtures], dtype=float)
    lanes = np.array(
        [[family.params(c) for c in m.components] for m in mixtures],
        dtype=float,
    )
    return weights, lanes


def _row_error(row: np.ndarray) -> FittingError | None:
    """Why ``row`` cannot be fitted, or ``None``."""
    try:
        validate_samples(row, minimum=16)
    except FittingError as error:
        return error
    return None


def _kmeans_starts(
    stack: np.ndarray, config: EMConfig | None
) -> list[KMeansResult | None]:
    """Each fittable row's k-means split, to share between fits.

    A row gets ``None`` where it fails validation or k-means: a fit
    started from ``None`` validates and seeds it again and so keeps
    the same error.
    """
    splits = _kmeans_splits(
        stack,
        [
            p
            for p in range(stack.shape[0])
            if _row_error(stack[p]) is None
        ],
        config or EMConfig(),
    )
    return [
        split if isinstance(split, KMeansResult) else None
        for split in (splits.get(p) for p in range(stack.shape[0]))
    ]


def _kmeans_splits(
    stack: np.ndarray, rows: list[int], cfg: EMConfig
) -> dict[int, KMeansResult | FittingError]:
    """The k-means split of each stack row in ``rows``, keyed by row."""
    if not rows:
        return {}
    with telemetry.span(
        "kmeans.seed_batch",
        n_points=len(rows),
        n=int(stack.shape[1]) * len(rows),
    ):
        batch = kmeans_1d_batch(
            stack[np.asarray(rows, dtype=np.intp)],
            _COMPONENTS,
            n_restarts=cfg.kmeans_restarts,
            seed=cfg.seed,
        )
    return dict(zip(rows, batch))


def _compact(keep: np.ndarray, *stacks: np.ndarray) -> None:
    """Move each stack's kept rows, in order, to its leading rows.

    The in-place counterpart of ``stack[keep]``: the kept rows end up
    as a C-contiguous leading-row view, without allocating a copy.
    """
    for dst, src in enumerate(np.flatnonzero(keep).tolist()):
        if dst != src:
            for stack in stacks:
                stack[dst] = stack[src]


@dataclass(frozen=True)
class _Block:
    """One lockstep block: everything its E/M loop reads.

    Built by the parent and, when a helper process takes the block,
    pickled to it whole (``runtime.fanout``).  The mixtures travel as
    arrays, one row per stack row.

    Attributes:
        rows: ``(rows, n_samples)`` C-contiguous stack rows.
        weights: ``(rows, 2)`` initial weights.
        params: ``(rows, 2, P)`` initial component lanes.
        family: Component family.
        cfg: Loop configuration.
    """

    rows: np.ndarray
    weights: np.ndarray
    params: np.ndarray
    family: ComponentFamily
    cfg: EMConfig


def _valid_weights(weights: np.ndarray) -> np.ndarray:
    """Rows of normalised weights that every :class:`Mixture` accepts.

    The loop's weights are responsibility means over their sum, never
    negative, so only the sum can fail the mixture's check (within
    ``1e-8`` of 1).  This one is stricter, so it holds whatever order
    the sum takes.  A row that fails it builds its mixture, which
    raises the exact error or accepts it.
    """
    return np.abs(weights.sum(axis=-1) - 1.0) <= 1e-9


def _fit_block(block: _Block) -> list[EMResult | Exception]:
    """Run the lockstep E/M loop over one block; one outcome per row.

    Every row finishes here with an :class:`EMResult` or the
    exception its fit raised.  The ``(rows, 2, n_samples)`` stacks
    live in one block-sized workspace and are filled in place; the
    ``a``-th live row is always the ``a``-th leading row, so every
    reduction runs over a C-contiguous leading-row view (DESIGN §14).

    Each row's mixture is array state: its two weights and its two
    component lanes.  Objects are built only where a row finishes,
    and for the rare lane or row the arrays do not decide.  A lane
    the batched M-step flags runs the family's scalar
    ``fit_weighted``: its component becomes the lane, a
    :class:`FittingError` keeps the previous lane, and any other error
    fails the row.  A row whose new weights fail :func:`_valid_weights`
    builds its mixture, which raises the row's error or accepts it.
    A row with a component below ``min_weight`` gets the
    single-component fit.

    A row stops once one iteration moves its log-likelihood by at most
    ``cfg.tol`` nats per sample, or at ``cfg.max_iter``.  Either way it
    finishes from its best post-M-step iterate: the moment M-step is
    not an ascent step, so the last iterate need not be the best.  The
    best iterates are arrays indexed by block row (log-likelihood
    ``(rows,)``, weights ``(rows, 2)``, lanes ``(rows, 2, P)``); on a
    tie the later iterate wins.

    An ``em.block`` span times the block, tagged with its ``rows`` and
    the lockstep passes it ran (``iterations``); in a fan-out helper
    it is the helper's own EM time (``runtime.fanout``).
    """
    with telemetry.span("em.block", rows=block.rows.shape[0]) as tags:
        results, passes = _lockstep(block)
        if tags is not None:
            tags["iterations"] = passes
    return results


def _lockstep(block: _Block) -> tuple[list[EMResult | Exception], int]:
    """:func:`_fit_block`'s loop; also the number of passes it ran."""
    stack = block.rows
    family, cfg = block.family, block.cfg
    logpdf_batch = family.logpdf_batch
    n_rows, n_samples = stack.shape
    n_params = block.params.shape[2]
    results: list[EMResult | Exception | None] = [None] * n_rows
    flat_rows = n_rows * _COMPONENTS
    workspace = Workspace(flat_rows, n_samples)
    shape = (n_rows, _COMPONENTS, n_samples)
    # Component-interleaved layout: row ``2 * a + k`` of the 2-D views
    # is (point ``a``, lane ``k``), so both the density and the M-step
    # calls see one flat stack and compaction moves whole points.
    data = workspace.take("em.data", flat_rows).reshape(shape)
    log_rows = workspace.take("em.log_rows", flat_rows).reshape(shape)
    responsibilities = workspace.take(
        "em.responsibilities", flat_rows
    ).reshape(shape)
    log_norm = workspace.take("em.log_norm", n_rows)
    data[:] = stack[:, None, :]

    def _log_rows(weights: np.ndarray, params: np.ndarray) -> np.ndarray:
        """Fill the live log rows and normaliser; return the logliks.

        ``math.log(weight)`` is a scalar constant and the broadcast add
        is elementwise, hence lane-identical to a per-component
        ``log(w) + logpdf`` add.  The normaliser is one ``logaddexp``
        of the two lanes, bit-equal to ``np.logaddexp.reduce`` over
        them; the outer sum is pairwise per contiguous row.  The
        normaliser is kept for the next E-step, which needs exactly it.
        """
        alive = weights.shape[0]
        flat_count = alive * _COMPONENTS
        densities = logpdf_batch(
            params.reshape(flat_count, n_params),
            data[:alive].reshape(flat_count, n_samples),
            workspace,
        )
        flat_weights = weights.ravel()
        consts = np.array(
            [math.log(w) if w > 0.0 else 0.0 for w in flat_weights.tolist()]
        )
        flat = log_rows[:alive].reshape(flat_count, n_samples)
        np.add(consts[:, None], densities, out=flat)
        empty = ~(flat_weights > 0.0)
        if empty.any():
            # A zero-weight component contributes nothing: its row
            # stays at -inf.
            flat[empty] = -np.inf
        norm = np.logaddexp(
            log_rows[:alive, 0], log_rows[:alive, 1], out=log_norm[:alive]
        )
        return np.sum(norm, axis=1)

    # Per-row state; entry ``a`` is the ``a``-th live row.
    idx = np.arange(n_rows)
    weights = block.weights
    params = block.params.copy()
    histories: list[list[float]] = [[] for _ in range(n_rows)]
    logliks = _log_rows(weights, params)
    stop = cfg.tol * n_samples
    # Best post-M-step iterate per block row (not per live row); NaN
    # until the row's first iteration.
    best_logliks = np.full(n_rows, np.nan)
    best_weights = np.empty((n_rows, _COMPONENTS))
    best_params = np.empty((n_rows, _COMPONENTS, n_params))

    def _retire(done: np.ndarray, *stacks: np.ndarray) -> None:
        """Drop the finished rows ``done`` from every per-row state."""
        nonlocal idx, weights, params, logliks
        keep = ~done
        _compact(keep, *stacks)
        idx, weights, params, logliks = (
            state[keep] for state in (idx, weights, params, logliks)
        )

    def _mixture(row_weights: np.ndarray, lanes: np.ndarray) -> Mixture:
        """A row's mixture; raises what ``Mixture`` raises on it."""
        return Mixture(
            tuple(row_weights.tolist()),
            tuple(family.build(lane) for lane in lanes.tolist()),
        )

    def _finish(a: int, iteration: int, converged: bool):
        """Live row ``a``'s result, from its best iterate."""
        p = int(idx[a])
        if iteration:
            row_weights, lanes = best_weights[p], best_params[p]
            loglik = best_logliks[p]
        else:
            # ``max_iter=0``: the start is the only iterate.
            row_weights, lanes, loglik = weights[a], params[a], logliks[a]
        try:
            results[p] = EMResult(
                _mixture(row_weights, lanes).sorted_by_mean(),
                float(loglik),
                iteration,
                converged,
                history=tuple(histories[p]),
            )
        except Exception as error:  # captured per row
            results[p] = error

    iteration = passes = 0
    for iteration in range(1, cfg.max_iter + 1):
        alive = idx.size
        if not alive:
            break
        passes = iteration
        resp = responsibilities[:alive]
        np.subtract(log_rows[:alive], log_norm[:alive, None, :], out=resp)
        np.exp(resp, out=resp)
        masses = resp.mean(axis=2)

        # A component below ``min_weight`` collapses its row to the
        # single-component fit.
        low = (masses < cfg.min_weight).any(axis=1)
        if low.any():
            for a in np.flatnonzero(low).tolist():
                p = int(idx[a])
                try:
                    single = _collapse(stack[p], family)
                    results[p] = EMResult(
                        single,
                        single.loglik(stack[p]),
                        iteration,
                        True,
                        collapsed=True,
                        history=tuple(histories[p]),
                    )
                except Exception as error:  # captured per row
                    results[p] = error
            masses = masses[~low]
            _retire(low, data, responsibilities)
            if not idx.size:
                break
            alive = idx.size

        # One weighted-moment call over all (row, lane) pairs: every
        # row of the flat stack is an independent lane/row-reduction
        # computation, so each pair's update is bit-identical to a
        # per-component call.
        flat_data = data[:alive].reshape(alive * _COMPONENTS, n_samples)
        flat_resp = responsibilities[:alive].reshape(
            alive * _COMPONENTS, n_samples
        )
        updates, scalar = family.fit_weighted_batch(
            flat_data, flat_resp, workspace
        )
        flagged = scalar.reshape(alive, _COMPONENTS)
        np.copyto(
            params,
            updates.reshape(alive, _COMPONENTS, n_params),
            where=~flagged[:, :, None],
        )
        done = np.zeros(alive, dtype=bool)
        if flagged.any():
            for a, k in zip(*(axis.tolist() for axis in np.nonzero(flagged))):
                if done[a]:
                    continue
                lane = _COMPONENTS * a + k
                try:
                    component = family.fit_weighted(
                        flat_data[lane], flat_resp[lane]
                    )
                except FittingError:
                    # A degenerate weighted update keeps the previous
                    # estimate for this iteration.
                    continue
                except Exception as error:  # captured per row
                    results[int(idx[a])] = error
                    done[a] = True
                    continue
                params[a, k] = family.params(component)
        # One batched normalize: the last-axis row reduce of the
        # C-contiguous (A, 2) array is the same sum as a 1-D ``sum()``
        # of the row, and the broadcast divide is elementwise, so each
        # row is bit-identical to ``weights / weights.sum()``.
        weights = masses / masses.sum(axis=1)[:, None]
        valid = _valid_weights(weights)
        if not valid.all():
            for a in np.flatnonzero(~valid & ~done).tolist():
                try:
                    _mixture(weights[a], params[a])
                except Exception as error:  # captured per row
                    results[int(idx[a])] = error
                    done[a] = True
        if done.any():
            _retire(done, data)
            if not idx.size:
                break

        new_logliks = _log_rows(weights, params)
        # ``tolist`` converts each element exactly like ``float(x[a])``
        # in one C pass.
        for p, value in zip(idx.tolist(), new_logliks.tolist()):
            histories[p].append(value)
        held = best_logliks[idx]
        better = (new_logliks >= held) | np.isnan(held)
        if better.any():
            rows = idx[better]
            best_logliks[rows] = new_logliks[better]
            best_weights[rows] = weights[better]
            best_params[rows] = params[better]
        conv = np.abs(new_logliks - logliks) <= stop
        logliks = new_logliks
        if np.any(conv):
            for a in np.flatnonzero(conv).tolist():
                _finish(a, iteration, True)
            _retire(conv, data, log_rows, log_norm)

    # --- max_iter exhausted: non-converged leftovers -----------------
    for a, p in enumerate(idx.tolist()):
        if cfg.require_convergence:
            results[p] = ConvergenceWarningError(
                f"EM did not converge in {cfg.max_iter} iterations "
                f"(last loglik {float(logliks[a]):.6g})"
            )
            continue
        _finish(a, iteration, False)
    return results, passes  # type: ignore[return-value]


def concentric_initial(
    samples: np.ndarray,
    family: ComponentFamily,
    *,
    inner_mass: float = 0.6,
) -> Mixture | None:
    """Narrow-core / wide-shell initial mixture.

    K-means splits by location and therefore cannot seed *concentric*
    mixtures — the paper's Kurtosis scenario (two components with
    similar centres but different sigmas).  This initialiser fits one
    component to the central ``inner_mass`` of the sorted samples and
    the other to the tails, giving EM a starting point on the right
    basin.  Returns ``None`` when either part is degenerate.
    """
    data = np.sort(np.asarray(samples, dtype=float).ravel())
    lower = np.quantile(data, 0.5 - inner_mass / 2.0)
    upper = np.quantile(data, 0.5 + inner_mass / 2.0)
    central = data[(data >= lower) & (data <= upper)]
    outer = data[(data < lower) | (data > upper)]
    if central.size < 8 or outer.size < 8:
        return None
    try:
        components = (family.fit(central), family.fit(outer))
    except FittingError:
        return None
    return Mixture((inner_mass, 1.0 - inner_mass), components)


def fit_mixture_em_multistart(
    samples: np.ndarray,
    family: ComponentFamily,
    *,
    config: EMConfig | None = None,
    splits: Sequence[KMeansResult | None] | None = None,
    extra_initials: Sequence[Mixture | None] | None = None,
) -> list[EMResult | Exception]:
    """Multi-start EM per row: k-means, concentric, then a caller start.

    Each row of the ``(n_points, n_samples)`` stack is fitted from its
    k-means seed, then from its :func:`concentric_initial` seed, then
    from its ``extra_initials`` entry when that is not ``None``; the
    row keeps the first start with the highest likelihood, in that
    order.  This is what makes LVF2 dominate Norm2 on the paper's
    Minor Saddle / Kurtosis scenarios, where the default k-means basin
    is not the global one.

    Every start of every row is built up front (the concentric start
    only for rows that pass validation) and all of them run in one
    :func:`fit_mixture_em_batch` call.  Rows are independent in the
    engine, so each start's result is the one it gets alone.  A row
    keeps the first error in start order, whether its fit or the
    computation of its concentric start raised it.

    Args:
        samples: 2-D stack, one row of observations per point.
        family: Component family.
        config: Loop configuration shared by every start.
        splits: Optional per-row precomputed k-means split for the
            first start (or ``None`` to k-means-seed that row).
        extra_initials: Optional per-row extra start (or ``None``).

    Returns:
        One entry per row: its best :class:`EMResult`, or the
        exception its fit raised.
    """
    stack = _as_stack(samples)
    n_points = stack.shape[0]
    extras = _per_row(extra_initials, n_points, "extra_initials")
    # ``(row, start)`` in start order; a start may be the error that
    # computing it raised.
    starts: list[tuple[int, Any]] = list(
        enumerate(_per_row(splits, n_points, "splits"))
    )
    for p in range(n_points):
        if _row_error(stack[p]) is not None:
            continue
        try:
            start = concentric_initial(stack[p], family)
        except Exception as error:  # captured per row
            starts.append((p, error))
            continue
        if start is not None:
            starts.append((p, start))
    starts += [
        (p, start) for p, start in enumerate(extras) if start is not None
    ]

    fitted = [
        i for i, (_, start) in enumerate(starts)
        if not isinstance(start, Exception)
    ]
    rows = [starts[i][0] for i in fitted]
    outcomes = dict(
        zip(
            fitted,
            fit_mixture_em_batch(
                stack[rows],
                family,
                config=config,
                initials=[starts[i][1] for i in fitted],
            ),
        )
    )
    results: list[EMResult | Exception | None] = [None] * n_points
    candidates: list[list[EMResult]] = [[] for _ in range(n_points)]
    for i, (p, start) in enumerate(starts):
        outcome = outcomes.get(i, start)
        if isinstance(outcome, Exception):
            if results[p] is None:
                results[p] = outcome
        else:
            candidates[p].append(outcome)
    for p in range(n_points):
        if results[p] is None:
            results[p] = max(candidates[p], key=lambda result: result.loglik)
    return results  # type: ignore[return-value]
