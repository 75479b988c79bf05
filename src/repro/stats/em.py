"""Generic expectation-maximisation driver for finite mixtures.

Implements the fitting loop of paper §3.2: latent responsibilities
(Eq. 6) in the E-step, component re-estimation in the M-step (Eqs. 8-9),
initialised by k-means partitioning plus per-group method-of-moments
estimates.  The driver is component-family agnostic: the same loop fits
LVF2 (skew-normal components) and Norm2 (Gaussian components), the two
mixture models compared in the paper.  There is one engine,
:func:`fit_mixture_em_batch`, which fits a stack of sample rows in
lockstep; a scalar fit is a batch of one.

The M-step is pluggable.  The default family implementations use
weighted method-of-moments updates — fast, closed-form and stable, but
not an ascent step: the observed-data log-likelihood (Eq. 5) is not
guaranteed to increase, and real fits do show decreasing steps.  The
loop stops when the relative log-likelihood change falls below
``EMConfig.tol`` or at ``max_iter``, and returns its last iterate.  An
optional weighted-MLE refinement (``refine="mle"``) on the model
classes polishes the result by direct likelihood ascent.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConvergenceWarningError, FittingError
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
]


@dataclass(frozen=True)
class ComponentFamily:
    """A parametric family usable as mixture components.

    Attributes:
        name: Family name for diagnostics ("skew-normal", "normal").
        fit: Unweighted fit used on the initial k-means groups.
        fit_weighted: Weighted fit of one component — all samples
            plus that component's responsibilities; the per-row
            M-step that ``fit_weighted_batch`` must reproduce.
        logpdf_batch: Vectorized density — receives one component
            per stacked row, the C-contiguous ``(n_points, n_samples)``
            data stack and a :class:`~repro.stats.workspace.Workspace`,
            and returns per-row log densities bit-identical to calling
            each component's ``logpdf`` on its row.  The result may be
            a workspace view (valid until the next call).
        fit_weighted_batch: Vectorized M-step — receives the data
            stack, per-row responsibilities and the workspace, and
            returns one fitted component (or the captured exception)
            per row, each bit-identical to ``fit_weighted`` on that
            row.  The components it returns may be lightweight
            stand-ins (carrying just what ``logpdf_batch`` reads) as
            long as ``realize`` can turn each one into the exact model
            ``fit_weighted`` would have produced.
        realize: Optional finisher for ``fit_weighted_batch``
            stand-ins — called on every component of a finished
            mixture before it is returned.  ``None`` means the batch
            M-step already returns real components.
    """

    name: str
    fit: Callable[[np.ndarray], Any]
    fit_weighted: Callable[[np.ndarray, np.ndarray], Any]
    logpdf_batch: Callable[[Sequence[Any], np.ndarray, Workspace], np.ndarray]
    fit_weighted_batch: Callable[
        [np.ndarray, np.ndarray, Workspace], list[Any]
    ]
    realize: Callable[[Any], Any] | None = None


@dataclass(frozen=True)
class EMConfig:
    """Tuning knobs for :func:`fit_mixture_em`.

    Attributes:
        max_iter: Iteration cap for the E/M loop.
        tol: Relative log-likelihood improvement below which the loop
            is declared converged.
        min_weight: A component whose weight falls below this value is
            considered collapsed; the fit degrades gracefully to fewer
            components rather than chasing a degenerate optimum.
        kmeans_restarts: Restarts for the k-means initialiser.
        seed: Seed forwarded to k-means seeding.
        require_convergence: Raise instead of returning a best-effort
            result when the loop hits ``max_iter``.
    """

    max_iter: int = 200
    tol: float = 1e-8
    min_weight: float = 1e-4
    kmeans_restarts: int = 4
    seed: int | None = 0
    require_convergence: bool = False


@dataclass(frozen=True)
class EMResult:
    """Outcome of an EM fit.

    Attributes:
        mixture: Fitted mixture, components sorted by mean.
        loglik: Final observed-data log-likelihood (Eq. 5).
        n_iter: E/M iterations performed.
        converged: Whether the tolerance criterion was met.
        collapsed: True when a component degenerated and the result has
            fewer effective components than requested.
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
    n_components: int = 2,
    *,
    config: EMConfig | None = None,
    initial: Mixture | Sequence[Any] | None = None,
) -> EMResult:
    """Fit an ``n_components`` mixture of ``family`` by EM.

    A batch of one: the samples run as the single row of
    :func:`fit_mixture_em_batch`, the one EM engine.

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
    (result,) = fit_mixture_em_batch(
        _single_row(samples, "fit_mixture_em", "fit_mixture_em_batch"),
        family,
        n_components,
        config=config,
        initials=[initial],
    )
    return result


#: Bytes of one ``(rows, n_components, n_samples)`` float64 stack in a
#: lockstep block.  The loop keeps about a dozen such stacks live (its
#: own log rows, responsibilities and data, plus the density and
#: weighted-moment temporaries), so the budget is what keeps a block's
#: working set near the cache.  Chosen by measurement (DESIGN §14).
_BLOCK_BUDGET = 512 * 1024


def _block_rows(n_components: int, n_samples: int) -> int:
    """Stack rows per lockstep block under :data:`_BLOCK_BUDGET`."""
    return max(1, _BLOCK_BUDGET // max(1, n_components * n_samples * 8))


def fit_mixture_em_batch(
    samples: np.ndarray,
    family: ComponentFamily,
    n_components: int = 2,
    *,
    config: EMConfig | None = None,
    initials: Sequence[Mixture | Sequence[Any] | KMeansResult | None]
    | None = None,
    errors: str = "raise",
) -> list[EMResult | Exception]:
    """Fit one mixture per row of a ``(n_points, n_samples)`` stack.

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

    Every row stays in lockstep until it finishes.  A row with fewer
    live components than its lanes — a k-means split that seeded too
    few, or a component pruned below ``min_weight`` — carries dead
    lanes (see :func:`_fit_block`); a row that collapses to one
    component gets the single-component fit; a row whose M-step or
    mixture update raises anything but :class:`FittingError` keeps
    that exception as its result.

    Args:
        samples: 2-D stack, one row of observations per grid point.
        family: Component family (its ``logpdf_batch`` /
            ``fit_weighted_batch`` hooks drive the loop).
        n_components: Mixture size per row.
        config: Loop configuration shared by all rows.
        initials: Optional per-row starts — a ready mixture, a
            sequence of components (equal initial weights) or a
            precomputed k-means split of the row (a
            :class:`~repro.stats.kmeans.KMeansResult`, turned into the
            family's mixture); ``None`` entries k-means-seed.
        errors: ``"raise"`` re-raises the first failing row's error in
            row order; ``"capture"`` returns the exception in that
            row's slot.

    Returns:
        One :class:`EMResult` per row, with captured exceptions
        interleaved when ``errors="capture"``.
    """
    if errors not in ("raise", "capture"):
        raise ValueError(f"unknown errors mode: {errors!r}")
    stack = _as_stack(samples)
    cfg = config or EMConfig()
    n_points = stack.shape[0]
    if initials is None:
        initial_list: list[Mixture | Sequence[Any] | KMeansResult | None] = (
            [None] * n_points
        )
    else:
        initial_list = list(initials)
        if len(initial_list) != n_points:
            raise FittingError(
                f"initials length {len(initial_list)} does not match "
                f"{n_points} rows"
            )
    results: list[EMResult | Exception | None] = [None] * n_points
    block_rows = _block_rows(n_components, stack.shape[1])

    with telemetry.span(
        "em.fit_batch",
        family=family.name,
        n_components=n_components,
        n_points=n_points,
        blocks=len(range(0, n_points, block_rows)),
        block_rows=block_rows,
    ):
        _fit_mixture_em_batch_impl(
            stack, family, n_components, cfg, initial_list, results,
            block_rows,
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
    if errors == "raise":
        for outcome in results:
            if isinstance(outcome, Exception):
                raise outcome
    assert all(outcome is not None for outcome in results)
    return results  # type: ignore[return-value]


def _fit_mixture_em_batch_impl(
    stack: np.ndarray,
    family: ComponentFamily,
    n_components: int,
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
        error = _row_error(stack[p], n_components)
        if error is None:
            active.append(p)
        else:
            results[p] = error

    # --- initial mixtures (batched k-means where not supplied) -------
    seed_results = _kmeans_splits(
        stack,
        [p for p in active if initial_list[p] is None],
        n_components,
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
            if mixture.n_components == 1:
                # Nothing to iterate: the single-component fit.
                single = _collapse(stack[p], family)
                results[p] = EMResult(
                    single, single.loglik(stack[p]), 0, True, collapsed=True
                )
                continue
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
    # of one call run on every usable core (``runtime.fanout``).  Every
    # row is ``width`` lanes wide: a row seeded with fewer components
    # pads dead lanes.
    width = max(
        n_components, max(mixtures[p].n_components for p in batch_rows)
    )
    spans = [
        [p for p in batch_rows if start <= p < start + block_rows]
        for start in range(0, n_points, block_rows)
    ]
    blocks = [block for block in spans if block]
    payloads = [
        _Block(
            stack[block],
            tuple(mixtures[p] for p in block),
            family,
            n_components,
            width,
            cfg,
        )
        for block in blocks
    ]
    for block, outcomes in zip(
        blocks, fanout.run_blocks(_fit_block, payloads)
    ):
        for p, outcome in zip(block, outcomes):
            results[p] = outcome


def _row_error(row: np.ndarray, n_components: int) -> FittingError | None:
    """Why ``row`` cannot be fitted with ``n_components``, or ``None``."""
    try:
        validate_samples(row, minimum=max(16, 8 * n_components))
        if n_components < 1:
            raise FittingError(
                f"n_components must be >= 1, got {n_components}"
            )
    except FittingError as error:
        return error
    return None


def _kmeans_starts(
    stack: np.ndarray, n_components: int, config: EMConfig | None
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
            if _row_error(stack[p], n_components) is None
        ],
        n_components,
        config or EMConfig(),
    )
    return [
        split if isinstance(split, KMeansResult) else None
        for split in (splits.get(p) for p in range(stack.shape[0]))
    ]


def _kmeans_splits(
    stack: np.ndarray,
    rows: list[int],
    n_components: int,
    cfg: EMConfig,
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
            n_components,
            n_restarts=cfg.kmeans_restarts,
            seed=cfg.seed,
            errors="capture",
        )
    return dict(zip(rows, batch))


def _fold_lanes(lanes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.logaddexp.reduce(lanes, axis=1, out=out)``, bit for bit.

    The reduce over the lane axis of a ``(rows, width, n_samples)``
    stack is a sequential left fold; spelled out as one ``logaddexp``
    per further lane it computes the same values, dead (``-inf``)
    lanes included, at about two thirds of the cost.
    """
    width = lanes.shape[1]
    if width == 1:
        np.copyto(out, lanes[:, 0])
        return out
    np.logaddexp(lanes[:, 0], lanes[:, 1], out=out)
    for k in range(2, width):
        np.logaddexp(out, lanes[:, k], out=out)
    return out


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
    pickled to it whole (``runtime.fanout``).

    Attributes:
        rows: ``(len(mixtures), n_samples)`` C-contiguous stack rows.
        mixtures: Each row's initial mixture (at least two components).
        family: Component family.
        n_components: Requested mixture size.
        width: Lanes per row (``n_components`` or a wider warm start).
        cfg: Loop configuration.
    """

    rows: np.ndarray
    mixtures: tuple[Mixture, ...]
    family: ComponentFamily
    n_components: int
    width: int
    cfg: EMConfig


def _fit_block(block: _Block) -> list[EMResult | Exception]:
    """Run the lockstep E/M loop over one block; one outcome per row.

    Every row finishes here with an :class:`EMResult` or the
    exception its fit raised.  The ``(rows, width, n_samples)`` stacks
    live in one block-sized workspace and are filled in place; the
    ``a``-th live row is always the ``a``-th leading row, so every
    reduction runs over a C-contiguous leading-row view (DESIGN §14).

    A row's mixture holds only its live components, in its leading
    lanes; the remaining lanes are dead.  A dead lane has weight
    exactly 0, so its log row is all ``-inf``: it leaves the
    normaliser unchanged (``logaddexp(x, -inf) == x``), its
    responsibility and weight are 0 (``x + 0.0 == x`` in the weight
    sum), and its M-step update is discarded.  The live lanes
    therefore compute exactly what a fit of just the live components
    computes.  (Where the normaliser itself is ``-inf`` every lane's
    weight is NaN, live ones included, as in a fit of the live
    components alone.)
    """
    import math

    stack = block.rows
    family, width, cfg = block.family, block.width, block.cfg
    logpdf_batch = family.logpdf_batch
    fit_weighted_batch = family.fit_weighted_batch
    n_rows, n_samples = stack.shape
    results: list[EMResult | Exception | None] = [None] * n_rows
    workspace = Workspace(n_rows * width, n_samples)
    shape = (n_rows, width, n_samples)
    # Component-interleaved layout: row ``a * width + k`` of the 2-D
    # views is (point ``a``, lane ``k``), so both the density and the
    # M-step calls see one flat stack and compaction moves whole
    # points.
    flat_rows = n_rows * width
    data = workspace.take("em.data", flat_rows).reshape(shape)
    log_rows = workspace.take("em.log_rows", flat_rows).reshape(shape)
    responsibilities = workspace.take(
        "em.responsibilities", flat_rows
    ).reshape(shape)
    log_norm = workspace.take("em.log_norm", n_rows)
    data[:] = stack[:, None, :]

    def _log_rows(mixture_list: list[Mixture]) -> np.ndarray:
        """Fill the live log rows and normaliser; return the logliks.

        ``math.log(weight)`` is a scalar constant and the broadcast add
        is elementwise, hence lane-identical to a per-component
        ``log(w) + logpdf`` add.  The normaliser is a sequential left
        fold over the lanes (:func:`_fold_lanes`); the outer sum is
        pairwise per contiguous row.  The normaliser is kept for the
        next E-step, which needs exactly it.
        """
        alive = len(mixture_list)
        weights: list[float] = []
        components: list[Any] = []
        for mixture in mixture_list:
            weights.extend(mixture.weights)
            components.extend(mixture.components)
            dead = width - mixture.n_components
            if dead:
                # Any live component fills a dead lane's density; the
                # zero weight overwrites it with -inf below.
                weights.extend([0.0] * dead)
                components.extend(mixture.components[:1] * dead)
        densities = logpdf_batch(
            components,
            data[:alive].reshape(alive * width, n_samples),
            workspace,
        )
        consts = np.array([math.log(w) if w > 0.0 else 0.0 for w in weights])
        flat = log_rows[:alive].reshape(alive * width, n_samples)
        np.add(consts[:, None], densities, out=flat)
        if not all(w > 0.0 for w in weights):
            # A zero-weight component contributes nothing: its row
            # stays at -inf.
            flat[[i for i, w in enumerate(weights) if not w > 0.0]] = -np.inf
        norm = _fold_lanes(log_rows[:alive], log_norm[:alive])
        return np.sum(norm, axis=1)

    def _realized(mixture: Mixture) -> Mixture:
        """Swap M-step stand-ins for the real components, if any."""
        if family.realize is None:
            return mixture
        return Mixture(
            mixture.weights,
            tuple(family.realize(c) for c in mixture.components),
        )

    mixtures_c = list(block.mixtures)
    idx_c = list(range(n_rows))
    collapsed_c = [m.n_components < block.n_components for m in mixtures_c]
    histories: list[list[float]] = [[] for _ in range(n_rows)]
    logliks = _log_rows(mixtures_c)

    def _retire(done: np.ndarray, *stacks: np.ndarray) -> None:
        """Drop the finished rows ``done`` from every per-row state."""
        nonlocal logliks, idx_c, mixtures_c, collapsed_c
        keep = ~done
        _compact(keep, *stacks)
        logliks = logliks[keep]
        flags = keep.tolist()
        idx_c = [p for p, flag in zip(idx_c, flags) if flag]
        mixtures_c = [m for m, flag in zip(mixtures_c, flags) if flag]
        collapsed_c = [c for c, flag in zip(collapsed_c, flags) if flag]

    def _finish(a: int, iteration: int, converged: bool, loglik: float):
        p = idx_c[a]
        try:
            results[p] = EMResult(
                _realized(mixtures_c[a]).sorted_by_mean(),
                loglik,
                iteration,
                converged,
                collapsed=collapsed_c[a],
                history=tuple(histories[p]),
            )
        except Exception as error:  # captured; re-raised by the caller
            results[p] = error

    iteration = 0
    for iteration in range(1, cfg.max_iter + 1):
        if not mixtures_c:
            break
        alive = len(mixtures_c)
        resp = responsibilities[:alive]
        np.subtract(log_rows[:alive], log_norm[:alive, None, :], out=resp)
        np.exp(resp, out=resp)
        weights_c = resp.mean(axis=2)
        low = weights_c < cfg.min_weight
        for a, mixture in enumerate(mixtures_c):
            # Dead lanes weigh 0 and are never pruned again.
            low[a, mixture.n_components :] = False

        # A component below ``min_weight`` is pruned from its row: the
        # row renormalises the survivors' responsibilities and goes on
        # with one more dead lane, or collapses to one component.
        pruning = np.flatnonzero(low.any(axis=1)).tolist()
        if pruning:
            done = np.zeros(alive, dtype=bool)
            for a in pruning:
                p = idx_c[a]
                mixture = mixtures_c[a]
                count = mixture.n_components
                keep = weights_c[a, :count] >= cfg.min_weight
                try:
                    if int(keep.sum()) <= 1:
                        single = _collapse(stack[p], family)
                        results[p] = EMResult(
                            single,
                            single.loglik(stack[p]),
                            iteration,
                            True,
                            collapsed=True,
                            history=tuple(histories[p]),
                        )
                        done[a] = True
                        continue
                    kept = resp[a, :count][keep]
                    kept = kept / kept.sum(axis=0, keepdims=True)
                    weights = kept.mean(axis=1)
                    mixtures_c[a] = Mixture(
                        tuple(weights / weights.sum()),
                        tuple(
                            component
                            for flag, component in zip(
                                keep, mixture.components
                            )
                            if flag
                        ),
                    )
                except Exception as error:  # captured per row
                    results[p] = error
                    done[a] = True
                    continue
                resp[a, : weights.size] = kept
                weights_c[a, : weights.size] = weights
                weights_c[a, weights.size :] = 0.0
                collapsed_c[a] = True
            if done.any():
                weights_c = weights_c[~done]
                _retire(done, data, responsibilities)
                if not mixtures_c:
                    break
                alive = len(mixtures_c)

        # One weighted-moment call over all (row, lane) pairs: every
        # row of the flat stack is an independent lane/row-reduction
        # computation, so each pair's update is bit-identical to a
        # per-component call.
        updates = fit_weighted_batch(
            data[:alive].reshape(alive * width, n_samples),
            responsibilities[:alive].reshape(alive * width, n_samples),
            workspace,
        )
        # One batched normalize: the last-axis row reduce of the
        # C-contiguous (A, width) array is the same sequential/pairwise
        # sum as a 1-D ``sum()`` of the row, and the broadcast divide
        # is elementwise, so each row is bit-identical to
        # ``weights / weights.sum()``.
        norm_weights = (
            weights_c / weights_c.sum(axis=1)[:, None]
        ).tolist()
        done = np.zeros(alive, dtype=bool)
        for a, mixture in enumerate(mixtures_c):
            count = mixture.n_components
            components: list[Any] = []
            failure: Exception | None = None
            for k in range(count):
                update = updates[a * width + k]
                if isinstance(update, FittingError):
                    # A degenerate weighted update keeps the previous
                    # estimate for this iteration.
                    components.append(mixture.components[k])
                elif isinstance(update, Exception):
                    failure = update
                    break
                else:
                    components.append(update)
            if failure is None:
                try:
                    mixtures_c[a] = Mixture(
                        tuple(norm_weights[a][:count]), tuple(components)
                    )
                except Exception as error:  # captured per row
                    failure = error
            if failure is not None:
                results[idx_c[a]] = failure
                done[a] = True
        if done.any():
            _retire(done, data)
            if not mixtures_c:
                break

        new_logliks = _log_rows(mixtures_c)
        # ``tolist`` converts each element exactly like ``float(x[a])``
        # in one C pass; the hoisted list feeds the bookkeeping loops.
        new_logliks_l = new_logliks.tolist()
        for a, p in enumerate(idx_c):
            histories[p].append(new_logliks_l[a])
        conv = np.abs(new_logliks - logliks) <= cfg.tol * (
            np.abs(logliks) + 1e-12
        )
        logliks = new_logliks
        if np.any(conv):
            for a in np.flatnonzero(conv).tolist():
                _finish(a, iteration, True, new_logliks_l[a])
            _retire(conv, data, log_rows, log_norm)

    # --- max_iter exhausted: non-converged leftovers -----------------
    for a, p in enumerate(idx_c):
        if cfg.require_convergence:
            results[p] = ConvergenceWarningError(
                f"EM did not converge in {cfg.max_iter} iterations "
                f"(last loglik {float(logliks[a]):.6g})"
            )
            continue
        _finish(a, iteration, False, float(logliks[a]))
    return results  # type: ignore[return-value]


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
    n_components: int = 2,
    *,
    config: EMConfig | None = None,
    extra_initials: Sequence[Mixture | None] | None = None,
    errors: str = "raise",
) -> list[EMResult | Exception]:
    """Multi-start EM per row: k-means, concentric, then a caller start.

    Each row of the ``(n_points, n_samples)`` stack is fitted from its
    k-means seed, then (for two components) from its
    :func:`concentric_initial` seed, then from its ``extra_initials``
    entry when that is not ``None``; the row keeps the first start
    with the highest likelihood, in that order.  This is what makes
    LVF2 dominate Norm2 on the paper's Minor Saddle / Kurtosis
    scenarios, where the default k-means basin is not the global one.

    Each start is one :func:`fit_mixture_em_batch` sweep over the rows
    that reach it; a row whose fit raises keeps that error and skips
    its later starts.

    Args:
        samples: 2-D stack, one row of observations per point.
        family: Component family.
        n_components: Mixture size per row.
        config: Loop configuration shared by every start.
        extra_initials: Optional per-row extra start (or ``None``).
        errors: ``"raise"`` re-raises the first failing row's error in
            row order; ``"capture"`` returns it in that row's slot.

    Returns:
        One best :class:`EMResult` (or captured exception) per row.
    """
    if errors not in ("raise", "capture"):
        raise ValueError(f"unknown errors mode: {errors!r}")
    stack = _as_stack(samples)
    n_points = stack.shape[0]
    extras = (
        [None] * n_points if extra_initials is None else list(extra_initials)
    )
    if len(extras) != n_points:
        raise FittingError(
            f"extra_initials length {len(extras)} does not match "
            f"{n_points} rows"
        )
    results = _multistart(
        stack, family, n_components, config, [None] * n_points, extras
    )
    if errors == "raise":
        for outcome in results:
            if isinstance(outcome, Exception):
                raise outcome
    return results


def _multistart(
    stack: np.ndarray,
    family: ComponentFamily,
    n_components: int,
    config: EMConfig | None,
    splits: Sequence[KMeansResult | None],
    extras: Sequence[Mixture | None],
) -> list[EMResult | Exception]:
    """:func:`fit_mixture_em_multistart` with errors captured.

    ``splits`` holds each row's k-means start, precomputed, or
    ``None`` to k-means-seed it in the first sweep.
    """
    n_points = stack.shape[0]
    results: list[EMResult | Exception | None] = [None] * n_points
    candidates: list[list[EMResult]] = [[] for _ in range(n_points)]

    def sweep(starts: dict[int, Mixture | KMeansResult | None]) -> None:
        rows = list(starts)
        if not rows:
            return
        outcomes = fit_mixture_em_batch(
            stack if len(rows) == n_points else stack[rows],
            family,
            n_components,
            config=config,
            initials=list(starts.values()),
            errors="capture",
        )
        for p, outcome in zip(rows, outcomes):
            if isinstance(outcome, Exception):
                results[p] = outcome
            else:
                candidates[p].append(outcome)

    sweep(dict(enumerate(splits)))
    if n_components == 2:
        concentric: dict[int, Mixture | KMeansResult | None] = {}
        for p in range(n_points):
            if results[p] is not None:
                continue
            try:
                start = concentric_initial(stack[p], family)
            except Exception as error:  # captured per row
                results[p] = error
                continue
            if start is not None:
                concentric[p] = start
        sweep(concentric)
    sweep(
        {
            p: start
            for p, start in enumerate(extras)
            if start is not None and results[p] is None
        }
    )
    for p in range(n_points):
        if results[p] is None:
            results[p] = max(candidates[p], key=lambda result: result.loglik)
    return results  # type: ignore[return-value]
