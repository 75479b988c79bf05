"""FitPolicy: the model-fitting fallback ladder.

A single degenerate EM fit (collapsed component, NaN samples,
non-convergence) used to abort an entire library characterisation.  The
ladder makes every fit land somewhere useful instead:

1. ``LVF2``         — the paper's two-skew-normal EM fit;
2. ``LVF2-reseed``  — the same fit retried from reseeded k-means
   restarts (EM is a local optimiser: a different basin often
   converges where the default seeding collapsed);
3. ``Norm2``        — two-Gaussian mixture, recast as a zero-skew LVF2;
4. ``LVF``          — single skew-normal (the paper's own λ=0 fallback,
   Eq. 10: LVF2 degrades *exactly* to LVF);
5. ``Gaussian``     — moment-matched normal, recast as zero-skew LVF;
6. ``degenerate``   — a floor-width Gaussian placeholder for data that
   no model can represent (e.g. constant samples), so a single dead
   grid point cannot sink a 25-cell library run.

Every rung returns an :class:`~repro.models.lvf2.LVF2Model`, so the
Liberty export path downstream never needs to care which rung fired;
the :class:`~repro.runtime.report.FitReport` records which one did.

Non-finite samples are dropped (and counted) before fitting — injected
or simulated NaNs degrade the fit rather than poisoning it.

Strict fail-fast fitting is the one-rung ladder
``FitPolicy(rungs=("LVF2",))``: the same walk, with nothing to fall
back to.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import FittingError
from repro.models.gaussian import GaussianModel
from repro.models.lvf import LVFModel
from repro.models.lvf2 import LVF2Model
from repro.models.norm2 import Norm2Model
from repro.runtime import faults, telemetry
from repro.runtime.report import FitAttempt, FitContext, FitOutcome
from repro.stats.em import EMConfig

__all__ = ["DEFAULT_RUNGS", "FitPolicy"]

#: Ladder rungs in degradation order.
DEFAULT_RUNGS = (
    "LVF2",
    "LVF2-reseed",
    "Norm2",
    "LVF",
    "Gaussian",
    "degenerate",
)

#: Exceptions a rung may leak from numerical code; converted to ladder
#: steps instead of aborting the run.
_NUMERICAL_ERRORS = (
    FittingError,
    ValueError,
    ArithmeticError,
    np.linalg.LinAlgError,
)


def _lvf2_from_norm2(model: Norm2Model) -> LVF2Model:
    """Recast a two-Gaussian fit as an LVF2 with zero-skew components."""
    first = LVFModel(model.component1.mu, model.component1.sigma, 0.0)
    if model.component2 is None:
        return LVF2Model(0.0, first, None)
    second = LVFModel(model.component2.mu, model.component2.sigma, 0.0)
    return LVF2Model(model.weight, first, second)


@dataclass(frozen=True)
class FitPolicy:
    """Configuration of the fallback ladder.

    Attributes:
        reseed_seeds: k-means seeds tried on the ``LVF2-reseed`` rung.
        reseed_restarts: k-means restarts per reseeded attempt.
        sigma_floor: Relative width of the ``degenerate`` placeholder
            (scaled by ``max(1, |mean|)``).
        rungs: Ladder order; must be a subsequence of
            :data:`DEFAULT_RUNGS`, so ``LVF2`` is first when present.
            ``("LVF2",)`` is strict mode: a point LVF2 cannot fit
            raises :class:`FittingError`.  A ladder without
            ``"degenerate"`` raises for data no model can represent.
    """

    reseed_seeds: tuple[int, ...] = (1013, 2027)
    reseed_restarts: int = 8
    sigma_floor: float = 1e-9
    rungs: tuple[str, ...] = DEFAULT_RUNGS

    def __post_init__(self) -> None:
        unknown = set(self.rungs) - set(DEFAULT_RUNGS)
        if unknown:
            raise FittingError(
                f"unknown ladder rungs: {sorted(unknown)}"
            )
        if not self.rungs:
            raise FittingError("the ladder needs at least one rung")
        if self.rungs != tuple(r for r in DEFAULT_RUNGS if r in self.rungs):
            raise FittingError(
                f"ladder rungs must follow {DEFAULT_RUNGS} order, "
                f"got {self.rungs}"
            )

    # ------------------------------------------------------------------
    # Rung implementations (samples arrive finite and 1-D).  ``LVF2``
    # has none: fit_batch_iter fits it for the whole batch up front.
    # ------------------------------------------------------------------
    def _fit_reseed(self, samples: np.ndarray) -> LVF2Model:
        last: FittingError | None = None
        for seed in self.reseed_seeds:
            config = EMConfig(
                kmeans_restarts=self.reseed_restarts, seed=seed
            )
            try:
                return LVF2Model.fit(samples, config=config)
            except _NUMERICAL_ERRORS as error:
                last = (
                    error
                    if isinstance(error, FittingError)
                    else FittingError(str(error))
                )
        raise last or FittingError("no reseed attempts configured")

    def _fit_norm2(self, samples: np.ndarray) -> LVF2Model:
        return _lvf2_from_norm2(Norm2Model.fit(samples))

    def _fit_lvf(self, samples: np.ndarray) -> LVF2Model:
        return LVF2Model.from_lvf(LVFModel.fit(samples))

    def _fit_gaussian(self, samples: np.ndarray) -> LVF2Model:
        gaussian = GaussianModel.fit(samples)
        return LVF2Model.from_lvf(
            LVFModel(gaussian.mu, gaussian.sigma, 0.0)
        )

    def _fit_degenerate(self, samples: np.ndarray) -> LVF2Model:
        mean = float(samples.mean())
        floor = self.sigma_floor * max(1.0, abs(mean))
        sigma = max(float(samples.std()), floor)
        return LVF2Model.from_lvf(LVFModel(mean, sigma, 0.0))

    def _rung_fitter(self, rung: str):
        return {
            "LVF2-reseed": self._fit_reseed,
            "Norm2": self._fit_norm2,
            "LVF": self._fit_lvf,
            "Gaussian": self._fit_gaussian,
            "degenerate": self._fit_degenerate,
        }[rung]

    # ------------------------------------------------------------------
    # The ladder
    # ------------------------------------------------------------------
    def fit(
        self,
        samples: np.ndarray,
        context: FitContext | None = None,
    ) -> FitOutcome:
        """Walk the ladder for one sample set: a batch of one.

        Args:
            samples: Raw Monte-Carlo samples; non-finite entries are
                dropped (and counted) first.
            context: Arc-condition identity, used by the fault
                injection hooks and recorded in reports.

        Returns:
            The first successful rung's model with its provenance.

        Raises:
            FittingError: Only when *every* rung fails (e.g. no finite
                samples at all, or a ladder without the placeholder
                rung).
        """
        (outcome,) = self.fit_batch_iter([samples], [context])
        return outcome

    def fit_batch_iter(
        self,
        samples_list: Sequence[np.ndarray],
        contexts: Sequence[FitContext | None] | None = None,
    ) -> Iterator[FitOutcome]:
        """Walk the ladder for many grid points, batching the first rung.

        When the first rung is ``LVF2``, all points are fitted up front
        by :meth:`LVF2Model.fit_batch` — the vectorized multi-start EM,
        bit-identical to fitting each point alone — grouped by finite
        sample count so NaN-dropped points still batch together.  The
        generator then walks the ladder per point in input order:
        fault-injection hooks fire exactly once per (point, rung) in
        the order a per-point loop would consult them, the precomputed
        ``LVF2`` result (model or captured exception) stands in for
        that rung, and every later rung runs point by point.
        Outcomes are yielded one point at a time so a mid-grid failure
        leaves exactly a per-point loop's partial progress behind.

        Args:
            samples_list: Raw per-point Monte-Carlo samples.
            contexts: Optional per-point arc identities, same length.

        Yields:
            One :class:`FitOutcome` per point, in input order.
        """
        items = [
            np.asarray(samples, dtype=float).ravel()
            for samples in samples_list
        ]
        finites = [raw[np.isfinite(raw)] for raw in items]
        if contexts is None:
            context_list: list[FitContext | None] = [None] * len(items)
        else:
            context_list = list(contexts)
            if len(context_list) != len(items):
                raise FittingError(
                    f"contexts length {len(context_list)} does not "
                    f"match {len(items)} sample sets"
                )
        prefits: dict[int, LVF2Model | Exception] = {}
        if "LVF2" in self.rungs and items:
            groups: dict[int, list[int]] = {}
            for index, finite in enumerate(finites):
                if finite.size:
                    groups.setdefault(finite.size, []).append(index)
            with telemetry.span("fit.prefit_batch", n_points=len(items)):
                for members in groups.values():
                    batch = LVF2Model.fit_batch(
                        np.stack([finites[i] for i in members])
                    )
                    prefits.update(zip(members, batch))
        for index, (raw, finite) in enumerate(zip(items, finites)):
            context = context_list[index]
            with telemetry.span(
                "fit.ladder",
                condition=context.condition if context else "",
            ):
                outcome = self._walk_ladder(
                    finite, raw.size - finite.size, context, prefits.get(index)
                )
            self._record_outcome(outcome)
            yield outcome

    def _record_outcome(self, outcome: FitOutcome) -> None:
        telemetry.observe(
            "fit.fallback_rung", self.rungs.index(outcome.rung)
        )
        telemetry.counter_inc(f"fit.rung.{outcome.rung}")
        if outcome.degraded:
            telemetry.counter_inc("fit.degraded")
        if outcome.n_dropped:
            telemetry.counter_inc(
                "fit.dropped_samples", outcome.n_dropped
            )

    def _walk_ladder(
        self,
        finite: np.ndarray,
        n_dropped: int,
        context: FitContext | None,
        prefit: LVF2Model | Exception | None,
    ) -> FitOutcome:
        attempts: list[FitAttempt] = []
        if finite.size == 0:
            raise FittingError(
                "no finite samples to fit"
                + (f" ({n_dropped} non-finite dropped)" if n_dropped else "")
            )
        for rung in self.rungs:
            injected = faults.fit_should_fail(context, rung)
            if injected is not None:
                attempts.append(FitAttempt(rung, injected))
                continue
            try:
                if rung != "LVF2":
                    model = self._rung_fitter(rung)(finite)
                elif isinstance(prefit, Exception):
                    # A captured batch error degrades like a raised
                    # one; a non-numerical error propagates.
                    raise prefit
                else:
                    model = prefit
            except _NUMERICAL_ERRORS as error:
                attempts.append(
                    FitAttempt(rung, f"{type(error).__name__}: {error}")
                )
                continue
            return FitOutcome(
                model=model,
                rung=rung,
                degraded=rung != self.rungs[0],
                attempts=tuple(attempts),
                n_dropped=n_dropped,
            )
        trail = "; ".join(f"{a.rung}: {a.error}" for a in attempts)
        where = f" for {context.condition}" if context else ""
        raise FittingError(
            f"every ladder rung failed{where}: {trail}"
        )
