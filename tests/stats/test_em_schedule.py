"""The multi-start schedule: every start of every row in one engine call.

``fit_mixture_em_multistart`` builds each row's k-means, concentric
and caller starts up front and fits all of them in one
``fit_mixture_em_batch`` call.  A row keeps the first error in start
order, even when its later starts run in the same call, and every
other row stays bit-identical to the serial reference.  The model
fits built on it make one engine call (Norm2) or two (LVF2: the
Gaussian warm-start fit, then the multi-start).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FittingError
from repro.models.gaussian import GaussianModel
from repro.models.lvf2 import LVF2Model
from repro.models.norm2 import GAUSSIAN_FAMILY, Norm2Model
from repro.runtime import telemetry
from repro.runtime.telemetry import TelemetrySession
from repro.stats import em as em_module
from repro.stats.em import fit_mixture_em_multistart
from repro.stats.kmeans import KMeansResult
from repro.stats.mixtures import Mixture
from tests.stats import serial_em_reference as reference
from tests.stats.test_em_batch import bimodal_stack, canon_result

N_SAMPLES = 120

#: A caller start every row can run.
EXTRA = Mixture(
    (0.5, 0.5), (GaussianModel(1.0, 0.1), GaussianModel(1.3, 0.1))
)


def shattered_split(n_samples: int) -> KMeansResult:
    """A split into groups of four: no group can seed a component, so
    the k-means start raises :class:`FittingError`."""
    groups = n_samples // 4
    return KMeansResult(
        np.arange(groups, dtype=float),
        np.arange(n_samples) % groups,
        0.0,
        1,
        True,
    )


def engine_spans(session: TelemetrySession) -> list:
    return [
        record
        for record in session.tracer.records()
        if record.name == "em.fit_batch"
    ]


def assert_matches_reference(stack, outcomes, rows, extras):
    for p in rows:
        serial = reference.fit_mixture_em_multi(
            stack[p],
            GAUSSIAN_FAMILY,
            extra_initials=[] if extras[p] is None else [extras[p]],
        )
        assert canon_result(outcomes[p]) == canon_result(serial), f"row {p}"


class TestErrorPrecedence:
    @pytest.fixture
    def stack(self):
        return bimodal_stack(np.random.default_rng(25), 4, N_SAMPLES)

    def test_kmeans_start_error_wins_over_later_starts(self, stack):
        # Row 1's k-means start raises; its concentric start fits and
        # its three-component caller start raises another error, all
        # in the same engine call.  The k-means error is the row's.
        three = Mixture(
            (0.3, 0.3, 0.4),
            tuple(GaussianModel(mu, 0.1) for mu in (1.0, 1.2, 1.4)),
        )
        splits = [None, shattered_split(N_SAMPLES), None, None]
        extras = [None, three, EXTRA, None]
        session = TelemetrySession()
        with telemetry.activate(session):
            outcomes = fit_mixture_em_multistart(
                stack, GAUSSIAN_FAMILY, splits=splits, extra_initials=extras
            )
        assert isinstance(outcomes[1], FittingError)
        assert "could not initialise" in str(outcomes[1])
        assert_matches_reference(stack, outcomes, [0, 2, 3], extras)
        (span,) = engine_spans(session)
        # Every row's k-means and concentric starts, plus two caller
        # starts.
        assert span.tags["n_points"] == 4 + 4 + 2

    def test_concentric_start_error_is_kept(self, stack, monkeypatch):
        # Row 1's concentric start raises a non-FittingError after its
        # k-means start fitted: the row keeps that error.  Row 2's
        # k-means start raises too, and that earlier error wins.
        concentric = em_module.concentric_initial
        failing = (stack[1], stack[2])

        def failing_concentric(samples, family, **kwargs):
            if any(np.array_equal(samples, row) for row in failing):
                raise RuntimeError("concentric start failed")
            return concentric(samples, family, **kwargs)

        monkeypatch.setattr(
            em_module, "concentric_initial", failing_concentric
        )
        splits = [None, None, shattered_split(N_SAMPLES), None]
        extras = [EXTRA, EXTRA, None, None]
        outcomes = fit_mixture_em_multistart(
            stack, GAUSSIAN_FAMILY, splits=splits, extra_initials=extras
        )
        assert type(outcomes[1]) is RuntimeError
        assert isinstance(outcomes[2], FittingError)
        monkeypatch.undo()
        assert_matches_reference(stack, outcomes, [0, 3], extras)


class TestEngineCalls:
    @pytest.mark.parametrize("n_rows", [1, 16])
    @pytest.mark.parametrize(
        "model, calls, starts",
        [(LVF2Model, 2, 3), (Norm2Model, 1, 2)],
        ids=["LVF2", "Norm2"],
    )
    def test_one_multistart_call_per_fit_batch(
        self, model, calls, starts, n_rows
    ):
        stack = bimodal_stack(np.random.default_rng(7), n_rows, 200)
        session = TelemetrySession()
        with telemetry.activate(session):
            outcomes = model.fit_batch(stack)
        assert not any(isinstance(o, Exception) for o in outcomes)
        spans = engine_spans(session)
        assert len(spans) == calls
        # The last call fits every start of every row: k-means and
        # concentric, plus LVF2's Norm2 warm start.
        assert spans[-1].tags["n_points"] == starts * n_rows
