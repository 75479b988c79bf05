"""Byte-identity suite: the lockstep EM engine vs the serial reference.

``repro.stats.em`` has one EM engine, ``fit_mixture_em_batch``; scalar
fits are batches of one.  Its load-bearing invariant is exactness, not
closeness: every row must reproduce the original per-point serial loop
(kept verbatim in ``tests/stats/serial_em_reference.py``) *bit for
bit* — same floats, same iteration counts, same convergence and
collapse flags, same exceptions in the same rows.  That covers rows
that collapse to one component (k-means under-seeding, ``min_weight``
pruning) as well as ordinary ones, and the multi-start
``LVF2Model`` / ``Norm2Model`` fits built on the engine.  Every
comparison therefore canonicalises results through ``float.hex`` JSON
and asserts string equality; ``pytest.approx`` would defeat the point.

The randomized sweep draws grid configurations (shape, family,
separation, degeneracy injection) from seeded RNGs so each case is
reproducible from its index.  ``REPRO_EM_BATCH_CASES`` widens the
sweep locally (default 20, the acceptance floor).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import ConvergenceWarningError, FittingError, raise_first
from repro.models.gaussian import GaussianModel
from repro.models.lvf2 import LVF2Model, SKEW_NORMAL_FAMILY
from repro.models.norm2 import GAUSSIAN_FAMILY, Norm2Model
from repro.runtime import telemetry
from repro.runtime.telemetry import TelemetrySession
from repro.stats import em as em_module
from repro.stats.em import (
    EMConfig,
    fit_mixture_em_batch,
    fit_mixture_em_multistart,
)
from repro.stats.kmeans import kmeans_1d_batch
from repro.stats.mixtures import Mixture
from repro.stats.skew_normal import SkewNormal
from tests.stats import serial_em_reference as reference

CASES = int(os.environ.get("REPRO_EM_BATCH_CASES", "20"))
SWEEP_SEED = 20260808


# ---------------------------------------------------------------------------
# Canonical serialization: float.hex() captures every bit of every float,
# so equal canon strings mean bit-identical results.


def canon_component(component) -> list[str]:
    if hasattr(component, "theta"):
        values = list(component.theta())
        sn = component.skew_normal
        values += [sn.xi, sn.omega, sn.alpha]
    else:
        values = [component.mu, component.sigma]
    return [float(v).hex() for v in values]


def canon_result(result) -> str:
    if isinstance(result, Exception):
        return json.dumps(
            {"error": type(result).__name__, "message": str(result)}
        )
    return json.dumps(
        {
            "weights": [float(w).hex() for w in result.mixture.weights],
            "components": [
                canon_component(c) for c in result.mixture.components
            ],
            "loglik": float(result.loglik).hex(),
            "n_iter": result.n_iter,
            "converged": result.converged,
            "collapsed": result.collapsed,
            "history": [float(h).hex() for h in result.history],
        },
        sort_keys=True,
    )


def serial_loop(stack, family, config=None, initials=None):
    """The reference: one serial ``fit_mixture_em`` per row, errors kept."""
    results = []
    for index in range(stack.shape[0]):
        initial = None if initials is None else initials[index]
        try:
            results.append(
                reference.fit_mixture_em(
                    stack[index],
                    family,
                    2,
                    config=config,
                    initial=initial,
                )
            )
        except Exception as error:  # noqa: BLE001 — parity includes errors
            results.append(error)
    return results


def assert_batch_matches_serial(stack, family, config=None, initials=None):
    serial = serial_loop(stack, family, config=config, initials=initials)
    batched = fit_mixture_em_batch(
        stack, family, config=config, initials=initials
    )
    assert len(batched) == len(serial)
    for index, (a, b) in enumerate(zip(serial, batched)):
        assert canon_result(a) == canon_result(b), f"row {index} diverged"
    return serial, batched


# ---------------------------------------------------------------------------
# Grid generators.


def bimodal_stack(rng, n_points, n_samples, spread=1.0):
    rows = []
    for index in range(n_points):
        shift = spread * index / max(1, n_points - 1)
        weight = 0.55 + 0.1 * rng.random()
        mixture = Mixture(
            (weight, 1.0 - weight),
            (
                SkewNormal.from_moments(
                    1.0 + shift, 0.04 + 0.03 * rng.random(), 0.5
                ),
                SkewNormal.from_moments(
                    1.3 + shift, 0.05 + 0.02 * rng.random(), -0.3
                ),
            ),
        )
        rows.append(mixture.rvs(n_samples, rng=rng))
    return np.stack(rows)


def degenerate_stack(rng, n_samples):
    """Rows engineered to exercise failure and collapse paths."""
    rows = [
        np.full(n_samples, 1.25),  # constant: moment fit must fail
        rng.normal(1.0, 1e-9, n_samples),  # near-constant
        np.repeat([1.0, 2.0], n_samples // 2 + 1)[:n_samples],  # two spikes
        rng.normal(0.0, 1.0, n_samples),  # clean unimodal
    ]
    return np.stack(rows)


# ---------------------------------------------------------------------------
# The randomized acceptance sweep (>= 20 configurations).


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("case", range(CASES))
    def test_random_grid_matches_serial(self, case):
        rng = np.random.default_rng([SWEEP_SEED, case])
        n_points = int(rng.integers(2, 9))
        n_samples = int(rng.integers(24, 140))
        family = (
            SKEW_NORMAL_FAMILY if case % 2 == 0 else GAUSSIAN_FAMILY
        )
        stack = bimodal_stack(
            rng, n_points, n_samples, spread=float(rng.uniform(0.0, 2.0))
        )
        if rng.random() < 0.4:
            # Inject a degenerate row: it must fail or collapse in its
            # slot and still match the serial loop bit for bit.
            victim = int(rng.integers(n_points))
            stack[victim] = 1.0 + 1e-12 * np.arange(n_samples)
        config = EMConfig(
            max_iter=int(rng.integers(5, 60)),
            tol=float(10.0 ** rng.integers(-10, -5)),
            seed=int(rng.integers(1 << 16)),
        )
        assert_batch_matches_serial(stack, family, config=config)


class TestDegenerateRows:
    def test_degenerate_grid_matches_serial(self):
        rng = np.random.default_rng(77)
        stack = degenerate_stack(rng, 64)
        serial, batched = assert_batch_matches_serial(
            stack, SKEW_NORMAL_FAMILY
        )
        # The harness only proves parity; make sure the grid actually
        # exercised the error path it was built for.
        assert any(isinstance(r, Exception) for r in batched)
        assert any(not isinstance(r, Exception) for r in batched)

    def test_raise_mode_raises_first_row_error(self):
        rng = np.random.default_rng(78)
        stack = degenerate_stack(rng, 48)
        serial = serial_loop(stack, SKEW_NORMAL_FAMILY)
        first_error = next(
            r for r in serial if isinstance(r, Exception)
        )
        with pytest.raises(type(first_error)) as excinfo:
            raise_first(fit_mixture_em_batch(stack, SKEW_NORMAL_FAMILY))
        assert str(excinfo.value) == str(first_error)

    def test_underflowing_component_spread_matches_serial(self):
        # A component whose weighted std**4 underflows keeps its
        # previous estimate on both paths (it used to crash both).
        data = np.concatenate([np.linspace(-2.0, 2.0, 62), [0.5, 0.50032]])
        stack = np.stack([data, data[::-1]])
        initial = Mixture(
            (0.9, 0.1), (GaussianModel(0.0, 1.0), GaussianModel(0.5, 1e-5))
        )
        serial, batched = assert_batch_matches_serial(
            stack,
            GAUSSIAN_FAMILY,
            config=EMConfig(max_iter=20),
            initials=[initial, initial],
        )
        assert not any(isinstance(r, Exception) for r in batched)

    def test_collapse_inputs_match_serial(self):
        # Unimodal rows at 2 components: collapse/overlap territory.
        rng = np.random.default_rng(79)
        stack = np.stack(
            [rng.normal(0.0, 1.0, 90) for _ in range(5)]
        )
        assert_batch_matches_serial(stack, GAUSSIAN_FAMILY)


class TestMixedConvergence:
    def test_tight_iteration_cap_mixes_converged_rows(self):
        # Easy and hard rows under a tight cap: some converge, some
        # hit max_iter — the per-row masking must keep them exact.
        rng = np.random.default_rng(80)
        easy = bimodal_stack(rng, 3, 80, spread=3.0)
        hard = np.stack([rng.normal(0.0, 1.0, 80) for _ in range(3)])
        stack = np.concatenate([easy, hard])
        config = EMConfig(max_iter=6)
        serial, batched = assert_batch_matches_serial(
            stack, SKEW_NORMAL_FAMILY, config=config
        )
        flags = {
            r.converged
            for r in batched
            if not isinstance(r, Exception)
        }
        assert flags == {True, False}

    def test_zero_iteration_cap_returns_the_start(self):
        # No post-M-step iterate exists, so every row returns its
        # start, unconverged, with an empty history.
        rng = np.random.default_rng(80)
        stack = bimodal_stack(rng, 3, 80, spread=3.0)
        serial, batched = assert_batch_matches_serial(
            stack, SKEW_NORMAL_FAMILY, config=EMConfig(max_iter=0)
        )
        for result in batched:
            assert (result.n_iter, result.converged) == (0, False)
            assert result.history == ()

    def test_warm_starts_match_serial(self):
        rng = np.random.default_rng(81)
        stack = bimodal_stack(rng, 4, 70)
        initials = [
            None,
            Mixture(
                (0.5, 0.5),
                (
                    SkewNormal.from_moments(1.0, 0.05, 0.0),
                    SkewNormal.from_moments(1.3, 0.05, 0.0),
                ),
            ),
            None,
            Mixture(
                (0.4, 0.6),
                (
                    SkewNormal.from_moments(0.9, 0.06, 0.1),
                    SkewNormal.from_moments(1.4, 0.04, -0.1),
                ),
            ),
        ]
        assert_batch_matches_serial(
            stack, SKEW_NORMAL_FAMILY, initials=initials
        )


    @pytest.mark.parametrize("min_weight", [1e-4, 0.0])
    def test_zero_weight_warm_start_matches_serial(self, min_weight):
        # A zero-weight component's log row is -inf.  With the default
        # floor the row prunes it and collapses; with no floor it keeps
        # iterating with the dead component.
        rng = np.random.default_rng(82)
        stack = bimodal_stack(rng, 3, 80)
        initial = Mixture(
            (1.0, 0.0), (GaussianModel(1.0, 0.05), GaussianModel(1.3, 0.05))
        )
        config = EMConfig(max_iter=15, min_weight=min_weight)
        serial, batched = assert_batch_matches_serial(
            stack,
            GAUSSIAN_FAMILY,
            config=config,
            initials=[initial, None, initial],
        )
        assert batched[0].collapsed == (min_weight > 0.0)


class TestValidation:
    def test_rejects_non_2d_input(self):
        with pytest.raises(FittingError, match="2-D"):
            fit_mixture_em_batch(
                np.zeros(10), SKEW_NORMAL_FAMILY
            )
        with pytest.raises(FittingError, match="ndim=3"):
            fit_mixture_em_batch(
                np.zeros((2, 3, 4)), SKEW_NORMAL_FAMILY
            )

    def test_rejects_initials_length_mismatch(self):
        stack = np.random.default_rng(1).normal(0, 1, (3, 40))
        with pytest.raises(FittingError, match="does not match"):
            fit_mixture_em_batch(
                stack, SKEW_NORMAL_FAMILY, initials=[None, None]
            )


class TestKMeansBatch:
    @pytest.mark.parametrize("case", range(6))
    def test_kmeans_batch_matches_serial(self, case):
        rng = np.random.default_rng([SWEEP_SEED, 1000, case])
        n_points = int(rng.integers(2, 7))
        n_samples = int(rng.integers(16, 120))
        stack = bimodal_stack(rng, n_points, n_samples)
        seed = int(rng.integers(1 << 16))
        batched = kmeans_1d_batch(stack, 2, seed=seed)
        for index, b in enumerate(batched):
            s = reference.kmeans_1d(stack[index], 2, seed=seed)
            assert s.centers.tolist() == b.centers.tolist()
            assert s.labels.tolist() == b.labels.tolist()
            assert float(s.inertia).hex() == float(b.inertia).hex()
            assert (s.iterations, s.converged) == (
                b.iterations,
                b.converged,
            )

    def test_kmeans_batch_captures_degenerate_rows(self):
        stack = np.stack(
            [np.full(20, 3.0), np.linspace(0.0, 1.0, 20)]
        )
        results = kmeans_1d_batch(stack, 2)
        assert isinstance(results[0], FittingError)
        assert "distinct" in str(results[0])
        serial = reference.kmeans_1d(stack[1], 2)
        assert results[1].centers.tolist() == serial.centers.tolist()


def canon_model(model) -> str:
    """float.hex canon of a fitted mixture model (LVF2, Norm2)."""
    return json.dumps(
        {
            "weights": [float(w).hex() for w in model.mixture.weights],
            "components": [
                canon_component(c) for c in model.mixture.components
            ],
        }
    )


class TestLVF2FitBatch:
    def test_fit_batch_matches_serial_fit(self):
        rng = np.random.default_rng(90)
        stack = bimodal_stack(rng, 6, 80)
        serial = [
            reference.lvf2_fit(stack[index])
            for index in range(stack.shape[0])
        ]
        batched = LVF2Model.fit_batch(stack)
        for a, b in zip(serial, batched):
            assert canon_model(a) == canon_model(b)

    def test_fit_batch_captures_row_errors(self):
        rng = np.random.default_rng(91)
        stack = bimodal_stack(rng, 3, 64)
        stack[1] = 2.5  # constant row
        batched = LVF2Model.fit_batch(stack)
        assert isinstance(batched[1], Exception)
        with pytest.raises(type(batched[1])) as excinfo:
            reference.lvf2_fit(stack[1])
        assert str(excinfo.value) == str(batched[1])
        serial0 = reference.lvf2_fit(stack[0])
        assert canon_model(batched[0]) == canon_model(serial0)

    def test_one_kmeans_split_serves_both_starts(self):
        # The Norm2 warm-start fit and the skew-normal k-means start
        # share one split per row; rows that fail validation or
        # k-means keep the serial errors.
        rng = np.random.default_rng(92)
        stack = bimodal_stack(rng, 4, 80)
        stack[1] = np.nan
        stack[2] = 2.5
        session = TelemetrySession()
        with telemetry.activate(session):
            batched = LVF2Model.fit_batch(stack)
        for index, outcome in enumerate(batched):
            try:
                serial = canon_model(reference.lvf2_fit(stack[index]))
            except Exception as error:  # noqa: BLE001 — error parity
                assert type(outcome) is type(error)
                assert str(outcome) == str(error)
                continue
            assert canon_model(outcome) == serial
        seeded = [
            record.tags["n_points"]
            for record in session.tracer.records()
            if record.name == "kmeans.seed_batch"
        ]
        # One split of the three valid rows; the unsplittable constant
        # row is seeded again (and fails again) by each of the fits.
        assert seeded == [3, 1, 1]


class TestScalarFitsMatchReference:
    """Scalar model fits are batches of one; each must equal the serial
    reference fit at the 500-sample scale of the path stages."""

    @pytest.fixture(scope="class")
    def rows(self):
        rng = np.random.default_rng(20261017)
        return list(bimodal_stack(rng, 3, 500, spread=2.0)) + [
            rng.normal(1.0, 0.1, 500)
        ]

    def test_lvf2_fit(self, rows):
        for index, row in enumerate(rows):
            assert canon_model(LVF2Model.fit(row)) == canon_model(
                reference.lvf2_fit(row)
            ), f"row {index}"

    def test_norm2_fit(self, rows):
        for index, row in enumerate(rows):
            assert canon_model(Norm2Model.fit(row)) == canon_model(
                reference.norm2_fit(row)
            ), f"row {index}"


class TestMultiStartMatchesReference:
    def test_multistart_matches_serial_multi(self):
        rng = np.random.default_rng(92)
        stack = np.concatenate(
            [
                bimodal_stack(rng, 2, 120),
                np.stack(
                    [
                        np.concatenate(
                            [rng.normal(0, 0.3, 80), rng.normal(0, 1.5, 40)]
                        )
                    ]
                ),
                np.full((1, 120), 2.0),  # fails every start
            ]
        )
        extra = Mixture(
            (0.5, 0.5), (GaussianModel(0.5, 0.3), GaussianModel(2.0, 0.3))
        )
        extras = [None, extra, extra, None]
        batched = fit_mixture_em_multistart(
            stack, GAUSSIAN_FAMILY, extra_initials=extras
        )
        for index, row in enumerate(stack):
            try:
                serial = reference.fit_mixture_em_multi(
                    row,
                    GAUSSIAN_FAMILY,
                    extra_initials=[] if extras[index] is None
                    else [extras[index]],
                )
            except Exception as error:  # noqa: BLE001 — parity of errors
                serial = error
            assert canon_result(serial) == canon_result(
                batched[index]
            ), f"row {index}"
        assert isinstance(batched[3], FittingError)


class TestMultiBlock:
    """Stacks long enough that the lockstep loop runs in several blocks.

    ``n_samples`` is derived from the block budget so each block holds
    two rows: the seven rows below run as blocks of 2, 2, 2 and 1, with
    an early-converging row, a capped row, a ``min_weight`` collapse,
    a k-means collapse and a validation failure spread across them.
    """

    N_ROWS = 7

    @staticmethod
    def n_samples() -> int:
        n = em_module._BLOCK_BUDGET // (2 * 2 * 8)
        assert em_module._block_rows(n) == 2
        return n

    def grid(self, family):
        rng = np.random.default_rng(20261017)
        n = self.n_samples()
        easy = bimodal_stack(rng, 2, n, spread=3.0)
        far = 1e3  # a warm-start component no sample is near
        if family is SKEW_NORMAL_FAMILY:
            near = SkewNormal.from_moments(0.0, 1.0, 0.0)
            away = SkewNormal.from_moments(far, 1.0, 0.0)
        else:
            near, away = GaussianModel(0.0, 1.0), GaussianModel(far, 1.0)
        collapse = rng.normal(0.0, 1.0, n)
        collapse[:5] = 50.0  # a k-means group too small to seed
        stack = np.stack(
            [
                easy[1],                   # block 0: converges early
                rng.normal(0.0, 1.0, n),   # block 0: hits the cap
                rng.normal(0.0, 1.0, n),   # block 1: min_weight collapse
                collapse,                  # block 1: k-means collapse
                np.full(n, 1.25),          # block 2: fails validation
                rng.normal(0.0, 1.0, n),   # block 2: hits the cap
                easy[0],                   # block 3: one row
            ]
        )
        initials = [None] * self.N_ROWS
        initials[2] = Mixture((0.5, 0.5), (near, away))
        return stack, initials

    @pytest.mark.parametrize(
        "family, max_iter",
        [(SKEW_NORMAL_FAMILY, 20), (GAUSSIAN_FAMILY, 12)],
        ids=["sn", "normal"],
    )
    def test_blocks_match_serial_with_counters(self, family, max_iter):
        stack, initials = self.grid(family)
        config = EMConfig(max_iter=max_iter, tol=1e-6)
        serial_session = TelemetrySession()
        with telemetry.activate(serial_session):
            serial = serial_loop(
                stack, family, config=config, initials=initials
            )
        batch_session = TelemetrySession()
        with telemetry.activate(batch_session):
            batched = fit_mixture_em_batch(
                stack, family, config=config, initials=initials
            )
        for index, (a, b) in enumerate(zip(serial, batched)):
            assert canon_result(a) == canon_result(b), f"row {index}"
        # The grid exercises what it was built for.
        assert batched[0].converged
        assert batched[0].n_iter < config.max_iter
        assert not batched[1].converged and not batched[5].converged
        assert batched[2].collapsed and batched[3].collapsed
        assert isinstance(batched[4], FittingError)

        def em_metrics(session):
            snapshot = session.metrics.snapshot()
            return {
                kind: {
                    name: value
                    for name, value in values.items()
                    if name.startswith("em.")
                }
                for kind, values in snapshot.items()
            }

        assert em_metrics(serial_session) == em_metrics(batch_session)
        counters = em_metrics(batch_session)["counters"]
        assert counters["em.fits"] == 6
        (span,) = [
            record
            for record in batch_session.tracer.records()
            if record.name == "em.fit_batch"
        ]
        assert (span.tags["blocks"], span.tags["block_rows"]) == (4, 2)

    def test_errors_raised_in_row_order_across_blocks(self):
        stack, initials = self.grid(SKEW_NORMAL_FAMILY)
        # Capped rows now raise from inside their blocks (rows 1, 5
        # and 6); the validation failure (row 4) is found before any
        # block runs, yet row 1's error must be the one raised.
        config = EMConfig(max_iter=20, tol=1e-6, require_convergence=True)
        serial, batched = assert_batch_matches_serial(
            stack, SKEW_NORMAL_FAMILY, config=config, initials=initials
        )
        assert [
            type(r).__name__ if isinstance(r, Exception) else None
            for r in batched
        ] == [
            None,
            "ConvergenceWarningError",
            None,
            None,
            "FittingError",
            "ConvergenceWarningError",
            "ConvergenceWarningError",
        ]
        first_error = next(r for r in serial if isinstance(r, Exception))
        with pytest.raises(ConvergenceWarningError) as excinfo:
            raise_first(batched)
        assert str(excinfo.value) == str(first_error)
