"""Property-based exactness tests for the EM M-step kernels.

Every lockstep EM iteration runs two array kernels over all component
lanes at once: ``_weighted_moments_rows`` (the weighted moments of each
lane) and, for skew-normal components, ``_moments_to_params_rows`` (the
moment inversion).  Hypothesis drives both across adversarial shapes
and value ranges and compares them lane by lane with their scalar
references, ``weighted_moments`` and ``moments_to_params``, by
``float.hex``, never ``approx``.

A kernel flags the lanes its arrays do not stand for, and the EM loop
resolves each flagged lane through the scalar function.  So the
contract is: every lane on which the scalar reference raises is
flagged; every unflagged lane is bit-identical to it; and the resolved
outcome (kernel value, or the scalar's value or error on a flagged
lane) matches the serial loop row for row, with the same error type
and message in the same row.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FittingError, ParameterError, raise_first
from repro.stats.moments import _weighted_moments_rows, weighted_moments
from repro.stats.skew_normal import (
    DEFAULT_SKEW_MARGIN,
    MAX_SKEWNESS,
    SkewNormal,
    _moments_to_params_rows,
    moments_to_params,
)

# Finite, non-degenerate magnitudes: the exactness contract is about
# summation order, not about saturating float range.
finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive = st.floats(min_value=1e-6, max_value=1e3)


@st.composite
def sample_stacks(draw):
    n_points = draw(st.integers(min_value=1, max_value=6))
    n_samples = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    loc = draw(finite)
    scale = draw(positive)
    stack = loc + scale * rng.standard_normal((n_points, n_samples))
    return stack


@st.composite
def weighted_stacks(draw):
    stack = draw(sample_stacks())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    weights = rng.random(stack.shape)
    if draw(st.booleans()):
        # Sparse responsibilities, as the E-step produces for a
        # well-separated component: many (near-)zero entries.
        weights = weights * (rng.random(stack.shape) < 0.5)
    return stack, weights


def hex_tuple(values):
    return tuple(float(v).hex() for v in values)


def serial_outcomes(stack, weights):
    """The reference: ``weighted_moments`` per row, errors kept."""
    outcomes = []
    for row, wrow in zip(stack, weights):
        try:
            summary = weighted_moments(row, wrow)
        except Exception as error:  # noqa: BLE001 — parity includes errors
            outcomes.append(error)
            continue
        outcomes.append((summary.mean, summary.std, summary.skewness))
    return outcomes


def kernel_outcomes(stack, weights):
    """The kernel's rows, flagged ones resolved as the EM loop does."""
    means, stds, skews, scalar = _weighted_moments_rows(stack, weights)
    outcomes = []
    for p, flagged in enumerate(scalar.tolist()):
        if not flagged:
            outcomes.append((means[p], stds[p], skews[p]))
            continue
        try:
            summary = weighted_moments(stack[p], weights[p])
        except Exception as error:  # noqa: BLE001 — the scalar's error
            outcomes.append(error)
            continue
        outcomes.append((summary.mean, summary.std, summary.skewness))
    return scalar, outcomes


def assert_rows_match(serial, batched):
    for s, b in zip(serial, batched, strict=True):
        if isinstance(s, Exception):
            assert type(b) is type(s)
            assert str(b) == str(s)
            continue
        assert not isinstance(b, Exception)
        assert hex_tuple(s) == hex_tuple(b)


class TestWeightedMomentsBatch:
    @given(weighted_stacks())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_serial_including_errors(self, case):
        stack, weights = case
        serial = serial_outcomes(stack, weights)
        scalar, batched = kernel_outcomes(stack, weights)
        assert_rows_match(serial, batched)
        # On these magnitudes the kernel flags exactly the rows the
        # serial function raises on.
        assert scalar.tolist() == [
            isinstance(s, Exception) for s in serial
        ]

    @given(weighted_stacks())
    @settings(max_examples=30, deadline=None)
    def test_raise_mode_raises_first_row_error(self, case):
        # ``raise_first`` over the resolved rows stops where the serial
        # loop stops, with the same error.
        stack, weights = case
        serial = serial_outcomes(stack, weights)
        first = next((s for s in serial if isinstance(s, Exception)), None)
        _, outcomes = kernel_outcomes(stack, weights)
        if first is None:
            raise_first(outcomes)  # must not raise
            return
        with pytest.raises(type(first), match=str(first)):
            raise_first(outcomes)

    def test_negative_weight_error_parity(self):
        stack = np.random.default_rng(5).normal(0, 1, (2, 16))
        weights = np.ones_like(stack)
        weights[1, 3] = -0.5
        scalar, results = kernel_outcomes(stack, weights)
        assert scalar.tolist() == [False, True]
        assert isinstance(results[1], FittingError)
        assert "non-negative" in str(results[1])

    def test_underflowing_std_error_parity(self):
        # Rows whose std**4 (and std**3) underflow to zero fail with
        # the serial FittingError; their neighbours are unaffected.
        base = np.arange(8.0)
        stack = np.stack([base, 1e-82 * base, 1e-110 * base, base + 1.0])
        weights = np.ones_like(stack)
        scalar, batched = kernel_outcomes(stack, weights)
        assert_rows_match(serial_outcomes(stack, weights), batched)
        assert scalar.tolist() == [False, True, True, False]
        assert "underflows" in str(batched[1])

    def test_huge_std_takes_the_scalar_path(self):
        # Above the kernel's power bound a row is flagged.  Where the
        # serial std**4 overflows it raises OverflowError (which fails
        # an EM row); just below the overflow it succeeds, and the
        # resolved row is the serial value.
        base = np.tile([-1.0, 1.0], 4)  # std 1, every |deviation| 1
        stack = np.stack([base, 1.1e77 * base, 2e77 * base])
        weights = np.ones_like(stack)
        serial = serial_outcomes(stack, weights)
        scalar, batched = kernel_outcomes(stack, weights)
        assert_rows_match(serial, batched)
        assert scalar.tolist() == [False, True, True]
        assert not isinstance(serial[1], Exception)
        assert isinstance(serial[2], OverflowError)


# ---------------------------------------------------------------------------
# The skew-normal moment inversion.

BOUND = MAX_SKEWNESS - DEFAULT_SKEW_MARGIN

#: Skewness in every regime of the inversion: both signs inside the
#: attainable range, beyond the 0.9953 clamp, below the 1e-14 Gaussian
#: cut-off (signed zeros included), and exactly at the clamp.
skews = st.one_of(
    st.floats(min_value=-BOUND, max_value=BOUND),
    st.floats(min_value=0.9953, max_value=50.0).flatmap(
        lambda g: st.sampled_from([g, -g])
    ),
    st.floats(min_value=-1e-14, max_value=1e-14),
    st.sampled_from([BOUND, -BOUND, 0.0, -0.0, 1e-14, -1e-14]),
)
#: Standard deviations, with the non-positive and non-finite values the
#: scalar inversion rejects.
stds = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.sampled_from([0.0, -0.0, -1.0, math.inf, -math.inf, math.nan]),
)


@st.composite
def random_lanes(draw):
    """Full-precision lanes such as the M-step produces, from a seed.

    Hypothesis favours short, round floats, on which numpy's vector
    ``power`` and libm agree; lanes like these expose a divergence.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = 64
    return list(
        zip(
            rng.normal(0.0, 10.0, n).tolist(),
            np.exp(rng.uniform(-20.0, 20.0, n)).tolist(),
            rng.uniform(-1.2, 1.2, n).tolist(),
        )
    )


lanes = st.one_of(
    st.lists(st.tuples(finite, stds, skews), min_size=1, max_size=24),
    random_lanes(),
)


def scalar_inversion(mean, std, skew):
    """``moments_to_params`` plus the ``SkewNormal`` checks, errors kept."""
    try:
        xi, omega, alpha = moments_to_params(mean, std, skew)
        SkewNormal(xi, omega, alpha)
    except ParameterError as error:
        return error
    return (xi, omega, alpha)


class TestMomentsToParamsRows:
    @given(lanes)
    @example(
        [
            (1.0, 0.2, 0.5),  # positive skew
            (-3.0, 0.7, -0.8),  # negative skew
            (2.0, 0.1, 3.0),  # clamped from above
            (2.0, 0.1, -3.0),  # clamped from below
            (0.5, 1.0, 1e-15),  # Gaussian cut-off
            (0.5, 1.0, -0.0),
        ]
        + [(1.0, std, 0.3) for std in (0.0, -0.0, -2.0)]
        + [(1.0, std, 0.3) for std in (math.inf, -math.inf, math.nan)]
    )
    @settings(max_examples=200, deadline=None)
    def test_lane_identical_to_scalar_inversion(self, rows):
        means, stds_, skews_ = (np.array(column) for column in zip(*rows))
        xi, omega, alpha, bad = _moments_to_params_rows(means, stds_, skews_)
        for lane, (mean, std, skew) in enumerate(rows):
            expected = scalar_inversion(mean, std, skew)
            if isinstance(expected, Exception):
                assert bad[lane], (mean, std, skew)
                continue
            assert not bad[lane], (mean, std, skew)
            assert hex_tuple(expected) == hex_tuple(
                (xi[lane], omega[lane], alpha[lane])
            )

    def test_many_full_precision_lanes(self):
        # libm's ``x ** 2`` differs from the correctly rounded ``x * x``
        # on about 0.1% of inputs and reaches an output on a few lanes
        # in 10^4, too rarely for the property above to see.
        rng = np.random.default_rng(20261018)
        n = 100_000
        means = rng.normal(0.0, 10.0, n)
        stds_ = np.exp(rng.uniform(-20.0, 20.0, n))
        skews_ = rng.uniform(-1.2, 1.2, n)
        xi, omega, alpha, bad = _moments_to_params_rows(means, stds_, skews_)
        assert not bad.any()
        mismatches = [
            lane
            for lane, row in enumerate(
                zip(means.tolist(), stds_.tolist(), skews_.tolist())
            )
            if moments_to_params(*row)
            != (xi[lane], omega[lane], alpha[lane])
        ]
        assert mismatches == []
