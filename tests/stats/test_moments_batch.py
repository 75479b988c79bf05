"""Property-based exactness tests for the EM M-step moment kernel.

Hypothesis drives ``_weighted_moments_rows`` — the row-wise weighted
moments every lockstep EM iteration runs — across adversarial shapes
and value ranges and asserts *exact float equality* against the
serial per-row ``weighted_moments`` — ``float.hex`` comparison, never
``approx``.  The kernel's contract is that stacking may not perturb a
single ulp, and that every error the serial loop raises surfaces
identically (same type, same message, same row) in the kernel's
per-row outcomes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FittingError, raise_first
from repro.stats.moments import _weighted_moments_rows, weighted_moments

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


def hex_triple(values):
    return tuple(float(v).hex() for v in values)


def serial_outcomes(stack, weights):
    """The reference: ``weighted_moments`` per row, errors kept."""
    outcomes = []
    for row, wrow in zip(stack, weights):
        try:
            summary = weighted_moments(row, wrow)
        except FittingError as error:
            outcomes.append(error)
            continue
        outcomes.append((summary.mean, summary.std, summary.skewness))
    return outcomes


class TestWeightedMomentsBatch:
    @given(weighted_stacks())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_serial_including_errors(self, case):
        stack, weights = case
        batched = _weighted_moments_rows(stack, weights)
        for s, b in zip(serial_outcomes(stack, weights), batched):
            if isinstance(s, FittingError):
                assert isinstance(b, FittingError)
                assert str(b) == str(s)
                continue
            assert not isinstance(b, Exception)
            assert hex_triple(s) == hex_triple(b)

    @given(weighted_stacks())
    @settings(max_examples=30, deadline=None)
    def test_raise_mode_raises_first_row_error(self, case):
        # ``raise_first`` over the kernel's outcomes stops where the
        # serial loop stops, with the same error.
        stack, weights = case
        serial = serial_outcomes(stack, weights)
        first = next((s for s in serial if isinstance(s, Exception)), None)
        outcomes = _weighted_moments_rows(stack, weights)
        if first is None:
            raise_first(outcomes)  # must not raise
            return
        with pytest.raises(type(first), match=str(first)):
            raise_first(outcomes)

    def test_negative_weight_error_parity(self):
        stack = np.random.default_rng(5).normal(0, 1, (2, 16))
        weights = np.ones_like(stack)
        weights[1, 3] = -0.5
        results = _weighted_moments_rows(stack, weights)
        assert not isinstance(results[0], Exception)
        assert isinstance(results[1], FittingError)
        assert "non-negative" in str(results[1])

    def test_underflowing_std_error_parity(self):
        # Rows whose std**4 (and std**3) underflow to zero fail with
        # the serial FittingError; their neighbours are unaffected.
        base = np.arange(8.0)
        stack = np.stack([base, 1e-82 * base, 1e-110 * base, base + 1.0])
        weights = np.ones_like(stack)
        batched = _weighted_moments_rows(stack, weights)
        for s, b in zip(serial_outcomes(stack, weights), batched):
            if isinstance(s, FittingError):
                assert isinstance(b, FittingError)
                assert str(b) == str(s)
                assert "underflows" in str(b)
                continue
            assert hex_triple(s) == hex_triple(b)
        assert [isinstance(b, FittingError) for b in batched] == [
            False, True, True, False
        ]
