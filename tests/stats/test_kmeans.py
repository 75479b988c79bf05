"""Tests for repro.stats.kmeans (LVF2 EM initialiser)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FittingError, raise_first
from repro.stats.kmeans import kmeans_1d_batch, split_by_labels


def kmeans_row(samples, n_clusters=2, **kwargs):
    """Cluster one sample set as a batch of one."""
    stack = np.asarray(samples, dtype=float)[None]
    (result,) = raise_first(kmeans_1d_batch(stack, n_clusters, **kwargs))
    return result


class TestKMeans1D:
    """``kmeans_1d_batch`` on one row."""

    def test_separates_two_clear_clusters(self, rng):
        data = np.concatenate(
            [rng.normal(0.0, 0.1, 500), rng.normal(5.0, 0.1, 300)]
        )
        result = kmeans_row(data, 2)
        assert result.centers[0] == pytest.approx(0.0, abs=0.05)
        assert result.centers[1] == pytest.approx(5.0, abs=0.05)
        sizes = result.cluster_sizes()
        assert sizes[0] == 500 and sizes[1] == 300

    def test_centers_sorted(self, rng):
        data = rng.normal(size=200)
        result = kmeans_row(data, 3)
        assert np.all(np.diff(result.centers) >= 0.0)

    def test_labels_align_with_centers(self, rng):
        data = np.concatenate(
            [rng.normal(-3, 0.2, 100), rng.normal(3, 0.2, 100)]
        )
        result = kmeans_row(data, 2)
        assert np.all(result.labels[:100] == 0)
        assert np.all(result.labels[100:] == 1)

    def test_deterministic_with_seed(self, rng):
        data = rng.normal(size=300)
        a = kmeans_row(data, 2, seed=42)
        b = kmeans_row(data, 2, seed=42)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_converged_flag(self, rng):
        data = np.concatenate(
            [rng.normal(0, 0.1, 50), rng.normal(10, 0.1, 50)]
        )
        assert kmeans_row(data, 2).converged

    def test_too_few_samples(self):
        with pytest.raises(FittingError):
            kmeans_row([1.0], 2)

    def test_too_few_distinct(self):
        with pytest.raises(FittingError, match="distinct"):
            kmeans_row([1.0] * 50, 2)

    def test_inertia_decreases_with_k(self, rng):
        data = rng.normal(size=400)
        inertia2 = kmeans_row(data, 2).inertia
        inertia4 = kmeans_row(data, 4).inertia
        assert inertia4 < inertia2


class TestSplitByLabels:
    def test_partition(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([0, 1, 0, 1])
        groups = split_by_labels(samples, labels)
        np.testing.assert_array_equal(groups[0], [1.0, 3.0])
        np.testing.assert_array_equal(groups[1], [2.0, 4.0])


@given(
    gap=st.floats(3.0, 30.0),
    size_a=st.integers(30, 120),
    size_b=st.integers(30, 120),
)
@settings(max_examples=20, deadline=None)
def test_property_separated_clusters_recovered(gap, size_a, size_b):
    """Well-separated clusters are always recovered exactly."""
    rng = np.random.default_rng(0)
    data = np.concatenate(
        [rng.normal(0.0, 0.3, size_a), rng.normal(gap, 0.3, size_b)]
    )
    result = kmeans_row(data, 2)
    assert result.cluster_sizes()[0] == size_a
    assert result.cluster_sizes()[1] == size_b
