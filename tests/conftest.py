"""Shared fixtures for the repro test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.circuits.gate import GateTimingEngine
from repro.circuits.process import TT_GLOBAL_LOCAL_MC
from repro.runtime import fanout
from repro.stats.mixtures import Mixture
from repro.stats.skew_normal import SkewNormal


@pytest.fixture(scope="session")
def repo_root() -> Path:
    """Repository root, for tests that lint the shipped tree itself."""
    return Path(__file__).resolve().parents[1]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def gaussian_samples(rng: np.random.Generator) -> np.ndarray:
    """Plain Gaussian data: mean 1.0, std 0.1."""
    return rng.normal(1.0, 0.1, 5000)


@pytest.fixture
def skewed_samples(rng: np.random.Generator) -> np.ndarray:
    """Single skew-normal data with moderate positive skew."""
    return SkewNormal.from_moments(1.0, 0.1, 0.6).rvs(5000, rng=rng)


@pytest.fixture
def bimodal_mixture() -> Mixture:
    """Ground-truth two-peak skew-normal mixture."""
    return Mixture(
        (0.6, 0.4),
        (
            SkewNormal.from_moments(1.0, 0.05, 0.6),
            SkewNormal.from_moments(1.3, 0.04, -0.4),
        ),
    )


@pytest.fixture
def bimodal_samples(
    bimodal_mixture: Mixture, rng: np.random.Generator
) -> np.ndarray:
    return bimodal_mixture.rvs(6000, rng=rng)


@pytest.fixture(scope="session")
def engine() -> GateTimingEngine:
    """Shared timing engine at the paper's corner."""
    return GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)


@pytest.fixture
def one_helper(monkeypatch):
    """Fan out to one fresh helper whatever the core count; stop it after."""
    monkeypatch.setattr(fanout, "_helper_count", lambda: 1)
    fanout._shutdown()
    yield
    fanout._shutdown()
