"""Liberty texts shared by the lexer and parser equivalence tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.circuits import (
    CharacterizationConfig,
    GateTimingEngine,
    TT_GLOBAL_LOCAL_MC,
    build_cell,
    characterize_library,
)
from repro.experiments.table2 import CELL_TYPES, Table2Config
from repro.runtime import FitPolicy

GOLDEN = (
    Path(__file__).resolve().parents[1]
    / "integration"
    / "golden"
    / "inv_nand2_grid2_s128_seed7.lib"
)


@pytest.fixture(scope="session")
def golden_text() -> str:
    return GOLDEN.read_text()


@pytest.fixture(scope="session")
def table2_text() -> str:
    """Liberty text of the first eight Table 2 cells on Table 2's grid."""
    grid = Table2Config()
    library = characterize_library(
        GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC),
        [build_cell(kind) for kind in list(CELL_TYPES)[:8]],
        CharacterizationConfig(
            slews=grid.slews, loads=grid.loads, n_samples=32, seed=3
        ),
        policy=FitPolicy(),
        isolate_errors=True,
    )
    return library.to_text()
