"""Golden end-to-end fixture: a small characterised library, byte for byte.

``golden/inv_nand2_grid2_s128_seed7.*`` is the output of

    repro characterize --cells INV NAND2 --grid 2 --samples 128 --seed 7 \
        --out inv_nand2_grid2_s128_seed7.lib \
        --report-json inv_nand2_grid2_s128_seed7.report.json

recorded while the serial per-point EM loop was still the fitting
engine.  Regenerating it through ``characterize_library`` — serial and
with a two-worker pool — must reproduce both files exactly, so any
change to Monte-Carlo sampling, EM fitting, the fallback ladder or the
Liberty writer shows up here as a byte diff.  CI also ``cmp``s the
CLI's own output against the same files.  On this clean data the
strict one-rung ladder (``--no-fallback``) lands every point on LVF2
too, so it reproduces the same files.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.circuits import (
    CharacterizationConfig,
    GateTimingEngine,
    TT_GLOBAL_LOCAL_MC,
    build_cell,
    characterize_library,
)
from repro.circuits.characterize import PAPER_LOADS, PAPER_SLEWS
from repro.runtime import FitPolicy, FitReport
from repro.runtime.pool import PoolConfig

GOLDEN = Path(__file__).parent / "golden"
STEM = "inv_nand2_grid2_s128_seed7"


def characterize(**options) -> tuple[bytes, bytes]:
    """The ``repro characterize`` run above, as library calls."""
    engine = GateTimingEngine(corner=TT_GLOBAL_LOCAL_MC)
    config = CharacterizationConfig(
        slews=PAPER_SLEWS[:2], loads=PAPER_LOADS[:2], n_samples=128, seed=7
    )
    report = FitReport()
    library = characterize_library(
        engine,
        [build_cell("INV", 1.0), build_cell("NAND2", 1.0)],
        config,
        report=report,
        **{"policy": FitPolicy(), "isolate_errors": True, **options},
    )
    report_text = json.dumps(report.to_dict(), indent=2) + "\n"
    return library.to_text().encode(), report_text.encode()


@pytest.mark.parametrize(
    "options",
    [
        {},
        {
            "workers": 2,
            "pool": PoolConfig(
                n_workers=2, seed=7, merge_traces=False, claim_timeout=60.0
            ),
        },
        {"policy": FitPolicy(rungs=("LVF2",)), "isolate_errors": False},
    ],
    ids=["serial", "pooled", "strict"],
)
def test_library_and_report_match_golden(options):
    library, report = characterize(**options)
    assert library == (GOLDEN / f"{STEM}.lib").read_bytes()
    assert report == (GOLDEN / f"{STEM}.report.json").read_bytes()
