"""Shared experiment plumbing.

Every experiment module regenerates one paper table or figure and
returns a typed result with a ``to_text()`` renderer that prints the
same rows/series the paper reports.  This module holds the pieces they
share: fitting the four compared models, scoring them with the §4
metrics, and formatting aligned text tables.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

import numpy as np

from repro.binning.metrics import evaluate_models
from repro.errors import FittingError, raise_first
from repro.models import PAPER_MODELS, TimingModel, get_model
from repro.stats.empirical import EmpiricalDistribution

__all__ = [
    "PAPER_MODELS",
    "fit_paper_models",
    "score_paper_models",
    "format_table",
    "paper_scale",
]


def paper_scale() -> bool:
    """Whether to run experiments at full paper scale.

    Controlled by the ``REPRO_PAPER`` environment variable; default is
    a CI-sized configuration with identical structure.
    """
    return os.environ.get("REPRO_PAPER", "0") not in ("0", "", "false")


def fit_paper_models(
    samples: np.ndarray,
    model_names: Sequence[str] = PAPER_MODELS,
) -> list[dict[str, TimingModel]]:
    """Fit the paper's models to each row of a stack of golden sets.

    One ``fit_batch`` per model over the ``(n_sets, n_samples)``
    stack; each row's models equal fitting that row alone.  A model
    that fails to fit a row with :class:`FittingError` (e.g. LESN on
    data with non-positive values) falls back to that row's LVF fit
    so every table cell stays populated — mirroring how a
    characterisation flow would degrade.  A row whose LVF fit fails
    raises, and so does any other error: the first such row in row
    order, LVF before the other models.
    """
    lvf_fits = get_model("LVF").fit_batch(samples)
    fits = {
        name: lvf_fits if name == "LVF" else get_model(name).fit_batch(samples)
        for name in model_names
    }
    rows: list[dict[str, TimingModel]] = []
    for p, fallback in enumerate(lvf_fits):
        models = {
            name: fallback
            if isinstance(fits[name][p], FittingError)
            else fits[name][p]
            for name in model_names
        }
        raise_first([fallback, *models.values()])
        rows.append(models)
    return rows


def score_paper_models(
    samples: np.ndarray,
    model_names: Sequence[str] = PAPER_MODELS,
    *,
    baseline: str = "LVF",
) -> list[dict[str, dict[str, float]]]:
    """Fit + §4-score the paper's models against each golden row.

    One :func:`fit_paper_models` call over the stack; returns one
    :func:`~repro.binning.metrics.evaluate_models` report per row.
    """
    stack = np.asarray(samples, dtype=float)
    return [
        evaluate_models(models, EmpiricalDistribution(row), baseline=baseline)
        for models, row in zip(fit_paper_models(stack, model_names), stack)
    ]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render an aligned plain-text table (the report format)."""
    rendered_rows = [
        [
            f"{value:.2f}" if isinstance(value, float) else str(value)
            for value in row
        ]
        for row in rows
    ]
    widths = [
        max(
            len(str(header)),
            *(len(row[index]) for row in rendered_rows),
        )
        if rendered_rows
        else len(str(header))
        for index, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(
            str(header).ljust(width)
            for header, width in zip(headers, widths)
        )
    )
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(
            "  ".join(
                value.ljust(width) for value, width in zip(row, widths)
            )
        )
    return "\n".join(lines)

