"""``TimingModel.fit_batch``: one outcome per stacked row.

Every row of a batched fit must equal fitting that row alone with
``fit`` — exactly, not approximately — and a row that cannot be
fitted must hold the error its per-row fit raises, so ``raise_first``
raises the first such row's error.  Models compare with ``==``
(frozen dataclasses of floats, so exact equality).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FittingError, raise_first
from repro.models.lesn import LESNModel
from repro.models.lvf import LVFModel
from repro.models.lvf2 import LVF2Model
from repro.models.norm2 import Norm2Model
from repro.stats.em import EMConfig
from repro.stats.skew_normal import SkewNormal


@pytest.fixture(scope="module")
def stack() -> np.ndarray:
    """Five positive rows: bimodal, skewed and Gaussian shapes."""
    rng = np.random.default_rng(20261017)
    rows = []
    for shift in (0.0, 0.1, 0.2):
        rows.append(
            np.concatenate(
                [
                    rng.normal(1.0 + shift, 0.04, 180),
                    rng.normal(1.25 + shift, 0.05, 120),
                ]
            )
        )
    rows.append(SkewNormal.from_moments(1.0, 0.1, 0.6).rvs(300, rng=rng))
    rows.append(rng.normal(2.0, 0.1, 300))
    return np.stack(rows)


def with_bad_row(stack: np.ndarray, index: int, row) -> np.ndarray:
    bad = stack.copy()
    bad[index] = row
    return bad


def fit_error(model_cls, row, **kwargs) -> Exception:
    with pytest.raises(Exception) as info:
        model_cls.fit(row, **kwargs)
    return info.value


class TestNorm2FitBatch:
    def test_rows_equal_fit(self, stack):
        batched = Norm2Model.fit_batch(stack)
        assert batched == [Norm2Model.fit(row) for row in stack]

    def test_rows_equal_fit_with_config(self, stack):
        config = EMConfig(max_iter=7, seed=3)
        batched = Norm2Model.fit_batch(stack, config=config)
        assert batched == [
            Norm2Model.fit(row, config=config) for row in stack
        ]

    def test_first_bad_row_raises_its_error(self, stack):
        bad = with_bad_row(stack, 1, 1.5)
        bad[3, :290] = np.nan
        serial = fit_error(Norm2Model, bad[1])
        with pytest.raises(type(serial)) as info:
            raise_first(Norm2Model.fit_batch(bad))
        assert str(info.value) == str(serial)

    def test_fit_rejects_stacked_samples(self, stack):
        with pytest.raises(FittingError, match="Norm2Model.fit_batch"):
            Norm2Model.fit(stack)

    def test_captures_each_rows_error(self, stack):
        bad = with_bad_row(stack, 1, 1.5)
        batched = Norm2Model.fit_batch(bad)
        serial = fit_error(Norm2Model, bad[1])
        assert type(batched[1]) is type(serial)
        assert str(batched[1]) == str(serial)
        others = [0, 2, 3, 4]
        assert [batched[i] for i in others] == [
            Norm2Model.fit(bad[i]) for i in others
        ]


class TestDefaultFitBatch:
    """The base-class loop, as LVF and LESN use it."""

    @pytest.mark.parametrize(
        ("model_cls", "kwargs"),
        [(LVFModel, {}), (LESNModel, {"method": "linear"})],
    )
    def test_rows_equal_fit(self, stack, model_cls, kwargs):
        batched = model_cls.fit_batch(stack, **kwargs)
        assert batched == [model_cls.fit(row, **kwargs) for row in stack]

    def test_kwargs_reach_every_row(self, stack):
        linear = LESNModel.fit_batch(stack, method="linear")
        log = LESNModel.fit_batch(stack)
        assert linear != log
        assert log == [LESNModel.fit(row) for row in stack]

    def test_first_bad_row_raises_its_error(self, stack):
        bad = stack.copy()
        bad[1, 0] = 0.0
        bad[4, 0] = -1.0
        serial = fit_error(LESNModel, bad[1])
        with pytest.raises(type(serial)) as info:
            raise_first(LESNModel.fit_batch(bad))
        assert str(info.value) == str(serial)

    def test_captures_each_rows_error(self, stack):
        bad = stack.copy()
        bad[1, 0] = 0.0
        bad[4, 0] = -1.0
        batched = LESNModel.fit_batch(bad)
        for index, (row, outcome) in enumerate(zip(bad, batched)):
            if index in (1, 4):
                serial = fit_error(LESNModel, row)
                assert type(outcome) is type(serial)
                assert str(outcome) == str(serial)
            else:
                assert outcome == LESNModel.fit(row), f"row {index}"

    def test_rejects_one_dimensional_samples(self, stack):
        with pytest.raises(FittingError, match="2-D"):
            LVFModel.fit_batch(stack[0])


class TestLVF2FitBatchKeywords:
    def test_ignores_the_extra_keywords_fit_ignores(self, stack):
        assert LVF2Model.fit_batch(stack[:2], method="linear") == [
            LVF2Model.fit(row, method="linear") for row in stack[:2]
        ]

    def test_refine_matches_fit(self, stack):
        assert LVF2Model.fit_batch(stack[:2], refine="mle") == [
            LVF2Model.fit(row, refine="mle") for row in stack[:2]
        ]
