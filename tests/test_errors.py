"""Tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro.errors import (
    CharacterizationError,
    ConvergenceWarningError,
    ExperimentError,
    FittingError,
    LibertyError,
    LibertySemanticError,
    LibertySyntaxError,
    ParameterError,
    ReproError,
    SSTAError,
    raise_first,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            FittingError,
            ParameterError,
            LibertyError,
            CharacterizationError,
            SSTAError,
            ExperimentError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_convergence_is_fitting_error(self):
        assert issubclass(ConvergenceWarningError, FittingError)

    def test_liberty_subtypes(self):
        assert issubclass(LibertySyntaxError, LibertyError)
        assert issubclass(LibertySemanticError, LibertyError)


class TestLibertySyntaxError:
    def test_location_in_message(self):
        error = LibertySyntaxError("bad token", line=3, column=7)
        assert "line 3" in str(error)
        assert "column 7" in str(error)
        assert error.line == 3 and error.column == 7

    def test_no_location(self):
        error = LibertySyntaxError("bad token")
        assert "line" not in str(error)


class TestCatchability:
    def test_one_handler_for_everything(self):
        """Library contract: `except ReproError` catches any failure."""
        import numpy as np

        from repro.models import fit_model

        with pytest.raises(ReproError):
            fit_model("LVF", np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ReproError):
            fit_model("NoSuchModel", np.array([1.0, 2.0, 3.0]))


class TestRaiseFirst:
    def test_returns_outcomes_without_errors(self):
        assert raise_first(iter([1, 2, 3])) == [1, 2, 3]

    def test_raises_first_error_in_row_order(self):
        first, second = FittingError("row 1"), ValueError("row 3")
        with pytest.raises(FittingError, match="row 1"):
            raise_first([0, first, 2, second])
        with pytest.raises(ValueError, match="row 3"):
            raise_first([0, 1, 2, second, first])
