"""Tests for ``validate_library``, the bound-library entry point of the
Liberty contract checker."""

from __future__ import annotations

import pytest

from repro.analysis import lint_library_text
from repro.errors import LibertySemanticError
from repro.liberty import Severity, read_library, validate_library
from tests.analysis.test_liberty_lint import CLEAN as FULL

CLEAN = """
library (ok) {
  time_unit : "1ns";
  voltage_unit : "1V";
  delay_model : table_lookup;
  lu_table_template (t) {
    variable_1 : input_net_transition;
    variable_2 : total_output_net_capacitance;
    index_1 ("0.01, 0.05");
    index_2 ("0.001, 0.01");
  }
  cell (INV_X1) {
    pin (A) { direction : input; }
    pin (Y) {
      direction : output;
      timing () {
        related_pin : A;
        cell_rise (t) { values ("0.1, 0.2", "0.12, 0.25"); }
        ocv_mean_shift_cell_rise (t) { values ("0, 0", "0, 0"); }
        ocv_std_dev_cell_rise (t) { values ("0.01, 0.02", "0.01, 0.02"); }
        ocv_skewness_cell_rise (t) { values ("0.3, 0.4", "0.2, 0.1"); }
      }
    }
  }
}
"""


def _with(replacement: str, original: str) -> str:
    return CLEAN.replace(original, replacement)


def _errors(diagnostics):
    return [d for d in diagnostics if d.severity is Severity.ERROR]


class TestCleanLibrary:
    def test_no_errors(self):
        diagnostics = validate_library(read_library(CLEAN))
        assert _errors(diagnostics) == []


class TestViolations:
    def test_non_increasing_index(self):
        source = _with('index_1 ("0.05, 0.05");', 'index_1 ("0.01, 0.05");')
        diagnostics = validate_library(read_library(source))
        assert any(
            "not strictly increasing" in d.message
            for d in _errors(diagnostics)
        )

    def test_non_positive_sigma(self):
        source = _with(
            'ocv_std_dev_cell_rise (t) { values ("0.01, 0", "0.01, 0.02"); }',
            'ocv_std_dev_cell_rise (t) { values ("0.01, 0.02", "0.01, 0.02"); }',
        )
        diagnostics = validate_library(read_library(source))
        assert any(
            "ocv_std_dev" in d.message and "non-positive" in d.message
            for d in _errors(diagnostics)
        )

    def test_unknown_related_pin(self):
        source = _with("related_pin : B;", "related_pin : A;")
        diagnostics = validate_library(read_library(source))
        assert any(
            "not a pin" in d.message for d in _errors(diagnostics)
        )

    def test_nominal_only_arc_warns(self):
        source = CLEAN
        for lut in (
            "ocv_mean_shift_cell_rise",
            "ocv_std_dev_cell_rise",
            "ocv_skewness_cell_rise",
        ):
            start = source.index(lut)
            end = source.index("}", start) + 1
            source = source[:start] + source[end:]
        diagnostics = validate_library(read_library(source))
        assert any(
            "no LVF variation data" in d.message for d in diagnostics
        )

    def test_empty_library_warns(self):
        diagnostics = validate_library(read_library("library (e) { }"))
        assert any("no cells" in d.message for d in diagnostics)

    def test_all_zero_weight2_info(self):
        source = _with(
            """ocv_skewness_cell_rise (t) { values ("0.3, 0.4", "0.2, 0.1"); }
        ocv_weight2_cell_rise (t) { values ("0, 0", "0, 0"); }
        ocv_mean_shift2_cell_rise (t) { values ("0, 0", "0, 0"); }
        ocv_std_dev2_cell_rise (t) { values ("1, 1", "1, 1"); }
        ocv_skewness2_cell_rise (t) { values ("0, 0", "0, 0"); }""",
            'ocv_skewness_cell_rise (t) { values ("0.3, 0.4", "0.2, 0.1"); }',
        )
        diagnostics = validate_library(read_library(source))
        infos = [d for d in diagnostics if d.severity is Severity.INFO]
        assert any(d.rule_id == "LIB010" for d in infos)
        assert _errors(diagnostics) == []


def _without(source: str, *luts: str) -> str:
    for lut in luts:
        start = source.index(lut)
        end = source.index("}", start) + 1
        source = source[:start] + source[end:]
    return source


def _edit(source: str, original: str, replacement: str) -> str:
    assert original in source
    return source.replace(original, replacement)


_UNITS = 'time_unit : "1ns"; voltage_unit : "1V"; delay_model : table_lookup;'
_FULL_WEIGHT = (
    'ocv_weight2_cell_rise (t) { values ("0.2, 0.2", "0.2, 0.2"); }'
)
_ZERO_WEIGHT = 'ocv_weight2_cell_rise (t) { values ("0, 0", "0, 0"); }'

#: (case id, library source that binds, expected (rule, severity) set).
#: Covers every LIB rule a bound library can show; LIB001, LIB004,
#: LIB007 and LIB008 libraries are rejected by the binder instead.
BOUND_CASES = [
    ("clean-lvf", CLEAN, []),
    ("clean-lvf2", FULL, []),
    (
        "lib002-divergent-comp1",
        _edit(
            _edit(FULL, _FULL_WEIGHT, _ZERO_WEIGHT),
            'ocv_std_dev1_cell_rise (t) { values ("0.01, 0.02",',
            'ocv_std_dev1_cell_rise (t) { values ("0.03, 0.02",',
        ),
        [("LIB002", "error")],
    ),
    (
        "lib003-template-axis",
        _edit(CLEAN, 'index_1 ("0.01, 0.05");', 'index_1 ("0.05, 0.05");'),
        [("LIB003", "error")],
    ),
    (
        "lib005-sigma",
        _edit(CLEAN, '("0.01, 0.02", "0.01, 0.02")', '("0.01, 0", "0.01, 0.02")'),
        [("LIB005", "error")],
    ),
    (
        "lib005-skewness",
        _edit(CLEAN, '("0.3, 0.4", "0.2, 0.1")', '("1.3, 0.4", "0.2, 0.1")'),
        [("LIB005", "error")],
    ),
    (
        "lib006-unknown-template",
        _edit(
            CLEAN,
            " cell_rise (t) { values",
            ' cell_rise (missing_t) { index_1 ("0.01, 0.05"); '
            'index_2 ("0.001, 0.01"); values',
        ),
        [("LIB006", "error")],
    ),
    (
        "lib009-units",
        _edit(CLEAN, '  voltage_unit : "1V";\n', ""),
        [("LIB009", "warning")],
    ),
    ("lib010-dead-extension", _edit(FULL, _FULL_WEIGHT, _ZERO_WEIGHT),
     [("LIB010", "info")]),
    (
        "lib011-nominal",
        _edit(CLEAN, '("0.1, 0.2", "0.12, 0.25")', '("0.1, 0", "0.12, 0.25")'),
        [("LIB011", "error")],
    ),
    (
        "lib012-unknown-pin",
        _edit(CLEAN, "related_pin : A;", "related_pin : B;"),
        [("LIB012", "error")],
    ),
    (
        "lib012-no-related-pin",
        _edit(CLEAN, "related_pin : A;", ""),
        [("LIB012", "error")],
    ),
    (
        "lib013-no-cells",
        f"library (empty) {{ {_UNITS} }}",
        [("LIB013", "warning")],
    ),
    (
        "lib013-no-output-pin",
        _edit(CLEAN, "direction : output;", "direction : input;"),
        [("LIB013", "warning")],
    ),
    (
        "lib013-no-luts",
        _without(
            CLEAN,
            "cell_rise (t)",
            "ocv_mean_shift_cell_rise",
            "ocv_std_dev_cell_rise",
            "ocv_skewness_cell_rise",
        ),
        [("LIB013", "warning")],
    ),
    (
        "lib014-nominal-only",
        _without(
            CLEAN,
            "ocv_mean_shift_cell_rise",
            "ocv_std_dev_cell_rise",
            "ocv_skewness_cell_rise",
        ),
        [("LIB014", "warning")],
    ),
    (
        # Quantities of one arc may use templates of different sizes.
        "per-quantity-grids",
        _edit(
            _edit(
                CLEAN,
                "  cell (INV_X1) {",
                "  lu_table_template (t1) { variable_1 : "
                'input_net_transition; index_1 ("0.01, 0.03, 0.05"); }\n'
                "  cell (INV_X1) {",
            ),
            "related_pin : A;",
            "related_pin : A; "
            'rise_transition (t1) { values ("0.02, 0.03, 0.04"); }',
        ),
        [],
    ),
]


def _verdict(findings) -> list[tuple[str, str]]:
    return sorted((f.rule_id, f.severity.value) for f in findings)


class TestValidateVsLintBoundary:
    """``validate_library`` and ``repro lint-lib`` are one checker.

    On any library the binder accepts, both report the same rule ids
    at the same severities.  The typed binder raises
    :class:`LibertySemanticError` on the hard LVF2 contract
    violations, so those can only surface as ``lint-lib`` findings.
    """

    @pytest.mark.parametrize(
        "source, expected",
        [case[1:] for case in BOUND_CASES],
        ids=[case[0] for case in BOUND_CASES],
    )
    def test_same_verdict(self, source, expected):
        bound = _verdict(validate_library(read_library(source)))
        linted = _verdict(lint_library_text("x.lib", source))
        assert bound == linted
        assert sorted(set(bound)) == expected

    def test_lambda_out_of_range_raises_in_binder(self):
        source = FULL.replace(
            'ocv_weight2_cell_rise (t) { values ("0.2, 0.2", "0.2, 0.2"); }',
            'ocv_weight2_cell_rise (t) { values ("1.5, 0.2", "0.2, 0.2"); }',
        )
        with pytest.raises(LibertySemanticError, match=r"\[0, 1\]"):
            read_library(source)
        rules = [f.rule_id for f in lint_library_text("x.lib", source)]
        assert "LIB001" in rules

    def test_shape_mismatch_raises_in_binder(self):
        source = FULL.replace(
            'ocv_std_dev2_cell_rise (t) { values ("0.02, 0.02", "0.02, 0.02"); }',
            'ocv_std_dev2_cell_rise (t) { values '
            '("0.02, 0.02", "0.02, 0.02", "0.02, 0.02"); }',
        )
        with pytest.raises(LibertySemanticError, match="shape"):
            read_library(source)
        rules = [f.rule_id for f in lint_library_text("x.lib", source)]
        assert "LIB004" in rules

    def test_missing_template_raises_in_binder(self):
        source = CLEAN.replace(
            'cell_rise (t) { values ("0.1, 0.2", "0.12, 0.25"); }',
            'cell_rise (missing_t) { values ("0.1, 0.2", "0.12, 0.25"); }',
        )
        with pytest.raises(LibertySemanticError):
            read_library(source)
        rules = [f.rule_id for f in lint_library_text("x.lib", source)]
        assert "LIB006" in rules


class TestGeneratedLibraryIsClean:
    def test_characterized_library_validates(self, engine):
        from repro.circuits import (
            CharacterizationConfig,
            build_cell,
            characterize_library,
        )

        config = CharacterizationConfig(
            slews=(0.008, 0.05),
            loads=(0.007, 0.1),
            n_samples=500,
            seed=1,
        )
        library = characterize_library(
            engine, [build_cell("NAND2")], config
        )
        reparsed = read_library(library.to_text())
        assert _errors(validate_library(reparsed)) == []
