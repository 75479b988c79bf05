"""Rule-by-rule tests for the Liberty/LVF2 contract checker."""

from __future__ import annotations

import pytest

from repro.analysis import collect_lib_files, lint_library_text
from repro.errors import ParameterError

#: A full LVF2 library (all seven extension LUTs, nonzero lambda) that
#: must lint clean.  LUT axes are inherited from the template, like the
#: writer emits them.
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
        ocv_mean_shift1_cell_rise (t) { values ("0, 0", "0, 0"); }
        ocv_std_dev1_cell_rise (t) { values ("0.01, 0.02", "0.01, 0.02"); }
        ocv_skewness1_cell_rise (t) { values ("0.3, 0.4", "0.2, 0.1"); }
        ocv_weight2_cell_rise (t) { values ("0.2, 0.2", "0.2, 0.2"); }
        ocv_mean_shift2_cell_rise (t) { values ("0.05, 0.05", "0.05, 0.05"); }
        ocv_std_dev2_cell_rise (t) { values ("0.02, 0.02", "0.02, 0.02"); }
        ocv_skewness2_cell_rise (t) { values ("0.1, 0.1", "0.1, 0.1"); }
      }
    }
  }
}
"""


def _with(replacement: str, original: str) -> str:
    assert original in CLEAN
    return CLEAN.replace(original, replacement)


def _lint(source: str):
    return lint_library_text("test.lib", source)


def _rules(findings):
    return [finding.rule_id for finding in findings]


class TestCleanLibrary:
    def test_no_findings(self):
        assert _lint(CLEAN) == []


class TestWeightRules:
    def test_lambda_above_one_is_lib001(self):
        source = _with(
            'ocv_weight2_cell_rise (t) { values ("1.5, 0.2", "0.2, 0.2"); }',
            'ocv_weight2_cell_rise (t) { values ("0.2, 0.2", "0.2, 0.2"); }',
        )
        findings = _lint(source)
        assert "LIB001" in _rules(findings)
        finding = next(f for f in findings if f.rule_id == "LIB001")
        assert "1.5" in finding.message
        assert finding.line > 0

    def test_negative_lambda_is_lib001(self):
        source = _with(
            'ocv_weight2_cell_rise (t) { values ("-0.1, 0.2", "0.2, 0.2"); }',
            'ocv_weight2_cell_rise (t) { values ("0.2, 0.2", "0.2, 0.2"); }',
        )
        assert "LIB001" in _rules(_lint(source))

    def test_nonzero_lambda_missing_second_component_is_lib007(self):
        source = CLEAN
        for lut in (
            "ocv_mean_shift2_cell_rise",
            "ocv_std_dev2_cell_rise",
            "ocv_skewness2_cell_rise",
        ):
            start = source.index(lut)
            end = source.index("}", start) + 1
            source = source[:start] + source[end:]
        findings = _lint(source)
        assert "LIB007" in _rules(findings)


class TestBackwardCompat:
    ZERO_WEIGHT = (
        'ocv_weight2_cell_rise (t) { values ("0, 0", "0, 0"); }'
    )

    def test_zero_lambda_matching_component_is_lib010_info(self):
        source = _with(
            self.ZERO_WEIGHT,
            'ocv_weight2_cell_rise (t) { values ("0.2, 0.2", "0.2, 0.2"); }',
        )
        findings = _lint(source)
        assert _rules(findings) == ["LIB010"]
        assert findings[0].severity.value == "info"

    def test_zero_lambda_divergent_component_is_lib002(self):
        source = _with(
            self.ZERO_WEIGHT,
            'ocv_weight2_cell_rise (t) { values ("0.2, 0.2", "0.2, 0.2"); }',
        )
        source = source.replace(
            'ocv_std_dev1_cell_rise (t) { values ("0.01, 0.02", "0.01, 0.02"); }',
            'ocv_std_dev1_cell_rise (t) { values ("0.03, 0.02", "0.01, 0.02"); }',
        )
        findings = _lint(source)
        assert "LIB002" in _rules(findings)
        finding = next(f for f in findings if f.rule_id == "LIB002")
        assert "Eq. 10" in finding.message


class TestGridRules:
    def test_non_monotonic_inline_axis_is_lib003(self):
        source = _with(
            'cell_rise (t) { index_1 ("0.05, 0.01"); '
            'index_2 ("0.001, 0.01"); '
            'values ("0.1, 0.2", "0.12, 0.25"); }',
            'cell_rise (t) { values ("0.1, 0.2", "0.12, 0.25"); }',
        )
        assert "LIB003" in _rules(_lint(source))

    def test_shape_mismatch_is_lib004(self):
        source = _with(
            'ocv_std_dev2_cell_rise (t) { values '
            '("0.02, 0.02", "0.02, 0.02", "0.02, 0.02"); }',
            'ocv_std_dev2_cell_rise (t) { values ("0.02, 0.02", "0.02, 0.02"); }',
        )
        findings = _lint(source)
        assert "LIB004" in _rules(findings)
        finding = next(f for f in findings if f.rule_id == "LIB004")
        assert "(3, 2)" in finding.message and "(2, 2)" in finding.message

    def test_acceptance_rule_ids_are_distinct(self):
        """The two ISSUE acceptance violations get different rule ids."""
        bad_lambda = _with(
            'ocv_weight2_cell_rise (t) { values ("1.5, 0.2", "0.2, 0.2"); }',
            'ocv_weight2_cell_rise (t) { values ("0.2, 0.2", "0.2, 0.2"); }',
        )
        bad_shape = _with(
            'ocv_std_dev2_cell_rise (t) { values '
            '("0.02, 0.02", "0.02, 0.02", "0.02, 0.02"); }',
            'ocv_std_dev2_cell_rise (t) { values ("0.02, 0.02", "0.02, 0.02"); }',
        )
        assert "LIB001" in _rules(_lint(bad_lambda))
        assert "LIB004" in _rules(_lint(bad_shape))

    def test_missing_values_is_lib008(self):
        source = _with(
            "ocv_weight2_cell_rise (t) { }",
            'ocv_weight2_cell_rise (t) { values ("0.2, 0.2", "0.2, 0.2"); }',
        )
        assert "LIB008" in _rules(_lint(source))

    def test_unparseable_numbers_is_lib008(self):
        source = _with(
            'ocv_weight2_cell_rise (t) { values ("0.2, banana", "0.2, 0.2"); }',
            'ocv_weight2_cell_rise (t) { values ("0.2, 0.2", "0.2, 0.2"); }',
        )
        assert "LIB008" in _rules(_lint(source))

    def test_multi_row_1d_lut_is_lib008(self):
        source = CLEAN.replace(
            "  cell (INV_X1) {",
            "  lu_table_template (t1) { variable_1 : "
            'input_net_transition; index_1 ("0.01, 0.05"); }\n'
            "  cell (INV_X1) {",
        ).replace(
            "related_pin : A;",
            "related_pin : A; "
            'rise_transition (t1) { values ("0.02, 0.03", "0.04, 0.05"); }',
        )
        (finding,) = [f for f in _lint(source) if f.rule_id == "LIB008"]
        assert "rise_transition is 1-D but has 2 values rows" in (
            finding.message
        )
        # An inline index_1 under a 2-D template inherits index_2.
        inline = _with(
            'cell_rise (t) { index_1 ("0.01, 0.05"); '
            'values ("0.1, 0.2", "0.12, 0.25"); }',
            'cell_rise (t) { values ("0.1, 0.2", "0.12, 0.25"); }',
        )
        assert _lint(inline) == []


class TestMomentSanity:
    def test_zero_sigma_is_lib005(self):
        source = _with(
            'ocv_std_dev_cell_rise (t) { values ("0.01, 0", "0.01, 0.02"); }',
            'ocv_std_dev_cell_rise (t) { values ("0.01, 0.02", "0.01, 0.02"); }',
        )
        assert "LIB005" in _rules(_lint(source))

    def test_infeasible_skewness_is_lib005(self):
        source = _with(
            'ocv_skewness2_cell_rise (t) { values ("1.3, 0.1", "0.1, 0.1"); }',
            'ocv_skewness2_cell_rise (t) { values ("0.1, 0.1", "0.1, 0.1"); }',
        )
        findings = _lint(source)
        assert "LIB005" in _rules(findings)
        finding = next(f for f in findings if f.rule_id == "LIB005")
        assert "feasibility bound" in finding.message


class TestTemplateAndUnits:
    def test_unknown_template_is_lib006(self):
        source = _with(
            'cell_rise (missing_t) { values ("0.1, 0.2", "0.12, 0.25"); }',
            'cell_rise (t) { values ("0.1, 0.2", "0.12, 0.25"); }',
        )
        assert "LIB006" in _rules(_lint(source))

    def test_axis_length_contradicting_template_is_lib006(self):
        source = _with(
            'cell_rise (t) { index_1 ("0.01, 0.03, 0.05"); '
            'values ("0.1, 0.2", "0.12, 0.25", "0.14, 0.3"); }',
            'cell_rise (t) { values ("0.1, 0.2", "0.12, 0.25"); }',
        )
        assert "LIB006" in _rules(_lint(source))

    def test_missing_voltage_unit_is_lib009(self):
        source = _with("", '  voltage_unit : "1V";\n')
        findings = _lint(source)
        assert "LIB009" in _rules(findings)
        assert all(f.severity.value == "warning" for f in findings)

    def test_non_lut_delay_model_is_lib009(self):
        source = _with(
            "delay_model : polynomial;", "delay_model : table_lookup;"
        )
        assert "LIB009" in _rules(_lint(source))


class TestEngineBehaviour:
    def test_empty_text_raises_parameter_error(self):
        with pytest.raises(ParameterError, match="empty"):
            _lint("   \n")

    def test_unparseable_text_raises_parameter_error(self):
        with pytest.raises(ParameterError, match="unparseable"):
            _lint("library (broken { nope")

    def test_collect_missing_path_raises(self, tmp_path):
        with pytest.raises(ParameterError, match="no such file"):
            collect_lib_files([str(tmp_path / "nope")])

    def test_collect_no_lib_files_raises(self, tmp_path):
        with pytest.raises(ParameterError, match="no .lib files"):
            collect_lib_files([str(tmp_path)])
