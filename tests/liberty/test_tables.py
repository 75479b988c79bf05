"""Tests for Liberty LUTs and templates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LibertySemanticError
from repro.liberty.parser import parse_group
from repro.liberty.tables import Table, TableTemplate, parse_number_list
from repro.liberty.writer import format_float


class TestParseNumberList:
    def test_comma_separated(self):
        assert parse_number_list("0.1, 0.2, 0.3") == (0.1, 0.2, 0.3)

    def test_whitespace_only(self):
        assert parse_number_list("1 2 3") == (1.0, 2.0, 3.0)

    def test_empty(self):
        assert parse_number_list("") == ()

    def test_malformed(self):
        with pytest.raises(LibertySemanticError):
            parse_number_list("1, banana")


@pytest.fixture
def template():
    return TableTemplate(
        name="t2x3",
        variable_1="input_net_transition",
        variable_2="total_output_net_capacitance",
        index_1=(0.1, 0.2),
        index_2=(1.0, 2.0, 4.0),
    )


class TestTemplate:
    def test_from_group(self):
        group = parse_group(
            'lu_table_template (t) {'
            ' variable_1 : input_net_transition;'
            ' index_1 ("0.1, 0.2"); }'
        )
        parsed = TableTemplate.from_group(group)
        assert parsed.name == "t"
        assert parsed.index_1 == (0.1, 0.2)
        assert parsed.variable_2 is None
        assert parsed.shape == (2,)

    def test_from_group_requires_template_type(self):
        group = parse_group("cell (X) { }")
        with pytest.raises(LibertySemanticError):
            TableTemplate.from_group(group)

    def test_missing_index_1(self):
        group = parse_group(
            "lu_table_template (t) { variable_1 : x; }"
        )
        with pytest.raises(LibertySemanticError, match="index_1"):
            TableTemplate.from_group(group)

    def test_roundtrip_through_group(self, template):
        parsed = TableTemplate.from_group(template.to_group())
        assert parsed == template


class TestTable:
    def test_shape_validation(self, template):
        with pytest.raises(LibertySemanticError, match="shape"):
            Table("t", (0.1, 0.2), (1.0,), np.zeros((2, 3)))

    def test_from_group_2d(self):
        group = parse_group(
            'cell_rise (t) {'
            ' index_1 ("0.1, 0.2");'
            ' index_2 ("1, 2");'
            ' values ("10, 20", "30, 40"); }'
        )
        table = Table.from_group(group)
        assert table.values.shape == (2, 2)
        assert table.value_at(1, 0) == 30.0

    def test_from_group_flat_values(self):
        group = parse_group(
            'cell_rise (t) {'
            ' index_1 ("0.1, 0.2");'
            ' index_2 ("1, 2");'
            ' values ("10, 20, 30, 40"); }'
        )
        table = Table.from_group(group)
        assert table.values.shape == (2, 2)
        assert table.value_at(1, 1) == 40.0

    def test_from_group_inherits_template_indices(self, template):
        group = parse_group(
            'cell_rise (t2x3) { values ("1,2,3", "4,5,6"); }'
        )
        table = Table.from_group(group, template)
        assert table.index_1 == template.index_1
        assert table.index_2 == template.index_2

    def test_from_group_missing_values(self):
        group = parse_group('cell_rise (t) { index_1 ("0.1"); }')
        with pytest.raises(LibertySemanticError, match="values"):
            Table.from_group(group)

    def test_from_group_empty_values(self):
        group = parse_group('cell_rise (t) { index_1 ("0.1"); values (); }')
        with pytest.raises(LibertySemanticError, match="missing values"):
            Table.from_group(group)

    def test_from_group_ragged_values(self):
        group = parse_group(
            'cell_rise (t) { index_1 ("0.1, 0.2"); index_2 ("1, 2"); '
            'values ("1, 2", "3"); }'
        )
        with pytest.raises(
            LibertySemanticError,
            match=r"cell_rise\(t\) value grid is ragged: "
            r"row lengths \[2, 1\]",
        ):
            Table.from_group(group)

    def test_from_group_1d_with_several_rows(self):
        group = parse_group(
            'cell_rise (t) { index_1 ("0.1, 0.2"); values ("1, 2", "3, 4"); }'
        )
        with pytest.raises(
            LibertySemanticError,
            match=r"cell_rise\(t\) is 1-D but has 2 values rows",
        ):
            Table.from_group(group)

    def test_from_group_no_indices_no_template(self):
        group = parse_group('cell_rise (t) { values ("1"); }')
        with pytest.raises(LibertySemanticError, match="index_1"):
            Table.from_group(group)

    def test_roundtrip(self, template):
        table = Table(
            "t2x3",
            template.index_1,
            template.index_2,
            np.arange(6.0).reshape(2, 3),
        )
        parsed = Table.from_group(table.to_group("cell_rise"))
        np.testing.assert_allclose(parsed.values, table.values)
        assert parsed.index_2 == table.index_2

    def test_value_at_needs_two_indices(self, template):
        table = Table.filled(template, 1.0)
        with pytest.raises(LibertySemanticError):
            table.value_at(0)


#: Values whose ``.6g`` text is easiest to get wrong.
SPECIAL_FLOATS = (
    0.0,
    -0.0,
    5e-324,
    -2.2250738585072014e-308,
    1e-310,
    1e300,
    -1e300,
    1.7976931348623157e308,
    float("inf"),
    float("-inf"),
    float("nan"),
    0.1,
    123456.5,
    1234567.0,
)

lut_float = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


def reference_row(row) -> str:
    """A row as it was written before rows came from ``tolist()``:
    each numpy scalar through :func:`format_float`."""
    return ", ".join(format_float(v) for v in row)


class TestLutText:
    """``to_group`` writes the same bytes as per-scalar formatting."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n1: st.integers(1, 5).flatmap(
                lambda n2: st.lists(
                    lut_float, min_size=n1 * n2, max_size=n1 * n2
                ).map(lambda flat: np.array(flat).reshape(n1, n2))
            )
        )
    )
    def test_2d_rows(self, grid):
        n1, n2 = grid.shape
        index_1 = tuple(float(i + 1) for i in range(n1))
        index_2 = tuple(float(j + 1) for j in range(n2))
        group = Table("t", index_1, index_2, grid).to_group("cell_rise")
        assert group.get_complex("values") == [
            reference_row(row) for row in grid
        ]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(lut_float, min_size=1, max_size=12).map(np.array))
    def test_1d_row_and_axes(self, values):
        axis = tuple(values.tolist())
        group = Table("t", axis, (), values).to_group("cell_rise")
        assert group.get_complex("values") == [reference_row(values)]
        assert group.get_complex("index_1") == [reference_row(values)]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(lut_float, min_size=1, max_size=8),
        st.lists(lut_float, max_size=8),
    )
    def test_template_axes(self, index_1, index_2):
        group = TableTemplate(
            "t", "x", "y", tuple(np.array(index_1)), tuple(index_2)
        ).to_group()
        assert group.get_complex("index_1") == [reference_row(index_1)]
        expected = [reference_row(index_2)] if index_2 else None
        assert group.get_complex("index_2") == expected


class TestInterpolation:
    @pytest.fixture
    def table(self):
        # Bilinear plane z = 2 x + 3 y.
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([0.0, 1.0])
        grid = 2.0 * x[:, None] + 3.0 * y[None, :]
        return Table("t", tuple(x), tuple(y), grid)

    def test_exact_at_grid_points(self, table):
        assert table.interpolate(1.0, 1.0) == pytest.approx(5.0)

    def test_bilinear_midpoint(self, table):
        assert table.interpolate(0.5, 0.5) == pytest.approx(2.5)

    def test_clamped_outside(self, table):
        assert table.interpolate(-10.0, 0.0) == pytest.approx(0.0)
        assert table.interpolate(10.0, 10.0) == pytest.approx(7.0)

    def test_1d_interpolation(self):
        table = Table("t", (0.0, 1.0), (), np.array([0.0, 10.0]))
        assert table.interpolate(0.25) == pytest.approx(2.5)

    def test_2d_requires_both_coords(self, table):
        with pytest.raises(LibertySemanticError):
            table.interpolate(0.5)

    def test_map(self, table):
        doubled = table.map(lambda grid: 2.0 * grid)
        assert doubled.value_at(1, 1) == pytest.approx(10.0)


@given(
    x=st.floats(0, 2),
    y=st.floats(0, 1),
)
@settings(max_examples=30, deadline=None)
def test_property_bilinear_reproduces_planes(x, y):
    """Bilinear interpolation is exact on affine functions."""
    xs = np.array([0.0, 0.7, 2.0])
    ys = np.array([0.0, 0.4, 1.0])
    grid = 1.5 * xs[:, None] - 2.0 * ys[None, :] + 0.3
    table = Table("t", tuple(xs), tuple(ys), grid)
    expected = 1.5 * x - 2.0 * y + 0.3
    assert table.interpolate(x, y) == pytest.approx(expected, abs=1e-12)
