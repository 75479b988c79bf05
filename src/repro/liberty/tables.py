"""Liberty lookup tables (LUTs) and templates.

LVF characterises every timing arc over a slew × load grid (8×8 in the
paper).  Each quantity — nominal delay, ``ocv_mean_shift``,
``ocv_std_dev``, ``ocv_skewness`` and the seven LVF2 extensions — is
one LUT.  This module parses LUT groups to numpy arrays, serialises
them back, and provides the bilinear interpolation STA engines use to
query between characterised grid points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LibertySemanticError
from repro.liberty.ast import Group
from repro.liberty.writer import format_float_list

__all__ = ["TableTemplate", "Table", "parse_number_list"]


def parse_number_list(text: str) -> tuple[float, ...]:
    """Parse a Liberty quoted number list: ``"0.01, 0.02, 0.04"``."""
    cleaned = text.replace("\\\n", " ").strip()
    if not cleaned:
        return ()
    try:
        return tuple(map(float, cleaned.replace(",", " ").split()))
    except ValueError as error:
        raise LibertySemanticError(
            f"malformed number list {text!r}: {error}"
        ) from None


@dataclass(frozen=True)
class TableTemplate:
    """A ``lu_table_template``: named index axes shared across LUTs.

    Attributes:
        name: Template name, e.g. ``"delay_template_8x8"``.
        variable_1: Meaning of axis 1 (``input_net_transition``).
        variable_2: Meaning of axis 2 (``total_output_net_capacitance``)
            or ``None`` for 1-D templates.
        index_1: Default axis-1 breakpoints.
        index_2: Default axis-2 breakpoints (empty for 1-D).
    """

    name: str
    variable_1: str
    variable_2: str | None
    index_1: tuple[float, ...]
    index_2: tuple[float, ...] = ()

    @classmethod
    def from_group(cls, group: Group) -> "TableTemplate":
        if group.name not in ("lu_table_template", "ocv_table_template"):
            raise LibertySemanticError(
                f"not a table template group: {group.name}"
            )
        index_1 = group.get_complex("index_1")
        if not index_1:
            raise LibertySemanticError(
                f"template {group.label!r} missing index_1"
            )
        index_2 = group.get_complex("index_2")
        return cls(
            name=group.label,
            variable_1=group.get("variable_1", "") or "",
            variable_2=group.get("variable_2"),
            index_1=parse_number_list(index_1[0]),
            index_2=parse_number_list(index_2[0]) if index_2 else (),
        )

    def to_group(self) -> Group:
        group = Group("lu_table_template", [self.name])
        group.set("variable_1", self.variable_1)
        if self.variable_2 is not None:
            group.set("variable_2", self.variable_2)
        group.set_complex("index_1", [format_float_list(self.index_1)])
        if self.index_2:
            group.set_complex("index_2", [format_float_list(self.index_2)])
        return group

    @property
    def shape(self) -> tuple[int, ...]:
        if self.index_2:
            return (len(self.index_1), len(self.index_2))
        return (len(self.index_1),)


@dataclass(frozen=True)
class Table:
    """One LUT: index axes plus a value grid.

    ``values`` has shape ``(len(index_1),)`` for 1-D tables or
    ``(len(index_1), len(index_2))`` for 2-D tables, with axis 1 the
    input slew and axis 2 the output load in the timing-arc case.
    """

    template: str
    index_1: tuple[float, ...]
    index_2: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        expected = (
            (len(self.index_1), len(self.index_2))
            if self.index_2
            else (len(self.index_1),)
        )
        if values.shape != expected:
            raise LibertySemanticError(
                f"table values shape {values.shape} does not match "
                f"indices {expected}"
            )
        object.__setattr__(self, "values", values)

    # ------------------------------------------------------------------
    @classmethod
    def from_group(
        cls, group: Group, template: TableTemplate | None = None
    ) -> "Table":
        """Parse a LUT group (``cell_rise``, ``ocv_std_dev_...``)."""
        index_1_raw = group.get_complex("index_1")
        index_2_raw = group.get_complex("index_2")
        index_1 = (
            parse_number_list(index_1_raw[0])
            if index_1_raw
            else (template.index_1 if template else ())
        )
        index_2 = (
            parse_number_list(index_2_raw[0])
            if index_2_raw
            else (template.index_2 if template else ())
        )
        if not index_1:
            raise LibertySemanticError(
                f"table {group.name}({group.label}) has no index_1 and "
                "no template to inherit one from"
            )
        rows = group.get_complex("values")
        if not rows:
            raise LibertySemanticError(
                f"table {group.name}({group.label}) missing values"
            )
        parsed_rows = [parse_number_list(row) for row in rows]
        if index_2:
            if len(parsed_rows) == 1 and len(parsed_rows[0]) == len(
                index_1
            ) * len(index_2):
                flat = np.asarray(parsed_rows[0])
                values = flat.reshape(len(index_1), len(index_2))
            else:
                lengths = [len(row) for row in parsed_rows]
                if len(set(lengths)) > 1:
                    raise LibertySemanticError(
                        f"table {group.name}({group.label}) value grid "
                        f"is ragged: row lengths {lengths}"
                    )
                values = np.asarray(parsed_rows, dtype=float)
        elif len(parsed_rows) > 1:
            raise LibertySemanticError(
                f"table {group.name}({group.label}) is 1-D but has "
                f"{len(parsed_rows)} values rows"
            )
        else:
            values = np.asarray(parsed_rows[0], dtype=float)
        return cls(
            template=group.label or (template.name if template else ""),
            index_1=tuple(index_1),
            index_2=tuple(index_2),
            values=values,
        )

    def to_group(
        self, group_name: str, *, include_indices: bool = True
    ) -> Group:
        """Serialise as a LUT group named ``group_name``."""
        group = Group(group_name, [self.template] if self.template else [])
        if include_indices:
            group.set_complex("index_1", [format_float_list(self.index_1)])
            if self.index_2:
                group.set_complex(
                    "index_2", [format_float_list(self.index_2)]
                )
        values = self.values.tolist()
        if self.index_2:
            rows = [format_float_list(row) for row in values]
        else:
            rows = [format_float_list(values)]
        group.set_complex("values", rows)
        return group

    # ------------------------------------------------------------------
    @property
    def is_2d(self) -> bool:
        return bool(self.index_2)

    def value_at(self, i: int, j: int | None = None) -> float:
        """Exact grid-point value."""
        if self.is_2d:
            if j is None:
                raise LibertySemanticError("2-D table needs two indices")
            return float(self.values[i, j])
        return float(self.values[i])

    def interpolate(self, x1: float, x2: float | None = None) -> float:
        """Bilinear (or linear) interpolation with edge clamping.

        Matches STA-tool behaviour: queries outside the characterised
        grid are clamped to the boundary rather than extrapolated.
        """
        if self.is_2d:
            if x2 is None:
                raise LibertySemanticError(
                    "2-D table needs two query coordinates"
                )
            return _bilinear(
                np.asarray(self.index_1),
                np.asarray(self.index_2),
                self.values,
                x1,
                x2,
            )
        axis = np.asarray(self.index_1)
        x = float(np.clip(x1, axis[0], axis[-1]))
        return float(np.interp(x, axis, self.values))

    def map(self, function) -> "Table":
        """New table with ``function`` applied to the value grid."""
        return Table(
            self.template,
            self.index_1,
            self.index_2,
            function(self.values.copy()),
        )

    @classmethod
    def filled(
        cls,
        template: TableTemplate,
        fill: float = 0.0,
    ) -> "Table":
        """Constant-valued table over a template's axes."""
        return cls(
            template.name,
            template.index_1,
            template.index_2,
            np.full(template.shape, fill),
        )


def _bilinear(
    axis1: np.ndarray,
    axis2: np.ndarray,
    grid: np.ndarray,
    x1: float,
    x2: float,
) -> float:
    """Clamped bilinear interpolation on a rectangular grid."""
    x1 = float(np.clip(x1, axis1[0], axis1[-1]))
    x2 = float(np.clip(x2, axis2[0], axis2[-1]))
    i = int(np.clip(np.searchsorted(axis1, x1) - 1, 0, axis1.size - 2))
    j = int(np.clip(np.searchsorted(axis2, x2) - 1, 0, axis2.size - 2))
    t = (x1 - axis1[i]) / (axis1[i + 1] - axis1[i])
    u = (x2 - axis2[j]) / (axis2[j + 1] - axis2[j])
    return float(
        (1 - t) * (1 - u) * grid[i, j]
        + t * (1 - u) * grid[i + 1, j]
        + (1 - t) * u * grid[i, j + 1]
        + t * u * grid[i + 1, j + 1]
    )
