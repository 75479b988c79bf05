"""Liberty library data model: library / cell / pin / timing arc.

Binds the raw AST to typed objects and to the LVF / LVF2 statistical
tables.  A library parsed from text can be queried for the fitted
distribution of any (cell, arc, quantity, slew, load) point and written
back to `.lib` text; the round-trip preserves LVF2 attributes and the
backward-compatibility semantics of paper §3.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LibertySemanticError
from repro.liberty.ast import Group
from repro.liberty.lvf2_attrs import (
    LVF2_PREFIXES,
    PREFIX_ALIASES,
    LVF2Tables,
)
from repro.liberty.lvf_attrs import BASE_QUANTITIES, LVF_PREFIXES, LVFTables
from repro.liberty.parser import parse_liberty
from repro.liberty.tables import Table, TableTemplate
from repro.liberty.writer import write_liberty

__all__ = ["Library", "Cell", "Pin", "TimingArc", "read_library"]

#: Library-level simple attributes preserved verbatim on round-trip.
_LIBRARY_ATTRS = (
    "technology",
    "delay_model",
    "time_unit",
    "voltage_unit",
    "current_unit",
    "pulling_resistance_unit",
    "leakage_power_unit",
    "nom_process",
    "nom_temperature",
    "nom_voltage",
    "default_max_transition",
)


#: Statistical LUT group name -> ``(prefix, base)``, aliases resolved;
#: on a clash the first prefix in LVF, LVF2, alias order wins.
_STAT_TABLES: dict[str, tuple[str, str]] = {}
for _prefix in (*LVF_PREFIXES, *LVF2_PREFIXES, *PREFIX_ALIASES):
    for _base in BASE_QUANTITIES:
        _STAT_TABLES.setdefault(
            f"{_prefix}_{_base}", (PREFIX_ALIASES.get(_prefix, _prefix), _base)
        )
del _prefix, _base


def _match_stat_table(name: str) -> tuple[str, str] | None:
    """Split a LUT group name into ``(prefix, base)`` if statistical.

    ``ocv_std_dev_cell_rise`` -> ``("ocv_std_dev", "cell_rise")``;
    returns ``None`` for non-statistical group names.
    """
    return _STAT_TABLES.get(name)


@dataclass
class TimingArc:
    """One timing arc: related pin, sense/type, statistical tables.

    Attributes:
        related_pin: Driving input pin of the arc.
        timing_sense: ``positive_unate`` / ``negative_unate`` /
            ``non_unate``.
        timing_type: Liberty timing type (``combinational`` ...).
        when: Optional state-dependent condition.
        tables: Per-base-quantity LVF2 table sets.
    """

    related_pin: str
    timing_sense: str = "positive_unate"
    timing_type: str = "combinational"
    when: str | None = None
    tables: dict[str, LVF2Tables] = field(default_factory=dict)

    @property
    def is_statistical(self) -> bool:
        return any(
            tables.lvf.has_variation for tables in self.tables.values()
        )

    @property
    def is_lvf2(self) -> bool:
        return any(tables.is_lvf2 for tables in self.tables.values())

    # ------------------------------------------------------------------
    @classmethod
    def from_group(
        cls, group: Group, templates: dict[str, TableTemplate]
    ) -> "TimingArc":
        if group.name != "timing":
            raise LibertySemanticError(
                f"expected timing group, found {group.name}"
            )
        arc = cls(
            related_pin=group.get("related_pin", "") or "",
            timing_sense=group.get("timing_sense", "positive_unate")
            or "positive_unate",
            timing_type=group.get("timing_type", "combinational")
            or "combinational",
            when=group.get("when"),
        )
        nominal_tables: dict[str, Table] = {}
        stat_tables: dict[tuple[str, str], Table] = {}
        for child in group.groups():
            template = templates.get(child.label)
            if child.name in BASE_QUANTITIES:
                nominal_tables[child.name] = Table.from_group(
                    child, template
                )
                continue
            match = _match_stat_table(child.name)
            if match is not None:
                stat_tables[match] = Table.from_group(child, template)
        for base, nominal in nominal_tables.items():
            lvf = LVFTables(
                base=base,
                nominal=nominal,
                mean_shift=stat_tables.get(("ocv_mean_shift", base)),
                std_dev=stat_tables.get(("ocv_std_dev", base)),
                skewness=stat_tables.get(("ocv_skewness", base)),
            )
            arc.tables[base] = LVF2Tables(
                lvf=lvf,
                mean_shift1=stat_tables.get(("ocv_mean_shift1", base)),
                std_dev1=stat_tables.get(("ocv_std_dev1", base)),
                skewness1=stat_tables.get(("ocv_skewness1", base)),
                weight2=stat_tables.get(("ocv_weight2", base)),
                mean_shift2=stat_tables.get(("ocv_mean_shift2", base)),
                std_dev2=stat_tables.get(("ocv_std_dev2", base)),
                skewness2=stat_tables.get(("ocv_skewness2", base)),
            )
        return arc

    def to_group(self) -> Group:
        group = Group("timing", [])
        group.set("related_pin", self.related_pin)
        group.set("timing_sense", self.timing_sense)
        group.set("timing_type", self.timing_type)
        if self.when is not None:
            group.set("when", self.when)
        for base in BASE_QUANTITIES:
            tables = self.tables.get(base)
            if tables is None:
                continue
            lvf = tables.lvf
            group.add_group(lvf.nominal.to_group(base))
            pairs = [
                ("ocv_mean_shift", lvf.mean_shift),
                ("ocv_std_dev", lvf.std_dev),
                ("ocv_skewness", lvf.skewness),
                ("ocv_mean_shift1", tables.mean_shift1),
                ("ocv_std_dev1", tables.std_dev1),
                ("ocv_skewness1", tables.skewness1),
                ("ocv_weight2", tables.weight2),
                ("ocv_mean_shift2", tables.mean_shift2),
                ("ocv_std_dev2", tables.std_dev2),
                ("ocv_skewness2", tables.skewness2),
            ]
            for prefix, table in pairs:
                if table is not None:
                    group.add_group(table.to_group(f"{prefix}_{base}"))
        return group


@dataclass
class Pin:
    """A cell pin with direction, loading and (for outputs) arcs."""

    name: str
    direction: str = "input"
    capacitance: float | None = None
    function: str | None = None
    max_capacitance: float | None = None
    arcs: list[TimingArc] = field(default_factory=list)

    @classmethod
    def from_group(
        cls, group: Group, templates: dict[str, TableTemplate]
    ) -> "Pin":
        pin = cls(
            name=group.label,
            direction=group.get("direction", "input") or "input",
            function=group.get("function"),
        )
        capacitance = group.get("capacitance")
        if capacitance is not None:
            pin.capacitance = float(capacitance)
        max_cap = group.get("max_capacitance")
        if max_cap is not None:
            pin.max_capacitance = float(max_cap)
        for child in group.groups("timing"):
            pin.arcs.append(TimingArc.from_group(child, templates))
        return pin

    def to_group(self) -> Group:
        group = Group("pin", [self.name])
        group.set("direction", self.direction)
        if self.capacitance is not None:
            group.set("capacitance", f"{self.capacitance:.6g}")
        if self.max_capacitance is not None:
            group.set("max_capacitance", f"{self.max_capacitance:.6g}")
        if self.function is not None:
            group.set("function", self.function)
        for arc in self.arcs:
            group.add_group(arc.to_group())
        return group

    def arc_to(self, related_pin: str) -> TimingArc:
        """First arc driven by ``related_pin``.

        Raises:
            LibertySemanticError: When absent.
        """
        for arc in self.arcs:
            if arc.related_pin == related_pin:
                return arc
        raise LibertySemanticError(
            f"pin {self.name} has no arc from {related_pin}"
        )


@dataclass
class Cell:
    """A standard cell: pins, area, and footprint metadata."""

    name: str
    area: float = 0.0
    pins: dict[str, Pin] = field(default_factory=dict)

    @classmethod
    def from_group(
        cls, group: Group, templates: dict[str, TableTemplate]
    ) -> "Cell":
        cell = cls(name=group.label)
        area = group.get("area")
        if area is not None:
            cell.area = float(area)
        for child in group.groups("pin"):
            pin = Pin.from_group(child, templates)
            cell.pins[pin.name] = pin
        return cell

    def to_group(self) -> Group:
        group = Group("cell", [self.name])
        group.set("area", f"{self.area:.6g}")
        for pin in self.pins.values():
            group.add_group(pin.to_group())
        return group

    @property
    def input_pins(self) -> list[Pin]:
        return [p for p in self.pins.values() if p.direction == "input"]

    @property
    def output_pins(self) -> list[Pin]:
        return [p for p in self.pins.values() if p.direction == "output"]

    def arcs(self) -> list[tuple[Pin, TimingArc]]:
        """All (output pin, arc) pairs of the cell."""
        return [
            (pin, arc) for pin in self.output_pins for arc in pin.arcs
        ]


@dataclass
class Library:
    """A Liberty library with templates and cells."""

    name: str
    attributes: dict[str, str] = field(default_factory=dict)
    templates: dict[str, TableTemplate] = field(default_factory=dict)
    cells: dict[str, Cell] = field(default_factory=dict)

    @classmethod
    def from_group(cls, group: Group) -> "Library":
        if group.name != "library":
            raise LibertySemanticError(
                f"top-level group must be 'library', found {group.name!r}"
            )
        library = cls(name=group.label)
        for attr in group.attributes():
            if attr.name in _LIBRARY_ATTRS:
                library.attributes[attr.name] = attr.value
        for child in group.groups():
            if child.name in ("lu_table_template", "ocv_table_template"):
                template = TableTemplate.from_group(child)
                library.templates[template.name] = template
            elif child.name == "cell":
                cell = Cell.from_group(child, library.templates)
                library.cells[cell.name] = cell
        return library

    def to_group(self) -> Group:
        group = Group("library", [self.name])
        for name, value in self.attributes.items():
            group.set(name, value)
        for template in self.templates.values():
            group.add_group(template.to_group())
        for cell in self.cells.values():
            group.add_group(cell.to_group())
        return group

    def to_text(self) -> str:
        """Serialise to Liberty text."""
        return write_liberty(self.to_group())

    def cell(self, name: str) -> Cell:
        """Cell lookup with a helpful error.

        Raises:
            LibertySemanticError: When the cell is absent.
        """
        try:
            return self.cells[name]
        except KeyError:
            raise LibertySemanticError(
                f"library {self.name!r} has no cell {name!r}"
            ) from None

    @property
    def is_lvf2(self) -> bool:
        """True when any arc carries LVF2 extension tables."""
        return any(
            arc.is_lvf2
            for cell in self.cells.values()
            for _, arc in cell.arcs()
        )


def read_library(source: str) -> Library:
    """Parse Liberty text into a :class:`Library`."""
    return Library.from_group(parse_liberty(source))
