"""Liberty format substrate with the LVF2 extension (paper §2.2, §3.3)."""

from repro.findings import Severity
from repro.liberty.ast import ComplexAttribute, Group, SimpleAttribute
from repro.liberty.library import Cell, Library, Pin, TimingArc, read_library
from repro.liberty.lvf2_attrs import LVF2_PREFIXES, LVF2Tables, lvf2_attr_name
from repro.liberty.lvf_attrs import (
    BASE_QUANTITIES,
    LVF_PREFIXES,
    LVFTables,
    lvf_attr_name,
)
from repro.liberty.lint import validate_library
from repro.liberty.parser import parse_group, parse_liberty
from repro.liberty.tables import Table, TableTemplate, parse_number_list
from repro.liberty.writer import format_float, write_liberty

__all__ = [
    "BASE_QUANTITIES",
    "Cell",
    "ComplexAttribute",
    "Group",
    "LVF2Tables",
    "LVF2_PREFIXES",
    "LVFTables",
    "LVF_PREFIXES",
    "Library",
    "Pin",
    "SimpleAttribute",
    "Table",
    "TableTemplate",
    "TimingArc",
    "Severity",
    "format_float",
    "lvf2_attr_name",
    "lvf_attr_name",
    "parse_group",
    "parse_liberty",
    "parse_number_list",
    "read_library",
    "validate_library",
    "write_liberty",
]
