"""Liberty serialiser.

Writes an AST back to `.lib` text with conventional formatting:
two-space indentation, one statement per line, long complex-attribute
value lists (``values``, ``index_1`` ...) broken with backslash
continuations the way commercial characterisation tools emit them.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.liberty.ast import ComplexAttribute, Group, SimpleAttribute
from repro.runtime import telemetry

__all__ = ["write_liberty", "format_float", "format_float_list"]

#: Complex attributes whose arguments are quoted number lists.
_QUOTED_LIST_ATTRS = {"values", "index_1", "index_2", "index_3"}
#: Wrap quoted value lists at this many characters.
_WRAP_COLUMN = 78


def format_float(value: float, precision: int = 6) -> str:
    """Format a float the Liberty way: fixed significant digits.

    Uses ``repr``-free shortest-ish formatting so LUT round-trips are
    stable: ``0.1 -> "0.1"``, ``1e-05 -> "1e-05"``.
    """
    text = f"{value:.{precision}g}"
    return text


def format_float_list(values: Iterable[float]) -> str:
    """``", "``-joined :func:`format_float` texts of ``values``.

    Give it Python floats (``ndarray.tolist()``), not numpy scalars:
    the text is the same and formatting a float is several times
    cheaper.
    """
    return ", ".join([f"{value:.6g}" for value in values])


def _format_complex(attribute: ComplexAttribute, indent: str) -> str:
    name = attribute.name
    if name in _QUOTED_LIST_ATTRS:
        pieces = [f'"{value}"' for value in attribute.values]
        single = f"{indent}{name} ({', '.join(pieces)});"
        if len(single) <= _WRAP_COLUMN or len(pieces) <= 1:
            return single
        # One quoted row per line, continuation-escaped.
        joiner = ", \\\n" + indent + " " * (len(name) + 2)
        return f"{indent}{name} ({joiner.join(pieces)});"
    rendered = []
    for value in attribute.values:
        needs_quotes = any(ch in value for ch in " \t,();{}") or value == ""
        rendered.append(f'"{value}"' if needs_quotes else value)
    return f"{indent}{name} ({', '.join(rendered)});"


def _write_group(group: Group, depth: int, lines: list[str]) -> None:
    indent = "  " * depth
    args = ", ".join(group.args)
    lines.append(f"{indent}{group.name} ({args}) {{")
    child_indent = "  " * (depth + 1)
    for statement in group.statements:
        if isinstance(statement, Group):
            _write_group(statement, depth + 1, lines)
        elif isinstance(statement, SimpleAttribute):
            lines.append(
                f"{child_indent}{statement.name} : "
                f"{statement.format_value()};"
            )
        elif isinstance(statement, ComplexAttribute):
            lines.append(_format_complex(statement, child_indent))
        else:  # pragma: no cover - exhaustive statement kinds
            raise TypeError(f"unknown statement {statement!r}")
    lines.append(f"{indent}}}")


def write_liberty(group: Group) -> str:
    """Serialise ``group`` (typically a ``library``) to Liberty text."""
    with telemetry.span("liberty.serialize", group=group.name):
        lines: list[str] = []
        _write_group(group, 0, lines)
        lines.append("")
        text = "\n".join(lines)
    telemetry.counter_inc("liberty.serialized_bytes", len(text))
    return text
