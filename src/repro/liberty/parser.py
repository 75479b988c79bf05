"""Recursive-descent parser for Liberty text.

Grammar (statement terminators are permissive, as real-world `.lib`
files frequently omit semicolons after groups):

    file        := group
    group       := ATOM '(' args? ')' '{' statement* '}' ';'?
    statement   := group | simple_attr | complex_attr | define
    simple_attr := ATOM ':' value (';' | NEWLINE-ish)
    complex_attr:= ATOM '(' args? ')' ';'?
    value       := (ATOM | STRING)+        -- joined with spaces
    args        := (ATOM | STRING) (',' (ATOM | STRING))*

The parser walks the lexer's one scan (:func:`~repro.liberty.lexer.scan`)
by index into its kind/text/offset lists; no token objects are built.
A statement's ``line`` is counted from the newlines between successive
statement starts, which only move forward, and an error's line/column
is computed from its offset only when it is raised.
"""

from __future__ import annotations

from repro.errors import LibertySyntaxError
from repro.liberty.ast import (
    ComplexAttribute,
    Group,
    SimpleAttribute,
    Statement,
)
from repro.liberty.lexer import ERROR, position, scan
from repro.runtime import telemetry

__all__ = ["parse_liberty", "parse_group"]


class _Parser:
    def __init__(self, source: str) -> None:
        self._source = source
        self._kinds, self._texts, self._starts = scan(source)
        if self._kinds[-1] == ERROR:
            raise self._error(self._texts[-1], len(self._kinds) - 1)
        self._line = 1  # line of offset ``_counted``
        self._counted = 0

    def _error(self, message: str, index: int) -> LibertySyntaxError:
        line, column = position(self._source, self._starts[index])
        return LibertySyntaxError(message, line, column)

    def _skip_semicolons(self, index: int) -> int:
        kinds = self._kinds
        while kinds[index] == ";":
            index += 1
        return index

    # ------------------------------------------------------------------
    def parse_file(self) -> Group:
        """Parse a whole file: exactly one top-level group."""
        group, index = self.parse_statement(self._skip_semicolons(0))
        if not isinstance(group, Group):
            raise LibertySyntaxError(
                "Liberty file must start with a group "
                f"(found attribute {group.name!r})",
                1,
                1,
            )
        index = self._skip_semicolons(index)
        if self._kinds[index] != "eof":
            raise self._error(
                f"trailing content {self._texts[index]!r} after "
                "top-level group",
                index,
            )
        return group

    def parse_statement(self, index: int) -> tuple[Statement, int]:
        """Parse the statement at token ``index``; return it and the
        index after it (and after any semicolons that follow)."""
        kinds = self._kinds
        texts = self._texts
        if kinds[index] != "atom":
            raise self._error(
                f"expected 'atom', found {texts[index]!r}", index
            )
        name_index = index
        name = texts[index]
        start = self._starts[index]
        self._line += self._source.count("\n", self._counted, start)
        self._counted = start
        line = self._line
        index += 1
        kind = kinds[index]
        if kind == ":":
            index += 1
            first = index
            while kinds[index] == "atom" or kinds[index] == "string":
                index += 1
            if index == first:
                raise self._error(
                    f"attribute {name!r} has no value", name_index
                )
            return (
                SimpleAttribute(
                    name, " ".join(texts[first:index]), line=line
                ),
                self._skip_semicolons(index),
            )
        if kind != "(":
            raise self._error(
                f"expected ':' or '(' after {name!r}", index
            )
        index += 1
        args: list[str] = []
        while (kind := kinds[index]) != ")":
            if kind == "atom" or kind == "string":
                args.append(texts[index])
            elif kind != ",":
                raise self._error(
                    f"unexpected {texts[index]!r} in argument list", index
                )
            index += 1
        index += 1
        if kinds[index] != "{":
            return (
                ComplexAttribute(name, args, line=line),
                self._skip_semicolons(index),
            )
        group = Group(name, args, line=line)
        statements = group.statements
        index = self._skip_semicolons(index + 1)
        while (kind := kinds[index]) != "}":
            if kind == "eof":
                raise self._error(f"unclosed group {name!r}", name_index)
            statement, index = self.parse_statement(index)
            statements.append(statement)
        return group, self._skip_semicolons(index + 1)


def parse_liberty(source: str) -> Group:
    """Parse Liberty source text into its top-level group.

    Raises:
        LibertySyntaxError: With line/column on any malformed input.
    """
    with telemetry.span("liberty.parse"):
        group = _Parser(source).parse_file()
    telemetry.counter_inc("liberty.parsed_bytes", len(source))
    return group


def parse_group(source: str) -> Statement:
    """Parse a single statement (useful for snippets in tests)."""
    statement, _ = _Parser(source).parse_statement(0)
    return statement
