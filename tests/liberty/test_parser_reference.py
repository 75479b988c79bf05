"""The index-walking parser against the token-object reference parser.

Every input must give an equal AST with an equal ``line`` on every node
(``line`` is left out of node equality) or, when the text is malformed,
the same ``LibertySyntaxError`` message, line and column.  Both
``parse_liberty`` (a whole file) and ``parse_group`` (one statement)
are compared.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LibertySyntaxError
from repro.liberty.ast import Group
from repro.liberty.parser import parse_group, parse_liberty
from tests.liberty import reference_parser


def node_lines(node) -> list[tuple[str, int]]:
    """``(name, line)`` of every node, depth first."""
    found = [(node.name, node.line)]
    if isinstance(node, Group):
        for statement in node.statements:
            found.extend(node_lines(statement))
    return found


def outcome(parse, source: str) -> tuple:
    try:
        tree = parse(source)
    except LibertySyntaxError as error:
        return ("error", str(error), error.line, error.column)
    return ("ok", tree, node_lines(tree))


def assert_same(source: str) -> None:
    assert outcome(parse_liberty, source) == outcome(
        reference_parser.parse_liberty, source
    )
    assert outcome(parse_group, source) == outcome(
        reference_parser.parse_group, source
    )


#: Text between tokens: whitespace, CRLF, comments and backslash-newline
#: continuations, which the lexer skips but which move lines.  Each
#: starts with a space so that it never extends the atom before it.
SEPARATOR = st.sampled_from(
    (
        "",
        " ",
        " \n",
        " \r\n",
        " \t",
        "  \n    ",
        " /* c ; { */ ",
        " /* two\nlines */",
        " // c\n",
        " # c\r\n",
        " \\\n",
        " \\\r\n",
    )
)
#: Statement ends: missing, single, repeated and spaced semicolons.
END = st.sampled_from(("", ";", ";;", " ;\n", ";\r\n;"))
NAME = st.sampled_from(
    ("library", "cell", "pin", "timing", "cell_rise", "values", "area",
     "index_1", "x1", "0.5*VDD", "a/b", "a#b")
)
VALUE = st.one_of(
    NAME,
    st.sampled_from(
        ('"0.1, 0.2"', '""', '"a b"', '"0.1, \\\n 0.2"', '"say \\"hi\\""',
         "1ns", "-3e-2")
    ),
)


def _join(pieces: list[str], separators: list[str], glue: str) -> str:
    """``pieces`` joined by ``glue`` and the separators in turn."""
    return "".join(
        (glue + separators[i % len(separators)] if i else "") + piece
        for i, piece in enumerate(pieces)
    )


ARGS = st.builds(
    lambda values, separators: _join(values, separators, ","),
    st.lists(VALUE, max_size=3),
    st.lists(SEPARATOR, min_size=1, max_size=3),
)
SIMPLE = st.builds(
    lambda name, s1, s2, values, end: (
        f"{name}{s1}:{s2}{' '.join(values)}{end}"
    ),
    NAME,
    SEPARATOR,
    SEPARATOR,
    st.lists(VALUE, min_size=1, max_size=2),
    END,
)
COMPLEX = st.builds(
    lambda name, s1, args, end: f"{name}{s1}({args}){end}",
    NAME,
    SEPARATOR,
    ARGS,
    END,
)


def _group_text(name, s1, args, s2, body, s3, end) -> str:
    inner = f"{s3} ".join(body)
    return f"{name}{s1}({args}){s2}{{{s3} {inner}{s3}}}{end}"


def group_of(children):
    return st.builds(
        _group_text,
        NAME,
        SEPARATOR,
        ARGS,
        SEPARATOR,
        st.lists(children, max_size=4),
        SEPARATOR,
        END,
    )


STATEMENT = st.recursive(SIMPLE | COMPLEX, group_of, max_leaves=12)
DOCUMENT = st.builds(
    lambda lead, body, trail: lead + body + trail,
    SEPARATOR,
    group_of(STATEMENT),
    SEPARATOR,
)

#: Edits that break a document: stray punctuation, unterminated
#: strings and comments, or nothing (a deletion or a truncation).
DAMAGE = st.sampled_from(
    ("", "(", ")", "{", "}", ":", ";", ",", '"', "/*", "x", "\n")
)


@st.composite
def malformed(draw) -> str:
    document = draw(DOCUMENT)
    cut = draw(st.integers(0, len(document)))
    dropped = draw(st.integers(0, 3))
    if draw(st.booleans()):
        return document[:cut]
    return document[:cut] + draw(DAMAGE) + document[cut + dropped :]


@settings(max_examples=400, deadline=None)
@given(DOCUMENT)
def test_matches_reference_on_generated_libraries(source):
    assert_same(source)


@settings(max_examples=400, deadline=None)
@given(malformed())
def test_matches_reference_on_malformed_text(source):
    assert_same(source)


@pytest.mark.parametrize(
    "source",
    [
        "",
        ";",
        "library",
        "library (",
        "library ()",
        "library () {",
        "library () { }",
        "library (l) { } extra",
        "library (l) { } ;;",
        "foo : bar;",
        "foo : ;",
        "foo ( { ) ;",
        "library (l) { cell (A) {",
        "library (l) { a : 1 b : 2 }",
        'library (l) { a : "x" "y" 3; }',
        "library (l) { } \"never closed",
        "library (l) { /* never closed",
        "library (l) {\r\n  a : 1;\r\n  b (2, , 3);\r\n}\r\n",
        "library (l) { x ( ) { } ; y () ; }",
    ],
)
def test_matches_reference_on_edge_cases(source):
    assert_same(source)


class TestFixedCorpus:
    def test_golden_library(self, golden_text):
        assert_same(golden_text)

    def test_golden_library_with_crlf(self, golden_text):
        assert_same(golden_text.replace("\n", "\r\n"))

    def test_golden_library_truncated(self, golden_text):
        step = max(1, len(golden_text) // 97)
        for cut in range(0, len(golden_text), step):
            assert_same(golden_text[:cut])

    def test_table2_library(self, table2_text):
        assert len(table2_text) > 100_000
        assert_same(table2_text)
