"""The regex tokenizer against the character-at-a-time reference.

Every input must give the same ``(kind, text, line, column)`` for every
token and, when the text is malformed, the same ``LibertySyntaxError``
message and position.  The parser reads the emitted library back
through the scan ``tokenize`` is a view of, so "parses OK" is not
enough: the streams must be equal token for token.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LibertySyntaxError
from repro.liberty.lexer import tokenize
from tests.liberty import reference_lexer

#: Liberty-shaped pieces, chosen to hit every lexical corner: CRLF,
#: backslash-newline inside and outside strings, escaped quotes, ``#``
#: and ``/`` inside atoms, and unterminated strings and comments.
FRAGMENTS = (
    "cell_rise",
    "1.25",
    "-3e-2",
    "0.5*VDD",
    "a#b",
    "a/b",
    "x/",
    "/",
    "#",
    "//",
    "/*",
    "*/",
    "*",
    '"',
    '\\"',
    "\\",
    "\\x",
    "\\\n",
    "\\\r\n",
    "\\\r",
    "\r\n",
    "\n",
    "\r",
    " ",
    "\t",
    "(",
    ")",
    "{",
    "}",
    ":",
    ";",
    ",",
    '"0.1, 0.2"',
    '"say \\"hi\\""',
    '"0.1, \\\n 0.2"',
    '"0.1, \\\r\n 0.2"',
    '"a\\\\"',
    "/* c ; { */",
    "// c\n",
    "# c\r\n",
    "é",
    "\x0b",
)

#: Single characters for free-form runs; ``\x0c`` and ``\xa0`` are
#: whitespace to ``str.isspace`` but atom characters to Liberty.
ALPHABET = "a1.- \t\r\n\\\"/*#(){}:;,\x0c\xa0"

liberty_like = st.lists(
    st.one_of(
        st.sampled_from(FRAGMENTS),
        st.text(alphabet=ALPHABET, max_size=6),
    ),
    max_size=40,
).map("".join)


def outcome(lexer, source: str) -> list[tuple]:
    """Every token as a tuple, then the error (if any) as a tuple."""
    seen: list[tuple] = []
    try:
        for token in lexer(source):
            seen.append((token.kind, token.text, token.line, token.column))
    except LibertySyntaxError as error:
        seen.append(("error", str(error), error.line, error.column))
    return seen


def assert_same(source: str) -> None:
    assert outcome(tokenize, source) == outcome(
        reference_lexer.tokenize, source
    )


@settings(max_examples=400, deadline=None)
@given(liberty_like)
def test_matches_reference_on_liberty_like_text(source):
    assert_same(source)


@pytest.mark.parametrize(
    "source",
    [
        "",
        "\n",
        "a",
        "a /* never closed",
        '"never closed',
        'x\n"oops',
        'ok "tail \\',
        "a\\",
        "a//b",
        "a/*b*/c",
        "a#b # comment",
        '"\\\r\n"',
        "\\\r\n\\\n\\\r x",
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
        # Cuts land inside strings, comments and atoms alike; each
        # prefix either lexes or fails the same way in both lexers.
        step = max(1, len(golden_text) // 97)
        for cut in range(0, len(golden_text), step):
            assert_same(golden_text[:cut])

    def test_table2_library(self, table2_text):
        assert len(table2_text) > 100_000
        assert_same(table2_text)
