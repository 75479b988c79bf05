"""Liberty tokenizer.

Handles the lexical quirks of real `.lib` files: ``/* */`` block
comments, ``//`` and ``#`` line comments, double-quoted strings with
backslash-newline continuations (used for long ``values`` lists),
bare-word atoms containing dots/units, and the six punctuation tokens
``( ) { } : ;`` plus the comma.

The tokenizer is one compiled regular expression walked with
``finditer``; the Python loop does only per-token work.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator

from repro.errors import LibertySyntaxError

__all__ = ["Token", "TokenKind", "tokenize"]


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    ATOM = "atom"  # bare word / number / unit expression
    STRING = "string"  # double-quoted, quotes stripped
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    COLON = ":"
    SEMI = ";"
    COMMA = ","
    EOF = "eof"


_PUNCT = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ":": TokenKind.COLON,
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
}

#: One token per match: the skipped run (whitespace, backslash-newline
#: continuations, block and line comments) is the optional prefix, and
#: the named group that closes last says what follows it.  Strings are
#: the unrolled ``[^"\\]*(?:\\.[^"\\]*)*`` loop; a bare atom stops at
#: a terminator or before ``/*`` and ``//``; the ``open_*`` groups catch
#: an unterminated comment or string at its opening position.  Every
#: character left after the skipped run starts one of these groups, so
#: ``finditer`` never steps over text.
_TOKEN = re.compile(
    r"""
    (?: [ \t\r\n]+ | \\[\r\n] | /\*.*?\*/ | (?://|\#)[^\n]* )*
    (?:
        "(?P<string>[^"\\]*(?:\\.[^"\\]*)*)"
      | (?P<punct>[(){}:;,])
      | (?P<atom>(?:[^ \t\r\n"(){}:;,/]+|/(?![*/]))+)
      | (?P<open_comment>/\*)
      | (?P<open_string>")
      | (?P<eof>\Z)
    )
    """,
    re.DOTALL | re.VERBOSE,
)

#: A backslash escape inside a string: a continuation (``\`` before a
#: newline or CRLF) is dropped, any other escaped character is kept.
_ESCAPE = re.compile(r"\\(\r\n?|\n|.)", re.DOTALL)


def _unescape(match: re.Match) -> str:
    escaped = match.group(1)
    return "" if escaped[0] in "\r\n" else escaped


@dataclass(frozen=True)
class Token:
    """One lexical token with its 1-based source position."""

    kind: TokenKind
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str) -> Iterator[Token]:
    """Yield tokens from Liberty source text, ending with EOF.

    Positions are 1-based; every character but ``\\n`` (``\\r`` and
    tabs included) advances the column by one.

    Raises:
        LibertySyntaxError: On unterminated strings or block comments.
    """
    line = 1
    line_start = 0  # offset of the first character of ``line``
    scanned = 0  # newlines before this offset are counted into ``line``
    for match in _TOKEN.finditer(source):
        group = match.lastgroup
        start = match.start(group)
        if group == "string":
            start -= 1  # the token starts at its opening quote
        newlines = source.count("\n", scanned, start)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", scanned, start) + 1
        scanned = start
        column = start - line_start + 1
        if group == "atom":
            yield Token(TokenKind.ATOM, match.group(group), line, column)
        elif group == "punct":
            text = match.group(group)
            yield Token(_PUNCT[text], text, line, column)
        elif group == "string":
            text = match.group(group)
            if "\\" in text:
                text = _ESCAPE.sub(_unescape, text)
            yield Token(TokenKind.STRING, text, line, column)
        elif group == "eof":
            yield Token(TokenKind.EOF, "", line, column)
            return
        elif group == "open_comment":
            raise LibertySyntaxError(
                "unterminated block comment", line, column
            )
        else:
            raise LibertySyntaxError("unterminated string", line, column)
