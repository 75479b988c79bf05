"""Liberty tokenizer.

Handles the lexical quirks of real `.lib` files: ``/* */`` block
comments, ``//`` and ``#`` line comments, double-quoted strings with
backslash-newline continuations (used for long ``values`` lists),
bare-word atoms containing dots/units, and the six punctuation tokens
``( ) { } : ;`` plus the comma.

One compiled regular expression walked once with ``finditer`` fills
three parallel lists (:func:`scan`): a kind tag, the text and the
source offset of every token.  The parser reads those lists by index;
:func:`tokenize` is a view of the same scan that turns offsets into
line/column and builds :class:`Token` objects.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator

from repro.errors import LibertySyntaxError

__all__ = ["Token", "TokenKind", "position", "scan", "tokenize"]


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


#: Group numbers of ``_TOKEN``, read with ``Match.lastindex``.
_STRING = _TOKEN.groupindex["string"]
_PUNCT = _TOKEN.groupindex["punct"]
_ATOM = _TOKEN.groupindex["atom"]
_OPEN_COMMENT = _TOKEN.groupindex["open_comment"]
_EOF = _TOKEN.groupindex["eof"]

#: Kind tag of the entry that ends the scan of malformed text.
ERROR = "error"


def scan(source: str) -> tuple[list[str], list[str], list[int]]:
    """Scan Liberty text once into parallel ``(kinds, texts, starts)``.

    Entry ``i`` is one token: ``kinds[i]`` is its :class:`TokenKind`
    value (``"atom"``, ``"string"``, ``"eof"`` or the punctuation
    character itself), ``texts[i]`` its text (strings without quotes,
    escapes resolved) and ``starts[i]`` its source offset (a string's
    opening quote).  The last entry is ``"eof"`` with empty text, or,
    when the text holds an unterminated string or block comment,
    :data:`ERROR` with the message as text at the opening offset.
    """
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    kind_append = kinds.append
    text_append = texts.append
    start_append = starts.append
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        if group == _ATOM:
            kind_append("atom")
            text_append(match[_ATOM])
            start_append(match.start(_ATOM))
        elif group == _PUNCT:
            text = match[_PUNCT]
            kind_append(text)
            text_append(text)
            start_append(match.start(_PUNCT))
        elif group == _STRING:
            text = match[_STRING]
            if "\\" in text:
                text = _ESCAPE.sub(_unescape, text)
            kind_append("string")
            text_append(text)
            start_append(match.start(_STRING) - 1)
        else:
            if group == _EOF:
                kind_append("eof")
                text_append("")
            else:
                kind_append(ERROR)
                text_append(
                    "unterminated block comment"
                    if group == _OPEN_COMMENT
                    else "unterminated string"
                )
            start_append(match.start(group))
            break
    return kinds, texts, starts


def position(source: str, offset: int) -> tuple[int, int]:
    """1-based ``(line, column)`` of ``offset`` in ``source``.

    Every character but ``\\n`` (``\\r`` and tabs included) advances
    the column by one.
    """
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


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

    Positions are 1-based, as :func:`position` counts them.

    Raises:
        LibertySyntaxError: On unterminated strings or block comments,
            after the tokens before them.
    """
    kinds, texts, starts = scan(source)
    line = 1
    line_start = 0  # offset of the first character of ``line``
    scanned = 0  # newlines before this offset are counted into ``line``
    for kind, text, start in zip(kinds, texts, starts):
        newlines = source.count("\n", scanned, start)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", scanned, start) + 1
        scanned = start
        column = start - line_start + 1
        if kind == ERROR:
            raise LibertySyntaxError(text, line, column)
        yield Token(TokenKind(kind), text, line, column)
