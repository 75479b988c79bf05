"""Test-only reference: the character-at-a-time Liberty tokenizer.

``repro.liberty.lexer.tokenize`` walks one compiled regex.  The
per-character loop it replaced lives on here, unchanged, as the oracle
the equivalence tests compare it against: the same ``Token`` stream
(kind, text, line, column) and the same ``LibertySyntaxError`` message
and position on every input.

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import LibertySyntaxError
from repro.liberty.lexer import Token, TokenKind

_PUNCT = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ":": TokenKind.COLON,
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
}

#: Characters that terminate a bare atom.
_ATOM_TERMINATORS = set(' \t\r\n"(){}:;,')


def tokenize(source: str) -> Iterator[Token]:
    """Yield tokens from Liberty source text, ending with EOF.

    Raises:
        LibertySyntaxError: On unterminated strings or block comments.
    """
    position = 0
    line = 1
    column = 1
    length = len(source)

    def advance(count: int) -> None:
        nonlocal position, line, column
        for _ in range(count):
            if position < length and source[position] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            position += 1

    while position < length:
        char = source[position]
        # Whitespace (including escaped newlines between tokens).
        if char in " \t\r\n":
            advance(1)
            continue
        if char == "\\" and position + 1 < length and source[
            position + 1
        ] in "\r\n":
            advance(2)
            continue
        # Comments.
        if source.startswith("/*", position):
            end = source.find("*/", position + 2)
            if end < 0:
                raise LibertySyntaxError(
                    "unterminated block comment", line, column
                )
            advance(end + 2 - position)
            continue
        if source.startswith("//", position) or char == "#":
            newline = source.find("\n", position)
            advance((newline if newline >= 0 else length) - position)
            continue
        # Strings with backslash-newline continuation.
        if char == '"':
            start_line, start_column = line, column
            advance(1)
            pieces: list[str] = []
            while True:
                if position >= length:
                    raise LibertySyntaxError(
                        "unterminated string", start_line, start_column
                    )
                current = source[position]
                if current == '"':
                    advance(1)
                    break
                if current == "\\" and position + 1 < length:
                    following = source[position + 1]
                    if following in "\r\n":
                        # Line continuation inside a quoted value list.
                        advance(2)
                        if (
                            following == "\r"
                            and position < length
                            and source[position] == "\n"
                        ):
                            advance(1)
                        continue
                    pieces.append(following)
                    advance(2)
                    continue
                pieces.append(current)
                advance(1)
            yield Token(
                TokenKind.STRING, "".join(pieces), start_line, start_column
            )
            continue
        # Punctuation.
        if char in _PUNCT:
            yield Token(_PUNCT[char], char, line, column)
            advance(1)
            continue
        # Bare atom: numbers, identifiers, unit expressions like 1ns,
        # arithmetic like 0.5*VDD.
        start_line, start_column = line, column
        start = position
        while (
            position < length
            and source[position] not in _ATOM_TERMINATORS
            and not source.startswith("/*", position)
            and not source.startswith("//", position)
        ):
            advance(1)
        atom = source[start:position]
        if not atom:
            raise LibertySyntaxError(
                f"unexpected character {char!r}", start_line, start_column
            )
        yield Token(TokenKind.ATOM, atom, start_line, start_column)

    yield Token(TokenKind.EOF, "", line, column)
