"""Test-only reference: the token-at-a-time Liberty parser.

``repro.liberty.parser`` walks one regex scan by index into parallel
kind/text/offset lists.  The recursive descent it replaced, over a
list of ``Token`` objects with a ``current`` property and per-token
``_advance``/``_expect`` calls, lives on here unchanged as the oracle
the equivalence tests compare it against: the same AST, the same
``line`` on every node and the same ``LibertySyntaxError`` message and
position on every input.  It reads its tokens from the
character-at-a-time reference lexer, so the oracle shares no code with
the scan it checks.

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from repro.errors import LibertySyntaxError
from repro.liberty.ast import ComplexAttribute, Group, SimpleAttribute
from repro.liberty.lexer import Token, TokenKind
from tests.liberty.reference_lexer import tokenize

__all__ = ["parse_liberty", "parse_group"]


class _Parser:
    def __init__(self, source: str) -> None:
        self._tokens = list(tokenize(source))
        self._index = 0

    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _expect(self, kind: TokenKind) -> Token:
        token = self.current
        if token.kind is not kind:
            raise LibertySyntaxError(
                f"expected {kind.value!r}, found {token.text!r}",
                token.line,
                token.column,
            )
        return self._advance()

    def _skip_semicolons(self) -> None:
        while self.current.kind is TokenKind.SEMI:
            self._advance()

    # ------------------------------------------------------------------
    def parse_file(self) -> Group:
        """Parse a whole file: exactly one top-level group."""
        self._skip_semicolons()
        group = self.parse_statement()
        if not isinstance(group, Group):
            raise LibertySyntaxError(
                "Liberty file must start with a group "
                f"(found attribute {group.name!r})",
                1,
                1,
            )
        self._skip_semicolons()
        tail = self.current
        if tail.kind is not TokenKind.EOF:
            raise LibertySyntaxError(
                f"trailing content {tail.text!r} after top-level group",
                tail.line,
                tail.column,
            )
        return group

    def parse_statement(self) -> Group | SimpleAttribute | ComplexAttribute:
        name_token = self._expect(TokenKind.ATOM)
        name = name_token.text
        if self.current.kind is TokenKind.COLON:
            self._advance()
            return self._parse_simple(name, name_token)
        if self.current.kind is TokenKind.LPAREN:
            return self._parse_parenthesised(name, name_token)
        raise LibertySyntaxError(
            f"expected ':' or '(' after {name!r}",
            self.current.line,
            self.current.column,
        )

    def _parse_simple(
        self, name: str, name_token: Token
    ) -> SimpleAttribute:
        pieces: list[str] = []
        while self.current.kind in (TokenKind.ATOM, TokenKind.STRING):
            pieces.append(self._advance().text)
        if not pieces:
            raise LibertySyntaxError(
                f"attribute {name!r} has no value",
                name_token.line,
                name_token.column,
            )
        self._skip_semicolons()
        return SimpleAttribute(
            name, " ".join(pieces), line=name_token.line
        )

    def _parse_args(self) -> list[str]:
        self._expect(TokenKind.LPAREN)
        args: list[str] = []
        while self.current.kind is not TokenKind.RPAREN:
            if self.current.kind in (TokenKind.ATOM, TokenKind.STRING):
                args.append(self._advance().text)
            elif self.current.kind is TokenKind.COMMA:
                self._advance()
            else:
                raise LibertySyntaxError(
                    f"unexpected {self.current.text!r} in argument list",
                    self.current.line,
                    self.current.column,
                )
        self._expect(TokenKind.RPAREN)
        return args

    def _parse_parenthesised(
        self, name: str, name_token: Token
    ) -> Group | ComplexAttribute:
        args = self._parse_args()
        if self.current.kind is TokenKind.LBRACE:
            self._advance()
            group = Group(name, args, line=name_token.line)
            self._skip_semicolons()
            while self.current.kind is not TokenKind.RBRACE:
                if self.current.kind is TokenKind.EOF:
                    raise LibertySyntaxError(
                        f"unclosed group {name!r}",
                        name_token.line,
                        name_token.column,
                    )
                group.statements.append(self.parse_statement())
                self._skip_semicolons()
            self._expect(TokenKind.RBRACE)
            self._skip_semicolons()
            return group
        self._skip_semicolons()
        return ComplexAttribute(name, args, line=name_token.line)


def parse_liberty(source: str) -> Group:
    """Parse Liberty source text into its top-level group."""
    return _Parser(source).parse_file()


def parse_group(source: str) -> Group | SimpleAttribute | ComplexAttribute:
    """Parse a single statement."""
    return _Parser(source).parse_statement()
