"""Token stream with pushback and savepoints.

The pushback stack is what lets the tokenizer/parser co-routine of the
paper work: when the parser (inside a template) meets a ``$``, it
parses and type-analyzes the placeholder expression, then *pushes a
synthesized placeholder token back onto the stream*, so every parsing
routine downstream sees an ordinary token whose type it can inspect
with one token of lookahead.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lexer.tokens import Token, TokenKind


class TokenStream:
    """A cursor over a token list (which always ends with EOF)."""

    def __init__(self, tokens: list[Token]) -> None:
        if not tokens or tokens[-1].kind is not TokenKind.EOF:
            raise ValueError("token list must end with EOF")
        self.tokens = tokens
        self.index = 0
        self.pushback: list[Token] = []

    # ------------------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        """The token ``ahead`` positions from the cursor (EOF past end)."""
        if ahead < len(self.pushback):
            return self.pushback[-1 - ahead]
        list_index = self.index + (ahead - len(self.pushback))
        if list_index >= len(self.tokens):
            return self.tokens[-1]
        return self.tokens[list_index]

    def next(self) -> Token:
        if self.pushback:
            return self.pushback.pop()
        token = self.tokens[self.index]
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def push(self, token: Token) -> None:
        """Push a token back; it becomes the next token returned."""
        self.pushback.append(token)

    def at_eof(self) -> bool:
        return self.peek().kind is TokenKind.EOF

    # ------------------------------------------------------------------

    def expect_punct(self, spelling: str) -> Token:
        token = self.next()
        if not token.is_punct(spelling):
            raise ParseError(
                f"expected {spelling!r}, got {token.describe()}",
                token.location,
            )
        return token

    def expect_keyword(self, name: str) -> Token:
        token = self.next()
        if not token.is_keyword(name):
            raise ParseError(
                f"expected keyword {name!r}, got {token.describe()}",
                token.location,
            )
        return token

    def expect_ident(self) -> Token:
        token = self.next()
        if token.kind is not TokenKind.IDENT:
            raise ParseError(
                f"expected an identifier, got {token.describe()}",
                token.location,
            )
        return token

    def expect_kind(self, kind: TokenKind) -> Token:
        token = self.next()
        if token.kind is not kind:
            raise ParseError(
                f"expected {kind.value}, got {token.describe()}",
                token.location,
            )
        return token

    def accept_punct(self, spelling: str) -> Token | None:
        if self.peek().is_punct(spelling):
            return self.next()
        return None

    # ------------------------------------------------------------------

    def save(self) -> tuple[int, list[Token]]:
        """Capture the cursor for tentative parsing."""
        return (self.index, list(self.pushback))

    def restore(self, state: tuple[int, list[Token]]) -> None:
        self.index, pushback = state
        self.pushback = list(pushback)
