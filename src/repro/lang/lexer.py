"""Hand-written lexer for Tydi-lang.

The original compiler uses a Pest PEG grammar; we use a single-pass scanner
built around first-character dispatch:

* one-character and two-character operators live in dict tables consulted at
  most twice per token (the two-character table first, so ``=>`` wins over
  ``=``) instead of the historical longest-first linear scan over every
  operator literal;
* identifier, number and whitespace runs are consumed through frozen ASCII
  character-class sets (C-speed membership tests) with a per-character
  Unicode fallback that replicates the original ``str.isalpha`` /
  ``str.isdigit`` / ``str.isalnum`` checks exactly, so non-ASCII source
  bytes tokenize byte-identically to the pre-dispatch scanner
  (``tests/test_frontend_differential.py`` pins this against a reference
  implementation);
* identifier text is passed through :func:`sys.intern`, so the thousands of
  repeated names a design mentions (port/instance/type identifiers) share
  one string object -- downstream ``==`` comparisons on hot evaluator paths
  short-circuit on pointer equality.

Comments (``//`` line and ``/* */`` block) and whitespace are skipped; every
other character must belong to a token or a
:class:`~repro.errors.TydiSyntaxError` is raised with the offending location.
"""

from __future__ import annotations

import sys

from repro.errors import TydiSyntaxError
from repro.lang.tokens import Token, TokenKind
from repro.utils.source import SourceFile

#: Two-character operators, consulted before the one-character table.
_TWO_CHAR_OPERATORS: dict[str, TokenKind] = {
    "=>": TokenKind.ARROW,
    "->": TokenKind.RANGE,
    "==": TokenKind.EQ,
    "!=": TokenKind.NEQ,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
}

#: Single-character operators and punctuation.
_ONE_CHAR_OPERATORS: dict[str, TokenKind] = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "<": TokenKind.LANGLE,
    ">": TokenKind.RANGLE,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMICOLON,
    ":": TokenKind.COLON,
    ".": TokenKind.DOT,
    "@": TokenKind.AT,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "^": TokenKind.CARET,
    "!": TokenKind.NOT,
}

# ASCII character classes as frozensets: membership is a hash probe instead
# of a method call per character.  Non-ASCII characters fall back to the
# exact Unicode predicates the original scanner used.
_WHITESPACE = frozenset(" \t\r\n")
_ASCII_DIGITS = frozenset("0123456789")
_ASCII_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ASCII_IDENT_CONT = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")

_intern = sys.intern


def _scan_number(text: str, i: int, n: int) -> tuple[int, bool]:
    """Scan a number literal starting at ``i``; returns (end, is_float).

    Continuation uses the ASCII digit set first and falls back to
    ``str.isdigit`` so non-ASCII digit characters behave exactly as in the
    pre-dispatch scanner (including its failure modes).
    """
    j = i
    is_float = False
    while j < n:
        c = text[j]
        if c in _ASCII_DIGITS or c == "_" or c.isdigit():
            j += 1
        else:
            break
    if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
        is_float = True
        j += 1
        while j < n:
            c = text[j]
            if c in _ASCII_DIGITS or c == "_" or c.isdigit():
                j += 1
            else:
                break
    if j < n and text[j] in "eE" and (
        (j + 1 < n and text[j + 1].isdigit())
        or (j + 2 < n and text[j + 1] in "+-" and text[j + 2].isdigit())
    ):
        is_float = True
        j += 1
        if text[j] in "+-":
            j += 1
        while j < n and text[j].isdigit():
            j += 1
    return j, is_float


def _scan_identifier(text: str, i: int, n: int) -> int:
    """Scan an identifier starting at ``i``; returns the end offset."""
    j = i + 1
    while j < n:
        c = text[j]
        if c in _ASCII_IDENT_CONT:
            j += 1
        elif c >= "\x80" and c.isalnum():
            # Unicode alphanumeric continuation, as str.isalnum() defines it.
            j += 1
        else:
            break
    return j


def tokenize(text: str, filename: str = "<string>") -> list[Token]:
    """Tokenize Tydi-lang source text into a list of tokens ending with EOF."""
    source = SourceFile(text, filename)
    span = source.span
    tokens: list[Token] = []
    append = tokens.append
    i = 0
    n = len(text)

    ident_kind = TokenKind.IDENT
    while i < n:
        ch = text[i]

        # Whitespace (consume the whole run in one inner loop).
        if ch in _WHITESPACE:
            i += 1
            while i < n and text[i] in _WHITESPACE:
                i += 1
            continue

        # Identifier / keyword
        if ch in _ASCII_IDENT_START:
            j = _scan_identifier(text, i, n)
            word = _intern(text[i:j])
            append(Token(ident_kind, word, span(i, j), word))
            i = j
            continue

        # Number literal (integer or float)
        if ch in _ASCII_DIGITS:
            j, is_float = _scan_number(text, i, n)
            literal = text[i:j].replace("_", "")
            if is_float:
                append(Token(TokenKind.FLOAT, text[i:j], span(i, j), float(literal)))
            else:
                append(Token(TokenKind.INT, text[i:j], span(i, j), int(literal)))
            i = j
            continue

        # Comments and the slash operator share a first character.
        if ch == "/":
            nxt = text[i + 1] if i + 1 < n else ""
            if nxt == "/":
                end = text.find("\n", i)
                i = n if end == -1 else end + 1
                continue
            if nxt == "*":
                end = text.find("*/", i + 2)
                if end == -1:
                    raise TydiSyntaxError("unterminated block comment", span(i, n))
                i = end + 2
                continue
            append(Token(TokenKind.SLASH, "/", span(i, i + 1)))
            i += 1
            continue

        # String literal (single or double quoted, with backslash escapes)
        if ch == '"' or ch == "'":
            quote = ch
            j = i + 1
            chars: list[str] = []
            while j < n and text[j] != quote:
                if text[j] == "\\" and j + 1 < n:
                    escape = text[j + 1]
                    chars.append({"n": "\n", "t": "\t", "\\": "\\", quote: quote}.get(escape, escape))
                    j += 2
                else:
                    chars.append(text[j])
                    j += 1
            if j >= n:
                raise TydiSyntaxError("unterminated string literal", span(i, n))
            append(Token(TokenKind.STRING, text[i : j + 1], span(i, j + 1), "".join(chars)))
            i = j + 1
            continue

        # Operators and punctuation: two-character table first.
        kind = _TWO_CHAR_OPERATORS.get(text[i : i + 2])
        if kind is not None:
            append(Token(kind, text[i : i + 2], span(i, i + 2)))
            i += 2
            continue
        kind = _ONE_CHAR_OPERATORS.get(ch)
        if kind is not None:
            append(Token(kind, ch, span(i, i + 1)))
            i += 1
            continue

        # Non-ASCII fallback, in the original scanner's check order:
        # number first (str.isdigit), then identifier (str.isalpha).
        if ch >= "\x80":
            if ch.isdigit():
                j, is_float = _scan_number(text, i, n)
                literal = text[i:j].replace("_", "")
                if is_float:
                    append(Token(TokenKind.FLOAT, text[i:j], span(i, j), float(literal)))
                else:
                    append(Token(TokenKind.INT, text[i:j], span(i, j), int(literal)))
                i = j
                continue
            if ch.isalpha():
                j = _scan_identifier(text, i, n)
                word = _intern(text[i:j])
                append(Token(ident_kind, word, span(i, j), word))
                i = j
                continue

        raise TydiSyntaxError(f"unexpected character {ch!r}", span(i, i + 1))

    append(Token(TokenKind.EOF, "", span(n, n)))
    return tokens
