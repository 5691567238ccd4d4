"""Differential safety net for the optimized frontend.

The lexer was rewritten around first-character dispatch tables
(``repro.lang.lexer``) and the AST/token dataclasses gained ``slots=True``
and interned identifier strings.  None of that may change *behaviour*:
this suite pins the optimized frontend against a byte-for-byte copy of the
pre-optimization lexer (kept below as :func:`_reference_tokenize`) and
asserts

* identical token streams (kind, text, span and value) over the stdlib,
  the TPC-H query sources, a fuzzed design corpus and a bank of tricky
  literals -- including the non-ASCII edge cases the dispatch rewrite
  special-cases;
* identical ``TydiSyntaxError`` messages and spans on invalid input;
* an identical end-to-end pipeline: compiling through the *reference*
  lexer (monkeypatched into the parser) produces the same IR text, stage
  logs and diagnostics as the optimized one.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import TydiSyntaxError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind
from repro.queries import ALL_QUERIES
from repro.stdlib.source import STDLIB_SOURCE
from repro.testing import build_random_design
from repro.utils.source import SourceFile

# ---------------------------------------------------------------------------
# The pre-optimization lexer, verbatim (longest-first linear operator scan).
# This is the behavioural reference the dispatch-table lexer must match.
# ---------------------------------------------------------------------------

_REFERENCE_OPERATORS: list[tuple[str, TokenKind]] = [
    ("=>", TokenKind.ARROW),
    ("->", TokenKind.RANGE),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NEQ),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("&&", TokenKind.AND),
    ("||", TokenKind.OR),
    ("{", TokenKind.LBRACE),
    ("}", TokenKind.RBRACE),
    ("(", TokenKind.LPAREN),
    (")", TokenKind.RPAREN),
    ("[", TokenKind.LBRACKET),
    ("]", TokenKind.RBRACKET),
    ("<", TokenKind.LANGLE),
    (">", TokenKind.RANGLE),
    (",", TokenKind.COMMA),
    (";", TokenKind.SEMICOLON),
    (":", TokenKind.COLON),
    (".", TokenKind.DOT),
    ("@", TokenKind.AT),
    ("=", TokenKind.ASSIGN),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.STAR),
    ("/", TokenKind.SLASH),
    ("%", TokenKind.PERCENT),
    ("^", TokenKind.CARET),
    ("!", TokenKind.NOT),
]


def _reference_tokenize(text: str, filename: str = "<string>") -> list[Token]:
    source = SourceFile(text, filename)
    tokens: list[Token] = []
    i = 0
    n = len(text)

    while i < n:
        ch = text[i]

        if ch in " \t\r\n":
            i += 1
            continue

        if text.startswith("//", i):
            end = text.find("\n", i)
            i = n if end == -1 else end + 1
            continue

        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                raise TydiSyntaxError("unterminated block comment", source.span(i, n))
            i = end + 2
            continue

        if ch in "\"'":
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
                raise TydiSyntaxError("unterminated string literal", source.span(i, n))
            tokens.append(
                Token(TokenKind.STRING, text[i : j + 1], source.span(i, j + 1), "".join(chars))
            )
            i = j + 1
            continue

        if ch.isdigit():
            j = i
            is_float = False
            while j < n and (text[j].isdigit() or text[j] == "_"):
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and (text[j].isdigit() or text[j] == "_"):
                    j += 1
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
            literal = text[i:j].replace("_", "")
            if is_float:
                tokens.append(Token(TokenKind.FLOAT, text[i:j], source.span(i, j), float(literal)))
            else:
                tokens.append(Token(TokenKind.INT, text[i:j], source.span(i, j), int(literal)))
            i = j
            continue

        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token(TokenKind.IDENT, word, source.span(i, j), word))
            i = j
            continue

        matched = False
        for literal, kind in _REFERENCE_OPERATORS:
            if text.startswith(literal, i):
                tokens.append(Token(kind, literal, source.span(i, i + len(literal))))
                i += len(literal)
                matched = True
                break
        if matched:
            continue

        raise TydiSyntaxError(f"unexpected character {ch!r}", source.span(i, i + 1))

    tokens.append(Token(TokenKind.EOF, "", source.span(n, n)))
    return tokens


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------


def _fuzzed_designs(count: int = 12) -> list[tuple[str, str]]:
    rng = random.Random(20260808)
    sources: list[tuple[str, str]] = []
    for _ in range(count):
        sources.extend(build_random_design(rng))
    return sources


TRICKY_SOURCES = [
    "x = 1_000_000; y = 3.14; z = 1e9; w = 2.5e-3; v = 10E+2;",
    "a=1..5; b = 0.5.c; d = 9_;",  # dots vs float boundaries
    's = "hi\\n\\t\\\\\\"there"; t = \'it\\\'s\';',
    "a=>b; a->b; a==b; a!=b; a<=b; a>=b; a&&b; a||b; a<b>c;",
    "impl/*inline*/x of// trailing\ny {}",
    "/* multi\nline\ncomment */ streamlet s { }",
    "αβγ = 42; café_au_lait = δ;",  # non-ASCII identifiers
    "x = ١٢٣; munge = ٣.٠;",  # non-ASCII (Arabic-Indic) digits
    "_underscore __dunder x_1_y",
    "",  # empty source: EOF only
    "   \t\r\n  ",  # whitespace only
]

INVALID_SOURCES = [
    "x = ?",
    "a # b",
    '"unterminated',
    "'also unterminated",
    "/* never closed",
    "x = \x00",
]


def _corpus() -> list[tuple[str, str]]:
    sources: list[tuple[str, str]] = [(STDLIB_SOURCE, "std.td")]
    for query in ALL_QUERIES:
        sources.extend(query.sources())
    sources.extend(_fuzzed_designs())
    sources.extend((text, f"tricky{i}.td") for i, text in enumerate(TRICKY_SOURCES))
    return sources


# ---------------------------------------------------------------------------
# Token-stream equivalence
# ---------------------------------------------------------------------------


class TestTokenStreams:
    def test_corpus_token_streams_identical(self):
        corpus = _corpus()
        assert len(corpus) > 40  # stdlib + 5 queries + fuzz + tricky bank
        for text, filename in corpus:
            assert tokenize(text, filename) == _reference_tokenize(text, filename), filename

    def test_invalid_sources_raise_identically(self):
        for text in INVALID_SOURCES:
            with pytest.raises(TydiSyntaxError) as optimized:
                tokenize(text, "bad.td")
            with pytest.raises(TydiSyntaxError) as reference:
                _reference_tokenize(text, "bad.td")
            assert str(optimized.value) == str(reference.value)
            assert optimized.value.span == reference.value.span

    def test_operator_tables_cover_reference(self):
        from repro.lang import lexer

        assert {
            **lexer._TWO_CHAR_OPERATORS,
            **lexer._ONE_CHAR_OPERATORS,
        } == dict(_REFERENCE_OPERATORS)


# ---------------------------------------------------------------------------
# End-to-end pipeline equivalence (reference lexer monkeypatched in)
# ---------------------------------------------------------------------------


def _render_result(result) -> tuple:
    """Everything observable about a compile, in comparable form."""
    return (
        result.ir_text(),
        [(s.name, s.detail) for s in result.stages],
        [str(d) for d in result.diagnostics],
        {target: files for target, files in sorted(result.outputs.items())},
    )


class TestPipelineDifferential:
    def _compile_both(self, monkeypatch, sources, options):
        from repro.lang import compile as compile_mod
        from repro.lang import parser
        from repro.lang.compile import run_pipeline

        compile_mod._parsed_stdlib.cache_clear()
        optimized = run_pipeline(sources, options)
        monkeypatch.setattr(parser, "tokenize", _reference_tokenize)
        compile_mod._parsed_stdlib.cache_clear()
        reference = run_pipeline(sources, options)
        monkeypatch.undo()
        compile_mod._parsed_stdlib.cache_clear()
        return optimized, reference

    def test_fuzzed_designs_compile_identically(self, monkeypatch):
        from repro.lang.compile import CompileOptions

        rng = random.Random(97)
        for _ in range(4):
            sources = build_random_design(rng)
            optimized, reference = self._compile_both(
                monkeypatch, sources, CompileOptions(targets=("vhdl",))
            )
            assert _render_result(optimized) == _render_result(reference)

    def test_tpch_query_compiles_identically(self, monkeypatch):
        from repro.lang.compile import CompileOptions

        query = ALL_QUERIES[0]
        optimized, reference = self._compile_both(
            monkeypatch, query.sources(), CompileOptions(top=query.top)
        )
        assert _render_result(optimized) == _render_result(reference)
