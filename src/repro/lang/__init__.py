"""Tydi-lang frontend: lexer, parser, evaluator, sugaring, DRC and compile driver.

The public entry point is :func:`repro.lang.compile.compile_project`, which
runs the full frontend pipeline of Figure 3 in the paper:

    source text -> parser -> AST
        -> evaluation (variables, templates, for/if/assert expansion)
        -> sugaring (automatic duplicator/voider insertion)
        -> design rule check
        -> Tydi-IR (:class:`repro.ir.Project`)
"""

from repro import lazy_exports

__all__ = [
    "CompilationResult",
    "CompileOptions",
    "compile_project",
    "compile_sources",
    "parse_source",
    "tokenize",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.lang.compile": (
            "CompilationResult",
            "CompileOptions",
            "compile_project",
            "compile_sources",
        ),
        "repro.lang.parser": ("parse_source",),
        "repro.lang.lexer": ("tokenize",),
    },
)
