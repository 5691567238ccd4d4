"""repro: a Python reproduction of "Tydi-lang: A Language for Typed Streaming Hardware".

The package is organised as a toolchain (Figure 1 of the paper):

* :mod:`repro.spec`   -- the Tydi-spec logical type system.
* :mod:`repro.lang`   -- the Tydi-lang frontend (parser, evaluator, templates,
  sugaring, design rule check) producing Tydi-IR.
* :mod:`repro.ir`     -- the Tydi-IR data model and textual emitter.
* :mod:`repro.backends` -- the pluggable backend registry (``vhdl``,
  ``ir``, ``dot``) behind the Tydi-IR -> output boundary.
* :mod:`repro.vhdl`   -- the Tydi-IR to VHDL backend.
* :mod:`repro.stdlib` -- the Tydi-lang standard library and its hard-coded
  RTL generators.
* :mod:`repro.sim`    -- the event-driven simulator, bottleneck/deadlock
  analysis and testbench generation (Section V).
* :mod:`repro.arrow`  -- Arrow-style schemas, columnar datasets, the
  Fletcher-equivalent interface generator and the TPC-H substrate.
* :mod:`repro.sql`    -- a SQL subset frontend and the SQL -> Tydi-lang
  translator.
* :mod:`repro.queries`-- hand-written Tydi-lang sources for the TPC-H queries
  evaluated in the paper.
* :mod:`repro.report` -- LoC accounting and regeneration of the paper's
  tables and figures.

Typical one-shot use::

    from repro.lang import compile_project
    from repro.vhdl import generate_vhdl

    result = compile_project(source_text, top="my_top")
    vhdl_files = generate_vhdl(result.project)

Session use (the canonical API for anything long-lived -- editors,
services, watch loops; see ``docs/workspace.md``)::

    from repro.workspace import Workspace

    ws = Workspace(cache_dir=".tydi-cache")
    ws.add_design("my_design", {"top.td": source_text})
    print(ws.ir("my_design"))          # lazy, memoised query
    ws.update_file("my_design", "top.td", edited_text)
    print(ws.ir("my_design"))          # recompiles only what changed
"""

import importlib
import sys
from typing import Callable, Mapping

__version__ = "1.1.0"

__all__ = [
    "CompilationResult",
    "CompileOptions",
    "Workspace",
    "compile_project",
    "compile_sources",
    "__version__",
]


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """PEP 562 ``__getattr__``/``__dir__`` hooks that re-export lazily.

    ``exports`` maps a submodule's full name to the names the package
    re-exports from it.  A name's submodule is imported on first access
    (``from package import name`` included) and the value is then bound
    on the package, so later lookups are plain attribute reads.  Any other
    public attribute is tried as a submodule, which keeps
    ``package.submodule`` working without an explicit import, as it did
    when the package imported its submodules eagerly.

    This is what lets e.g. ``import repro.cli`` or a whole-result cache hit
    run without loading the parser, the evaluator or the emitters.
    """
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        owner = owners.get(name)
        if owner is not None:
            value = getattr(importlib.import_module(owner), name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.lang.compile": (
            "CompilationResult",
            "CompileOptions",
            "compile_project",
            "compile_sources",
        ),
        "repro.workspace": ("Workspace",),
    },
)
