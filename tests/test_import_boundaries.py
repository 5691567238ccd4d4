"""Import boundaries: each entry point loads only the modules it runs.

Every case starts a fresh interpreter (``sys.executable`` with the source
tree on ``PYTHONPATH``), because in this process the rest of the suite has
long since imported everything.  The child runs a snippet and reports the
loaded module names as JSON; the assertions are on that set.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SOURCE = """
type byte_t = Stream(Bit(8), d=1);
streamlet echo_s { i: byte_t in, o: byte_t out, }
impl echo_i of echo_s { i => o, }
top echo_i;
"""

#: The packages whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.lang",
    "repro.ir",
    "repro.spec",
    "repro.pipeline",
    "repro.server",
    "repro.backends",
)

#: Modules a whole-result cache hit has no use for.
NOT_ON_A_HIT = (
    "repro.lang.lexer",
    "repro.lang.parser",
    "repro.lang.evaluate",
    "repro.lang.expr",
    "repro.ir.emit",
    "repro.vhdl.backend",
    "repro.verilog.backend",
    "multiprocessing",
    "concurrent.futures.process",
)

REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def _loaded_after(snippet: str, cwd: Path | None = None) -> set[str]:
    """The module names loaded once ``snippet`` ran in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", f"{snippet}\n{REPORT}"],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stdout.splitlines()[-1]))


def _tree(root: Path) -> dict[Path, bytes]:
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def _repro_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name == "repro" or name.startswith("repro.")}


def test_importing_the_cli_loads_only_the_cli():
    assert _repro_modules(_loaded_after("import repro.cli")) == {"repro", "repro.cli"}


def test_whole_result_hit_skips_the_frontend_and_emitters(tmp_path):
    from repro.cli import main

    (tmp_path / "echo.td").write_text(SOURCE)
    args = [
        "echo.td",
        "--target", "vhdl",
        "--target", "verilog",
        "--target", "tydi-ir",
        "--cache-dir", "cache",
        "--json",
    ]
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert main([*args, "--out-dir", "cold"]) == 0
    finally:
        os.chdir(cwd)

    snippet = (
        "import contextlib, io, json\n"
        "from repro.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert main({[*args, '--out-dir', 'hit']!r}) == 0\n"
        "cache = json.loads(out.getvalue())['cache']\n"
        "assert (cache['hits'], cache['misses'], cache['disk_hits']) == (1, 0, 1), cache\n"
    )
    loaded = _loaded_after(snippet, cwd=tmp_path)
    unexpected = sorted(
        name
        for name in loaded
        if name in NOT_ON_A_HIT or name.startswith("repro.interchange")
    )
    assert unexpected == []
    cold = _tree(tmp_path / "cold")
    assert cold and _tree(tmp_path / "hit") == cold


def test_cache_daemon_does_not_load_the_compiler():
    loaded = _repro_modules(_loaded_after("import repro.server.cli, repro.server.cachesvc"))
    unexpected = sorted(
        name
        for name in loaded
        if name.startswith("repro.lang.")
        or name == "repro.workspace"
        or name in ("repro.server.service", "repro.server.pool", "repro.server.worker")
    )
    assert unexpected == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_public_surface_resolves(package):
    snippet = (
        "import importlib\n"
        f"package = importlib.import_module({package!r})\n"
        "missing = [name for name in package.__all__ if not hasattr(package, name)]\n"
        "assert not missing, missing\n"
        "namespace = {}\n"
        f"exec('from {package} import *', namespace)\n"
        "assert set(package.__all__) <= set(namespace), sorted(set(package.__all__) - set(namespace))\n"
        "try:\n"
        "    package.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')\n"
    )
    _loaded_after(snippet)


def test_re_exports_are_the_submodule_objects():
    import repro
    import repro.ir
    import repro.ir.model
    import repro.lang.compile
    import repro.pipeline.cache

    assert repro.CompilationResult is repro.lang.compile.CompilationResult
    assert repro.ir.Project is repro.ir.model.Project
    assert repro.pipeline.CompilationCache is repro.pipeline.cache.CompilationCache


def test_lazy_packages_list_and_reach_what_they_export():
    loaded = _loaded_after(
        "import sys\n"
        "import repro.ir\n"
        "assert {'Project', 'emit_project', 'Testbench'} <= set(dir(repro.ir))\n"
        "assert 'repro.ir.emit' not in sys.modules\n"
        "assert repro.ir.emit.emit_project is repro.ir.emit_project\n"
        "import repro\n"
        "assert repro.spec.Bit is repro.spec.logical_types.Bit\n"
    )
    assert "repro.ir.emit" in loaded


def test_backend_lookup_loads_only_the_named_builtin():
    loaded = _loaded_after("from repro.backends import backend_class\nbackend_class('vhdl')")
    assert "repro.backends.vhdl" in loaded
    others = {"repro.backends.dot", "repro.backends.ir_text", "repro.backends.tydi_ir", "repro.backends.verilog"}
    assert not others & loaded


def test_builtin_names_are_taken_before_their_modules_load():
    _loaded_after(
        "from repro.backends import Backend, available_backends, register_backend\n"
        "from repro.errors import TydiBackendError\n"
        "class FakeDot(Backend):\n"
        "    name = 'dot'\n"
        "try:\n"
        "    register_backend(FakeDot)\n"
        "except TydiBackendError as exc:\n"
        "    assert 'already registered' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('a built-in name was taken over')\n"
        "assert {'dot', 'ir', 'tydi-ir', 'verilog', 'vhdl'} <= set(available_backends())\n"
    )
