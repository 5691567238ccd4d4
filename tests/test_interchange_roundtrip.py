"""Round-trip differential suite of the Tydi-IR interchange subsystem.

The correctness spine is ``emit(ingest(emit(P))) == emit(P)`` --
byte-identical documents *and* byte-identical downstream backend outputs
-- proven over fuzzed designs, the TPC-H query suite, the staged
pipeline's memoised ingest tier, a live workspace, and the wire
(``open_ir_design`` against a running ``tydi-serve``, threaded and
pooled).  The ingest error envelope (:class:`~repro.errors.TydiIngestError`,
stage ``"ingest"``, ``file:line:col`` spans) gets the same local-vs-remote
treatment.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.backends import get_backend
from repro.errors import TydiIngestError
from repro.interchange import (
    FORMAT_VERSION,
    compile_ir_document,
    emit_document,
    load_ir,
    roundtrip_document,
)
from repro.lang.compile import compile_sources
from repro.testing import build_chain_design, build_random_design

#: Fuzzed designs per parametrised round-trip test.
NUM_DESIGNS = 12

#: Backends whose outputs must survive the round trip byte-identically.
ROUNDTRIP_BACKENDS = ("tydi-ir", "vhdl", "verilog", "ir", "dot")

SEEDS = tuple(range(NUM_DESIGNS))


@functools.lru_cache(maxsize=None)
def _fuzzed_project(seed: int):
    sources = (
        build_chain_design(6)
        if seed == 0  # one deterministic shape among the fuzzed ones
        else build_random_design(random.Random(4200 + seed))
    )
    return compile_sources(sources, include_stdlib=False).project


# -- the spine: emit(ingest(emit(P))) == emit(P) -------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_document_round_trips_byte_identical(seed):
    project = _fuzzed_project(seed)
    document = emit_document(project)
    assert roundtrip_document(project) == document


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("backend_name", ROUNDTRIP_BACKENDS)
def test_backend_outputs_survive_round_trip(seed, backend_name):
    project = _fuzzed_project(seed)
    ingested = load_ir(emit_document(project))
    backend = get_backend(backend_name)
    assert list(backend.emit(ingested).items()) == list(backend.emit(project).items())


def test_tpch_queries_round_trip(compiled_queries):
    for name, result in compiled_queries.items():
        document = emit_document(result.project)
        ingested = load_ir(document)
        assert emit_document(ingested) == document, f"{name}: document drifted"
        for backend_name in ("vhdl", "tydi-ir"):
            backend = get_backend(backend_name)
            assert backend.emit(ingested) == backend.emit(result.project), (
                f"{name}: {backend_name} outputs drifted across the round trip"
            )


def test_tydi_ir_backend_is_the_document_emitter():
    """``tydi-ir``'s assembled file is exactly :func:`emit_document` --
    the property that lets a cached emission be re-ingested verbatim."""
    project = _fuzzed_project(0)
    backend = get_backend("tydi-ir")
    assert backend.emit(project) == {f"{project.name}.tir": emit_document(project)}
    units = {
        name: backend.emit_unit(project, impl)
        for name, impl in project.implementations.items()
    }
    assembled = backend.assemble(project, backend.emit_shared(project), units)
    assert assembled == backend.emit(project)


def test_document_prelude_declares_format_version():
    document = emit_document(_fuzzed_project(0))
    assert document.startswith(f"// Tydi-IR interchange, format v{FORMAT_VERSION}\n")


# -- the ingest pipeline and its error envelopes -------------------------------


def test_compile_ir_document_matches_direct_backend_emission():
    project = _fuzzed_project(1)
    document = emit_document(project)
    result = compile_ir_document(document, {"targets": ("vhdl", "verilog")})
    assert result.outputs["vhdl"] == get_backend("vhdl").emit(project)
    assert result.outputs["verilog"] == get_backend("verilog").emit(project)
    assert [stage.name for stage in result.stages][0] == "ingest"


def test_garbage_document_raises_ingest_error_with_span():
    with pytest.raises(TydiIngestError, match=r"broken\.tir:1:1") as excinfo:
        compile_ir_document("definitely not a document", filename="broken.tir")
    assert excinfo.value.stage == "ingest"


def test_missing_top_is_a_referential_ingest_error():
    document = emit_document(_fuzzed_project(2))
    broken = document.replace("top ", "top nope_", 1)
    with pytest.raises(TydiIngestError, match="nope_"):
        load_ir(broken, filename="broken.tir")


def test_future_format_version_is_rejected():
    document = emit_document(_fuzzed_project(0))
    bumped = document.replace(
        f"format v{FORMAT_VERSION}", f"format v{FORMAT_VERSION + 1}", 1
    )
    with pytest.raises(TydiIngestError, match=f"v{FORMAT_VERSION + 1}"):
        load_ir(bumped)


def test_empty_document_is_an_ingest_error():
    with pytest.raises(TydiIngestError):
        load_ir("")


# -- the staged pipeline: memoised ingest tier ---------------------------------


def test_stage_cache_compile_ir_matches_uncached_and_memoises(tmp_path):
    from repro.pipeline import StageCache

    project = _fuzzed_project(3)
    document = emit_document(project)
    options = {"targets": ("vhdl", "tydi-ir")}
    reference = compile_ir_document(document, options)

    cache = StageCache(cache_dir=tmp_path)
    cold = cache.compile_ir(document, options)
    assert cold.outputs == reference.outputs
    stats = cache.stats_snapshot()
    assert stats["ingest_misses"] == 1 and stats["ingest_hits"] == 0

    warm = cache.compile_ir(document, options)
    assert warm.outputs == reference.outputs
    stats = cache.stats_snapshot()
    assert stats["ingest_hits"] == 1
    # The backend-unit tier served the warm emission entirely.
    assert stats["backend_hits"] >= len(project.implementations)

    # A fresh session over the same cache_dir rides the disk tier.
    fresh = StageCache(cache_dir=tmp_path)
    again = fresh.compile_ir(document, options)
    assert again.outputs == reference.outputs
    assert fresh.stats_snapshot()["ingest_hits"] == 1


# -- the workspace frontend ----------------------------------------------------


class TestWorkspaceIrDesigns:
    def _workspace(self, tmp_path):
        from repro.pipeline import CompilationCache
        from repro.workspace import Workspace

        return Workspace(cache=CompilationCache(cache_dir=tmp_path))

    def test_outputs_match_direct_emission(self, tmp_path):
        project = _fuzzed_project(5)
        document = emit_document(project)
        workspace = self._workspace(tmp_path)
        workspace.add_ir_design("mydesign", document, {"targets": ("vhdl", "tydi-ir")})
        assert workspace.outputs("mydesign", "vhdl") == get_backend("vhdl").emit(project)
        # The emitted document round-trips through the workspace verbatim.
        assert workspace.outputs("mydesign", "tydi-ir") == {
            f"{project.name}.tir": document
        }
        stages = [s.name for s in workspace.result("mydesign").stages]
        assert stages[0] == "ingest" and "parse" not in stages

    def test_kind_salts_the_fingerprint(self, tmp_path):
        """The same bytes under different frontends must not share identity."""
        document = emit_document(_fuzzed_project(5))
        workspace = self._workspace(tmp_path)
        workspace.add_ir_design("as_ir", document)
        workspace.add_design("as_lang", ((document, "as_ir.tir"),))
        # Same single-file content; the kind keeps the fingerprints apart.
        assert workspace.fingerprint("as_ir") != workspace.fingerprint("as_lang")

    def test_compile_all_isolates_broken_documents(self, tmp_path):
        document = emit_document(_fuzzed_project(6))
        workspace = self._workspace(tmp_path)
        workspace.add_ir_design("good", document, {"targets": ("vhdl",)})
        workspace.add_ir_design("bad", "not a document")
        report = workspace.compile_all()
        assert "good" in report.compiled
        assert "bad" in report.failed and "1:1" in report.failed["bad"]
        # The inline IR compiles ride along in the batch view for the CLI.
        by_name = {entry.name: entry for entry in report.batch.results}
        assert by_name["good"].ok and not by_name["bad"].ok
        assert by_name["bad"].error_stage == "ingest"

    def test_update_file_swaps_the_document(self, tmp_path):
        first = emit_document(_fuzzed_project(7))
        second = emit_document(_fuzzed_project(8))
        workspace = self._workspace(tmp_path)
        workspace.add_ir_design("design", first, {"targets": ("tydi-ir",)})
        (emitted_first,) = workspace.outputs("design", "tydi-ir").values()
        assert emitted_first == first
        (filename,) = workspace.files("design")
        workspace.update_file("design", filename, second)
        assert not workspace.is_fresh("design")
        (emitted_second,) = workspace.outputs("design", "tydi-ir").values()
        assert emitted_second == second

    def test_report_exposes_the_design_kind(self, tmp_path):
        workspace = self._workspace(tmp_path)
        workspace.add_ir_design("irdesign", emit_document(_fuzzed_project(5)))
        assert workspace.report()["designs"]["irdesign"]["kind"] == "ir"


# -- over the wire: open_ir_design against a live server -----------------------


@pytest.mark.parametrize("workers", [0, 2], ids=["threads", "pool"])
def test_round_trip_over_the_wire(workers, tmp_path):
    from repro.server import CompileClient, CompileService, ServerThread

    if workers:
        from repro.server.pool import fork_available

        if not fork_available():  # pragma: no cover - non-fork platforms
            pytest.skip("worker pool requires the fork start method")

    project = _fuzzed_project(9)
    document = emit_document(project)
    want_vhdl = get_backend("vhdl").emit(project)

    service = CompileService(workers=workers, cache_dir=str(tmp_path))
    with service:
        with ServerThread(service) as server:
            with CompileClient(*server.address, connect_retry_for=5) as client:
                opened = client.open_ir_design(
                    "wired", document, options={"targets": ("vhdl", "tydi-ir")}
                )
                assert opened["files"] == ["wired.tir"]
                assert client.get_outputs("wired", "vhdl") == want_vhdl
                # The wire-served document is byte-identical to the input:
                # emit(ingest over the wire) == emit(P).
                served = client.get_outputs("wired", "tydi-ir")
                assert served == {f"{project.name}.tir": document}
                client.shutdown()


def test_ingest_error_envelope_over_the_wire():
    from repro.server import CompileClient, CompileService, RemoteCompileError, ServerThread

    with CompileService() as service:
        with ServerThread(service) as server:
            with CompileClient(*server.address, connect_retry_for=5) as client:
                client.open_ir_design("broken", "garbage in")
                with pytest.raises(RemoteCompileError) as excinfo:
                    client.get_ir("broken")
                assert excinfo.value.remote_stage == "ingest"
                assert "broken.tir" in str(excinfo.value)
                # A design that does not compile answers get_diagnostics
                # with the same structured envelope (existing semantics).
                with pytest.raises(RemoteCompileError) as diag_info:
                    client.get_diagnostics("broken")
                assert diag_info.value.remote_stage == "ingest"
                client.shutdown()


def test_pool_replays_ir_designs_after_a_crash():
    import os
    import signal

    from repro.server import CompileClient, CompileService, ServerThread
    from repro.server.pool import fork_available

    if not fork_available():  # pragma: no cover - non-fork platforms
        pytest.skip("worker pool requires the fork start method")

    project = _fuzzed_project(10)
    document = emit_document(project)
    with CompileService(workers=2) as service:
        with ServerThread(service) as server:
            with CompileClient(*server.address, connect_retry_for=5) as client:
                client.open_ir_design("phoenix", document, options={"targets": ("tydi-ir",)})
                before = client.get_outputs("phoenix", "tydi-ir")

                shard = service.pool.shard_of("phoenix")
                os.kill(service.pool.workers[shard].proc.pid, signal.SIGKILL)

                # The respawned worker replays the mirror through
                # open_ir_design; the caller sees identical outputs.
                assert client.get_outputs("phoenix", "tydi-ir") == before
                assert service.pool.total_restarts == 1
                client.shutdown()
