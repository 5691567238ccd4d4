"""Tests for incremental recompilation (fingerprint diffing).

A persistent :class:`repro.workspace.Workspace` recompiles only the designs
whose fingerprint changed since the last :meth:`~repro.workspace.Workspace.
compile_all`, and reports which of their files changed.
"""

import pytest

from repro.errors import TydiWorkspaceError
from repro.pipeline import CompilationCache, CompileJob
from repro.workspace import Workspace


def job(name: str, width: int, **options) -> CompileJob:
    source = f"""
type data_t = Stream(Bit({width}), d=1);
streamlet pass_s {{ i: data_t in, o: data_t out, }}
impl pass_i of pass_s {{ i => o, }}
top pass_i;
"""
    return CompileJob(name=name, sources=((source, f"{name}.td"),), **options)


BROKEN = CompileJob(
    name="broken",
    sources=(("streamlet s { i: Mystery in, }\nimpl i_impl of s {}\ntop i_impl;", "broken.td"),),
)


def build(ws: Workspace, *jobs: CompileJob):
    """Add (or replace) each job's design, then bring the session up to date."""
    for one in jobs:
        ws.add_job(one, replace=True)
    return ws.compile_all()


def outputs_for(ws: Workspace, name: str, target: str):
    result = ws.cached_result(name)
    return None if result is None else result.outputs.get(target)


class TestIncrementalCompiler:
    def test_first_round_compiles_everything(self):
        report = build(Workspace(), job("a", 8), job("b", 16))
        assert sorted(report.compiled) == ["a", "b"]
        assert report.reused == []
        assert report.ok
        assert set(report.results) == {"a", "b"}

    def test_unchanged_jobs_are_reused_not_recompiled(self):
        ws = Workspace()
        first = build(ws, job("a", 8), job("b", 16))
        second = build(ws, job("a", 8), job("b", 16))
        assert second.compiled == [] and sorted(second.reused) == ["a", "b"]
        # Reuse hands back the very same result objects.
        assert second.results["a"] is first.results["a"]

    def test_only_changed_job_recompiles(self):
        ws = Workspace()
        build(ws, job("a", 8), job("b", 16))
        report = build(ws, job("a", 8), job("b", 32))  # b's source changed
        assert report.compiled == ["b"]
        assert report.reused == ["a"]

    def test_option_change_marks_dirty(self):
        ws = Workspace()
        build(ws, job("a", 8))
        report = build(ws, job("a", 8, sugaring=False))
        assert report.compiled == ["a"]

    def test_removed_designs_are_dropped(self):
        ws = Workspace()
        build(ws, job("a", 8), job("b", 16))
        ws.remove_design("b")
        report = ws.compile_all()
        assert set(report.results) == {"a"}
        assert ws.cached_result("b") is None
        assert ws.design_names == ["a"]

    def test_failed_design_is_retried_next_round(self):
        ws = Workspace()
        report = build(ws, job("a", 8), BROKEN)
        assert not report.ok
        assert "broken" in report.failed and "Mystery" in report.failed["broken"]
        # Same job set again: the good design is reused, the bad one retried.
        again = build(ws, job("a", 8), BROKEN)
        assert again.reused == ["a"]
        assert "broken" in again.failed

    def test_failed_recompile_drops_stale_result(self):
        """A design that compiled once but now fails must not keep serving
        the outdated artefact through cached_result()."""
        ws = Workspace()
        build(ws, job("design", 8))
        assert ws.cached_result("design") is not None
        broken_edit = CompileJob(name="design", sources=BROKEN.sources)
        report = build(ws, broken_edit)
        assert "design" in report.failed
        assert ws.cached_result("design") is None
        assert "design" not in report.results

    def test_fixing_a_failed_design(self):
        ws = Workspace()
        build(ws, BROKEN)
        fixed = build(ws, job("broken", 8))
        assert fixed.compiled == ["broken"] and fixed.ok

    def test_shares_cache_with_other_drivers(self):
        cache = CompilationCache()
        build(Workspace(cache=cache), job("a", 8))
        # A second, fresh workspace still hits the shared cache.
        report = build(Workspace(cache=cache), job("a", 8))
        assert report.compiled == ["a"]
        assert cache.stats.hits == 1

    def test_summary_line(self):
        report = build(Workspace(), job("a", 8))
        assert report.summary() == "1 recompiled, 0 reused, 0 failed"


def multi_file_job(name: str, step_width: int = 8, top_note: str = "") -> CompileJob:
    """A three-file design for the file-granularity invalidation tests."""
    types = (f"type data_t = Stream(Bit({step_width}), d=1);", "types.td")
    stage = ("streamlet pass_s { i: data_t in, o: data_t out, }", "streamlet.td")
    top = (f"impl pass_i of pass_s {{ i => o, }}\ntop pass_i;\n{top_note}", "top.td")
    return CompileJob(name=name, sources=(types, stage, top), include_stdlib=False)


class TestFileGranularity:
    def test_new_design_lists_every_file_as_changed(self):
        report = build(Workspace(), multi_file_job("a"))
        assert sorted(report.changed_files["a"]) == ["streamlet.td", "top.td", "types.td"]
        assert report.unchanged_files["a"] == []

    def test_one_file_edit_is_diffed_at_file_level(self):
        ws = Workspace()
        build(ws, multi_file_job("a"))
        report = build(ws, multi_file_job("a", top_note="// edited"))
        assert report.compiled == ["a"]
        assert report.changed_files["a"] == ["top.td"]
        assert sorted(report.unchanged_files["a"]) == ["streamlet.td", "types.td"]
        assert report.file_summary() == "1 file(s) re-parsed, 2 file(s) reused"

    def test_reused_designs_have_no_file_churn(self):
        ws = Workspace()
        build(ws, multi_file_job("a"))
        report = build(ws, multi_file_job("a"))
        assert report.reused == ["a"]
        assert report.changed_files == {} and report.unchanged_files == {}

    def test_option_only_change_shows_zero_changed_files(self):
        ws = Workspace()
        build(ws, multi_file_job("a"))
        changed_options = multi_file_job("a").with_options(run_drc=False)
        report = build(ws, changed_options)
        assert report.compiled == ["a"]
        assert report.changed_files["a"] == []
        assert len(report.unchanged_files["a"]) == 3

    def test_stage_cache_reuses_unchanged_files_across_update(self):
        """The recompile after a one-file edit re-parses only that file."""
        cache = CompilationCache()
        ws = Workspace(cache=cache)
        build(ws, multi_file_job("a"))
        assert cache.stages.stats.parse_misses == 3
        build(ws, multi_file_job("a", top_note="// edited"))
        assert cache.stages.stats.parse_misses == 4  # only top.td re-parsed
        assert cache.stages.stats.parse_hits == 2

    def test_failed_design_drops_file_memory(self):
        ws = Workspace()
        build(ws, multi_file_job("a"))
        broken = CompileJob(
            name="a", sources=(("streamlet broken {", "types.td"),), include_stdlib=False
        )
        failed = build(ws, broken)
        assert "a" in failed.failed
        # After the failure the design is fully forgotten: the next good
        # round treats every file as new.
        report = build(ws, multi_file_job("a"))
        assert sorted(report.changed_files["a"]) == ["streamlet.td", "top.td", "types.td"]


class TestBackendTargets:
    def test_new_target_dirties_and_outputs_for(self):
        ws = Workspace(cache=CompilationCache())
        first = build(ws, job("a", 8))
        assert first.compiled == ["a"]
        assert outputs_for(ws, "a", "vhdl") is None

        # Requesting a backend changes the job fingerprint: the design is
        # dirty even though no source file changed.
        second = build(ws, job("a", 8, targets=("vhdl",)))
        assert second.compiled == ["a"]
        assert second.changed_files == {"a": []}
        vhdl = outputs_for(ws, "a", "vhdl")
        assert vhdl and all(name.endswith(".vhd") for name in vhdl)
        assert outputs_for(ws, "a", "dot") is None
        assert outputs_for(ws, "missing", "vhdl") is None

        # Unchanged job (same targets) is reused, outputs still served.
        third = build(ws, job("a", 8, targets=("vhdl",)))
        assert third.reused == ["a"]
        assert outputs_for(ws, "a", "vhdl") == vhdl


def test_duplicate_job_names_rejected():
    """A name collision is an error, never a silent last-job-wins replace."""
    ws = Workspace()
    ws.add_job(job("a", 8))
    with pytest.raises(TydiWorkspaceError, match="already exists"):
        ws.add_job(job("a", 16))
