"""Differential harness: the staged/cached pipeline == a cold monolithic compile.

The property that makes every future cache change safe: for any design and
any warm/cold cache state, compiling through the per-stage cache
(:class:`repro.pipeline.stages.StageCache`) must produce **byte-identical**
Tydi-IR, diagnostics and stage logs to a cold monolithic
``compile_sources`` run on the same inputs.

The harness generates randomized multi-file designs
(:func:`tests.conftest.build_random_design`), applies randomized
single-file edits (:func:`tests.conftest.mutate_design`), and checks the
equivalence across 50+ seeded cases, in every cache temperature that can
occur in practice:

* cold stage cache (first compile of a design),
* warm per-file ASTs + warm evaluate snapshot (recompile, nothing changed
  at whole-result level but the whole-result tier was bypassed),
* warm ASTs for N-1 files after a one-file edit (the motivating case),
* warm evaluate snapshot reused across downstream-option changes
  (``run_drc`` / ``sugaring`` flipped).
"""

from __future__ import annotations

import random

import pytest

from repro.testing import build_random_design, mutate_design

from repro.lang.compile import compile_sources
from repro.pipeline import CompilationCache, StageCache


def observable(result) -> dict:
    """Everything a compilation's consumers can observe, as comparable bytes."""
    return {
        "ir": result.ir_text(),
        "diagnostics": [str(d) for d in result.diagnostics],
        "stages": [str(s) for s in result.stages],
        "stage_names": result.stage_names(),
        "statistics": result.project.statistics(),
        "sugaring": result.sugaring.summary() if result.sugaring else None,
        "drc": result.drc.summary() if result.drc else None,
        "units": [(u.filename, u.package, len(u.declarations)) for u in result.units],
    }


def assert_equivalent(staged, monolithic, context: str) -> None:
    staged_view, mono_view = observable(staged), observable(monolithic)
    for field in staged_view:
        assert staged_view[field] == mono_view[field], (
            f"{context}: staged != monolithic on {field!r}"
        )


# 52 randomized seeds: each runs the full cold -> warm -> edit scenario, so
# the suite covers 200+ staged-vs-monolithic comparisons in total.
@pytest.mark.parametrize("seed", range(52))
def test_staged_equals_monolithic_across_edits(seed):
    rng = random.Random(seed)
    sources = build_random_design(rng)
    # A few seeds keep the stdlib in play (slower but exercises the shared
    # memoised stdlib AST inside snapshots); most skip it for speed.
    include_stdlib = seed % 13 == 0
    options = {"include_stdlib": include_stdlib}

    stage_cache = StageCache()

    # Case 1: cold staged compile vs cold monolithic compile.
    staged = stage_cache.compile(sources, options)
    monolithic = compile_sources(sources, **options)
    assert_equivalent(staged, monolithic, f"seed {seed} cold")

    # Case 2: fully warm staged recompile (ASTs + evaluate snapshot hit).
    warm = stage_cache.compile(sources, options)
    assert stage_cache.stats.evaluate_hits == 1
    assert_equivalent(warm, monolithic, f"seed {seed} warm")

    # Case 3: a randomized single-file edit -- N-1 parse artefacts stay warm.
    edited, edited_index = mutate_design(rng, sources)
    hits_before = stage_cache.stats.parse_hits
    staged_edited = stage_cache.compile(edited, options)
    mono_edited = compile_sources(edited, **options)
    assert_equivalent(staged_edited, mono_edited, f"seed {seed} edited file {edited_index}")
    # Only the edited file was re-parsed; every other file hit the AST cache.
    assert stage_cache.stats.parse_hits == hits_before + len(sources) - 1
    assert stage_cache.stats.parse_misses == len(sources) + 1

    # Case 4: downstream-option change reuses the evaluate snapshot.
    eval_hits_before = stage_cache.stats.evaluate_hits
    relaxed_options = {**options, "run_drc": False}
    staged_relaxed = stage_cache.compile(edited, relaxed_options)
    mono_relaxed = compile_sources(edited, **relaxed_options)
    assert_equivalent(staged_relaxed, mono_relaxed, f"seed {seed} relaxed drc")
    assert stage_cache.stats.evaluate_hits == eval_hits_before + 1


@pytest.mark.parametrize("seed", range(8))
def test_staged_equals_monolithic_through_compilation_cache(seed, tmp_path):
    """End-to-end: the CompilationCache front door (what run_jobs uses)."""
    rng = random.Random(1000 + seed)
    sources = build_random_design(rng)

    cache = CompilationCache(cache_dir=tmp_path / "cache")
    first = compile_sources(sources, include_stdlib=False, cache=cache)
    reference = compile_sources(sources, include_stdlib=False)
    assert_equivalent(first, reference, f"seed {seed} via cache, cold")

    edited, _ = mutate_design(rng, sources)
    staged_edited = compile_sources(edited, include_stdlib=False, cache=cache)
    mono_edited = compile_sources(edited, include_stdlib=False)
    assert_equivalent(staged_edited, mono_edited, f"seed {seed} via cache, edited")

    # A second process over the same disk store: only the stage tiers are
    # warm in the new instance, the whole-result get() precedes them.
    fresh_cache = CompilationCache(cache_dir=tmp_path / "cache", max_entries=1)
    fresh_cache.clear()  # in-memory only; disk artefacts survive
    again = compile_sources(edited, include_stdlib=False, cache=fresh_cache)
    assert_equivalent(again, mono_edited, f"seed {seed} fresh instance")


def test_degenerate_options_pass_through_verbatim():
    """Falsy option values (e.g. project_name='') must not be coerced away
    on the staged path -- cache presence may never change the output."""
    sources = [("type t = Stream(Bit(4), d=1);", "t.td")]
    options = {"include_stdlib": False, "project_name": ""}
    staged = StageCache().compile(sources, options)
    monolithic = compile_sources(sources, include_stdlib=False, project_name="")
    assert staged.project.name == monolithic.project.name == ""
    assert_equivalent(staged, monolithic, "empty project_name")


def test_staged_pipeline_raises_identical_errors():
    """Parse/evaluate/DRC failures surface identically staged and monolithic."""
    from repro.errors import TydiDRCError, TydiNameError, TydiSyntaxError

    stage_cache = StageCache()
    cases = [
        ("streamlet broken {", TydiSyntaxError),  # parse error
        ("impl ghost_i of missing_s { }\ntop ghost_i;", TydiNameError),  # evaluate
        (
            # Two sinks on one source without sugaring: strict DRC rejects.
            "type t = Stream(Bit(4), d=1);\n"
            "streamlet s { a: t in, x: t out, y: t out, }\n"
            "impl i of s { a => x, a => y, }\n"
            "top i;",
            TydiDRCError,
        ),
    ]
    for source, expected in cases:
        options = {"include_stdlib": False}
        if expected is TydiDRCError:
            options["sugaring"] = False
        with pytest.raises(expected) as staged_exc:
            stage_cache.compile([(source, "bad.td")], options)
        with pytest.raises(expected) as mono_exc:
            compile_sources([(source, "bad.td")], **options)
        assert str(staged_exc.value) == str(mono_exc.value)

    # And a *repeat* of the DRC failure reuses the evaluate snapshot while
    # still raising the identical error (snapshot immutability in action).
    assert stage_cache.stats.evaluate_misses >= 1
    source, _ = cases[2][0], cases[2][1]
    with pytest.raises(TydiDRCError):
        stage_cache.compile([(source, "bad.td")], {"include_stdlib": False, "sugaring": False})
    assert stage_cache.stats.evaluate_hits >= 1
