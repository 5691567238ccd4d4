"""Unit tests for the per-stage sub-cache (:mod:`repro.pipeline.stages`).

The end-to-end staged == monolithic property lives in
``tests/test_stage_differential.py``; these tests pin down the
:class:`StageCache` mechanics themselves -- keying, tier behaviour, disk
persistence, size-aware eviction, corrupt-artefact recovery and
concurrent sharing.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.pipeline import (
    CompilationCache,
    CompileJob,
    StageCache,
    file_fingerprint,
    run_jobs,
)
from repro.lang.parser import parse_source
from repro.pipeline.cache import CacheTier
from repro.pipeline.stages import STAGE_DIR_NAME
from repro.testing import build_chain_design, build_random_design, mutate_design

TYPES = ("type byte_t = Stream(Bit(8), d=1);", "types.td")
DESIGN = (
    "streamlet echo_s { i: byte_t in, o: byte_t out, }\n"
    "impl echo_i of echo_s { i => o, }\n"
    "top echo_i;",
    "design.td",
)
OPTIONS = {"include_stdlib": False}


class TestFileFingerprint:
    def test_deterministic(self):
        assert file_fingerprint("a", "f.td") == file_fingerprint("a", "f.td")

    def test_text_changes_key(self):
        assert file_fingerprint("a", "f.td") != file_fingerprint("b", "f.td")

    def test_filename_changes_key(self):
        # The filename is embedded in spans and diagnostics, so the same
        # text under a different name is a different parse artefact.
        assert file_fingerprint("a", "f.td") != file_fingerprint("a", "g.td")


class TestEvaluateKey:
    def test_downstream_options_do_not_participate(self):
        cache = StageCache()
        base = cache.evaluate_key([TYPES, DESIGN], OPTIONS)
        relaxed = cache.evaluate_key(
            [TYPES, DESIGN], {**OPTIONS, "run_drc": False, "sugaring": False, "strict_drc": False}
        )
        assert base == relaxed

    def test_evaluate_options_participate(self):
        cache = StageCache()
        base = cache.evaluate_key([TYPES, DESIGN], OPTIONS)
        assert cache.evaluate_key([TYPES, DESIGN], {**OPTIONS, "top": "echo_i"}) != base
        assert cache.evaluate_key([TYPES, DESIGN], {**OPTIONS, "project_name": "x"}) != base
        assert cache.evaluate_key([TYPES, DESIGN], {**OPTIONS, "include_stdlib": True}) != base

    def test_file_order_participates(self):
        cache = StageCache()
        assert cache.evaluate_key([TYPES, DESIGN], OPTIONS) != cache.evaluate_key(
            [DESIGN, TYPES], OPTIONS
        )


class TestParseTier:
    def test_one_file_edit_reparses_only_that_file(self):
        cache = StageCache()
        cache.compile([TYPES, DESIGN], OPTIONS)
        assert cache.stats.parse_misses == 2

        edited = (TYPES[0] + "// touched\n", TYPES[1])
        cache.compile([edited, DESIGN], OPTIONS)
        assert cache.stats.parse_misses == 3  # only the edited file
        assert cache.stats.parse_hits == 1  # design.td served from cache

    def test_parse_errors_propagate_and_are_not_cached(self):
        from repro.errors import TydiSyntaxError

        cache = StageCache()
        for _ in range(2):
            with pytest.raises(TydiSyntaxError):
                cache.cached_parse("streamlet broken {", "bad.td")
        assert cache.stats.parse_misses == 0
        assert len(cache) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CacheTier(StageCache(), "ast", "repro.lang.ast:SourceUnit", capacity=0)
        with pytest.raises(ValueError):
            CompilationCache(max_entries=0)

    def test_parse_lru_bounded(self):
        owner = StageCache()
        tier = CacheTier(
            owner,
            "ast",
            "repro.lang.ast:SourceUnit",
            capacity=2,
            hits="parse_hits",
            stores="parse_misses",
        )
        for index in range(5):
            tier.fetch(f"k{index}", lambda: parse_source(f"const c{index} = {index};", "f.td"))
        assert len(tier) == 2
        assert owner.stats.parse_misses == 5
        assert tier.get("k0") is None  # evicted first
        assert tier.get("k4") is not None
        assert owner.stats.parse_hits == 1


class TestEvaluateTier:
    def test_snapshot_reused_across_downstream_option_changes(self):
        cache = StageCache()
        full = cache.compile([TYPES, DESIGN], OPTIONS)
        relaxed = cache.compile([TYPES, DESIGN], {**OPTIONS, "run_drc": False})
        assert cache.stats.evaluate_misses == 1
        assert cache.stats.evaluate_hits == 1
        assert relaxed.drc is None
        assert full.ir_text() == relaxed.ir_text()

    def test_snapshot_is_immutable_across_reuse(self):
        """Sugaring mutates the project -- the stored snapshot must not see it."""
        rng = random.Random(5)
        sources = build_random_design(rng)
        cache = StageCache()
        first = cache.compile(sources, OPTIONS)
        second = cache.compile(sources, OPTIONS)
        third = cache.compile(sources, OPTIONS)
        assert first.ir_text() == second.ir_text() == third.ir_text()
        # Each reuse starts from the pristine post-evaluate state, so the
        # sugaring report is rebuilt identically, never doubled.
        assert first.sugaring.summary() == second.sugaring.summary() == third.sugaring.summary()


class TestDiskTier:
    def test_stage_artefacts_persist_across_instances(self, tmp_path):
        first = StageCache(cache_dir=tmp_path)
        first.compile([TYPES, DESIGN], OPTIONS)
        stage_dir = tmp_path / STAGE_DIR_NAME
        assert list(stage_dir.glob("ast-*.pkl")) and list(stage_dir.glob("eval-*.pkl"))

        # A new instance (e.g. another process) hits both tiers from disk.
        second = StageCache(cache_dir=tmp_path)
        second.compile([TYPES, DESIGN], OPTIONS)
        assert second.stats.evaluate_hits == 1
        assert second.stats.parse_misses == 0

    def test_corrupt_stage_artefact_is_a_miss_not_a_crash(self, tmp_path):
        cache = StageCache(cache_dir=tmp_path)
        cache.compile([TYPES, DESIGN], OPTIONS)
        for path in (tmp_path / STAGE_DIR_NAME).glob("*.pkl"):
            path.write_bytes(b"\x80\x05not a pickle at all")

        fresh = StageCache(cache_dir=tmp_path)
        result = fresh.compile([TYPES, DESIGN], OPTIONS)
        assert result.project.top == "echo_i"
        assert fresh.stats.disk_errors >= 1
        assert fresh.stats.evaluate_misses == 1

    def test_clear_disk(self, tmp_path):
        cache = StageCache(cache_dir=tmp_path)
        cache.compile([TYPES, DESIGN], OPTIONS)
        cache.clear(disk=True)
        assert not list((tmp_path / STAGE_DIR_NAME).glob("*.pkl"))
        assert len(cache) == 0


class TestDiskEviction:
    def test_budget_bounds_stage_artefacts(self, tmp_path):
        cache = StageCache(cache_dir=tmp_path, max_disk_bytes=8 * 1024)
        for index in range(6):
            sources = build_chain_design(3)
            tweaked = [(text + f"// v{index}\n", name) for text, name in sources]
            cache.compile(tweaked, OPTIONS)
        total = sum(p.stat().st_size for p in tmp_path.rglob("*.pkl"))
        assert total <= 8 * 1024
        assert cache.stats.disk_evictions > 0

    def test_recently_used_artefacts_survive(self, tmp_path):
        import os
        import time

        cache = StageCache(cache_dir=tmp_path, max_disk_bytes=1024 * 1024)
        cache.cached_parse(*TYPES)
        cache.cached_parse(*DESIGN)
        stage_dir = tmp_path / STAGE_DIR_NAME
        paths = sorted(stage_dir.glob("ast-*.pkl"))
        assert len(paths) == 2
        # Make the first artefact look stale and the second recently used.
        now = time.time()
        os.utime(paths[0], (now - 1000, now - 1000))
        os.utime(paths[1], (now, now))
        cache.max_disk_bytes = paths[1].stat().st_size
        cache.enforce_disk_budget()
        assert not paths[0].exists()
        assert paths[1].exists()

    def test_process_batch_respects_disk_budget(self, tmp_path):
        """--max-cache-mb shape: workers and the parent fold both enforce."""
        budget = 8 * 1024
        cache = CompilationCache(cache_dir=tmp_path, max_disk_bytes=budget)
        jobs = [
            CompileJob(
                name=f"d{index}",
                sources=tuple(build_chain_design(3 + index % 2)),
                include_stdlib=False,
            )
            for index in range(5)
        ]
        outcome = run_jobs(jobs, cache=cache, executor="process", max_workers=2)
        assert outcome.ok
        total = sum(p.stat().st_size for p in tmp_path.rglob("*.pkl"))
        assert total <= budget

    def test_clear_cascades_to_stage_tiers(self, tmp_path):
        from repro.lang.compile import compile_sources

        cache = CompilationCache(cache_dir=tmp_path)
        compile_sources([TYPES, DESIGN], include_stdlib=False, cache=cache)
        assert len(cache.stages) > 0
        cache.clear(disk=True)
        assert len(cache.stages) == 0
        assert not list(tmp_path.rglob("*.pkl"))

    def test_whole_cache_budget_covers_both_tiers(self, tmp_path):
        """CompilationCache(max_disk_bytes=...) bounds result + stage pkls."""
        cache = CompilationCache(cache_dir=tmp_path, max_disk_bytes=16 * 1024)
        from repro.lang.compile import compile_sources

        for index in range(6):
            sources = [(TYPES[0] + f"const v{index} = {index};\n", TYPES[1]), DESIGN]
            compile_sources(sources, include_stdlib=False, cache=cache)
        total = sum(p.stat().st_size for p in tmp_path.rglob("*.pkl"))
        assert total <= 16 * 1024
        assert cache.stats.disk_evictions + cache.stages.stats.disk_evictions > 0


class TestConcurrency:
    def test_two_batch_runs_share_one_cache_and_disk(self, tmp_path):
        """Two thread-executor batches racing on one cache + one disk dir.

        Both must succeed with byte-identical results and leave only whole,
        loadable artefacts behind (atomic write-to-temp-then-rename: no
        torn pickles, no leftover temp files).
        """
        rng = random.Random(99)
        designs = [build_random_design(rng) for _ in range(6)]
        jobs = [
            CompileJob(name=f"d{index}", sources=tuple(sources), include_stdlib=False)
            for index, sources in enumerate(designs)
        ]
        cache = CompilationCache(cache_dir=tmp_path)
        outcomes = [None, None]
        errors = []

        def run(slot: int) -> None:
            try:
                outcomes[slot] = run_jobs(
                    jobs, cache=cache, executor="thread", max_workers=4
                )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert outcomes[0].ok and outcomes[1].ok
        for a, b in zip(outcomes[0].results, outcomes[1].results):
            assert a.name == b.name
            assert a.result.ir_text() == b.result.ir_text()

        # No torn disk writes: every artefact on disk deserialises, and no
        # temp files were left behind by the atomic-rename protocol.
        import pickle

        for path in tmp_path.rglob("*.pkl"):
            pickle.loads(path.read_bytes())
        assert not list(tmp_path.rglob("*.tmp"))

        # A cold instance over the same store serves every design warm.
        fresh = CompilationCache(cache_dir=tmp_path)
        warm = run_jobs(jobs, cache=fresh, executor="serial")
        assert warm.ok
        assert all(entry.from_cache for entry in warm.results)

    def test_concurrent_stage_compiles_on_one_stage_cache(self):
        """Raw StageCache sharing: concurrent compiles of overlapping designs."""
        rng = random.Random(123)
        base = build_random_design(rng, min_files=4, max_files=6)
        variants = [base] + [mutate_design(random.Random(i), base)[0] for i in range(5)]
        stage_cache = StageCache()
        results: dict[int, str] = {}
        errors = []

        def run(slot: int) -> None:
            try:
                results[slot] = stage_cache.compile(variants[slot % len(variants)], OPTIONS).ir_text()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        from repro.lang.compile import compile_sources

        for slot, ir in results.items():
            reference = compile_sources(variants[slot % len(variants)], include_stdlib=False)
            assert ir == reference.ir_text()


class TestBackendTier:
    TARGETS = ("vhdl", "ir", "dot")

    def test_second_compile_hits_every_unit(self):
        cache = StageCache()
        options = {**OPTIONS, "targets": self.TARGETS}
        first = cache.compile([TYPES, DESIGN], options)
        impl_count = len(first.project.implementations)
        assert cache.stats.backend_misses == impl_count * len(self.TARGETS)
        cache.stats.reset()
        second = cache.compile([TYPES, DESIGN], options)
        assert cache.stats.backend_hits == impl_count * len(self.TARGETS)
        assert cache.stats.backend_misses == 0
        for target in self.TARGETS:
            assert list(second.outputs[target].items()) == list(first.outputs[target].items())

    def test_unit_outputs_shared_across_designs(self):
        """Two designs containing a byte-identical implementation reuse its
        unit output: the key is the implementation fingerprint, not the
        design fingerprint."""
        cache = StageCache()
        options = {**OPTIONS, "targets": ("vhdl",)}
        cache.compile([TYPES, DESIGN], options)
        cache.stats.reset()
        # Same design plus an unrelated comment in a *new* file: whole-result
        # and evaluate keys change, but every implementation is unchanged.
        extra = ("// unrelated comment file", "comment.td")
        result = cache.compile([TYPES, DESIGN, extra], options)
        assert cache.stats.backend_hits == len(result.project.implementations)
        assert cache.stats.backend_misses == 0

    def test_options_participate_in_unit_key(self):
        from repro.backends import DotBackendOptions, get_backend

        cache = StageCache()
        result = cache.compile([TYPES, DESIGN], OPTIONS)
        plain = cache.emit_backend(result.project, get_backend("dot"))
        highlighted = cache.emit_backend(
            result.project, get_backend("dot", DotBackendOptions(highlight=("echo_i.i",)))
        )
        assert plain != highlighted
        assert cache.stats.backend_misses == 2 * len(result.project.implementations)

    def test_options_token_change_invalidates_without_fingerprint_change(self):
        """A new options ``token()`` alone must miss the unit cache.

        The implementation fingerprint is content-addressed over the
        emission subgraph, so it cannot see backend options; the unit key
        folds the token in separately.  If it ever stopped doing so, a
        ``--backend-opt`` change would silently serve stale artefacts.
        """
        from repro.backends import (
            DotBackendOptions,
            get_backend,
            implementation_fingerprint,
        )

        cache = StageCache()
        result = cache.compile([TYPES, DESIGN], OPTIONS)
        project = result.project
        plain_backend = get_backend("dot")
        tweaked_backend = get_backend("dot", DotBackendOptions(rankdir="TB"))
        assert plain_backend.options.token() != tweaked_backend.options.token()

        for impl in project.implementations.values():
            fingerprint = implementation_fingerprint(project, impl)
            # Same content address under both option sets...
            assert cache.backend_unit_key(
                plain_backend, fingerprint
            ) != cache.backend_unit_key(tweaked_backend, fingerprint)

        cache.emit_backend(project, plain_backend)
        assert cache.stats.backend_misses == len(project.implementations)
        cache.stats.reset()
        # The changed token is a full miss, not a stale hit...
        cache.emit_backend(project, tweaked_backend)
        assert cache.stats.backend_misses == len(project.implementations)
        assert cache.stats.backend_hits == 0
        cache.stats.reset()
        # ...and the original options are still warm.
        cache.emit_backend(project, plain_backend)
        assert cache.stats.backend_hits == len(project.implementations)
        assert cache.stats.backend_misses == 0

    def test_disk_tier_round_trip(self, tmp_path):
        options = {**OPTIONS, "targets": ("vhdl",)}
        writer = StageCache(cache_dir=tmp_path)
        first = writer.compile([TYPES, DESIGN], options)
        assert list((tmp_path / STAGE_DIR_NAME).glob("backend-*.pkl"))

        reader = StageCache(cache_dir=tmp_path)
        second = reader.compile([TYPES, DESIGN], options)
        assert reader.stats.backend_hits == len(second.project.implementations)
        assert reader.stats.backend_misses == 0
        assert list(second.outputs["vhdl"].items()) == list(first.outputs["vhdl"].items())

    def test_corrupt_backend_artefact_recovers(self, tmp_path):
        options = {**OPTIONS, "targets": ("vhdl",)}
        writer = StageCache(cache_dir=tmp_path)
        expected = writer.compile([TYPES, DESIGN], options)
        for path in (tmp_path / STAGE_DIR_NAME).glob("backend-*.pkl"):
            path.write_bytes(b"not a pickle")
        reader = StageCache(cache_dir=tmp_path)
        result = reader.compile([TYPES, DESIGN], options)
        assert list(result.outputs["vhdl"].items()) == list(expected.outputs["vhdl"].items())
        assert reader.stats.disk_errors > 0

    def test_one_file_edit_reuses_untouched_units(self):
        sources = build_chain_design(6)
        options = {**OPTIONS, "targets": ("vhdl",)}
        cache = StageCache()
        cache.compile(sources, options)
        # Comment-only edit of one chain step: no implementation changes.
        edited = list(sources)
        text, name = edited[2]
        edited[2] = (text + "// tweak\n", name)
        cache.stats.reset()
        result = cache.compile(edited, options)
        assert cache.stats.backend_hits == len(result.project.implementations)
        assert cache.stats.backend_misses == 0

    def test_clear_drops_backend_tier(self):
        cache = StageCache()
        options = {**OPTIONS, "targets": ("vhdl",)}
        cache.compile([TYPES, DESIGN], options)
        assert len(cache) > 0
        cache.clear()
        cache.stats.reset()
        cache.compile([TYPES, DESIGN], options)
        assert cache.stats.backend_misses > 0
