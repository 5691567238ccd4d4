"""Tests for the content-addressed compilation cache."""

import pickle

import pytest

from repro.lang import compile_sources
from repro.pipeline import (
    CompilationCache,
    fingerprint_sources,
    normalize_sources,
)

SOURCE = """
type byte_t = Stream(Bit(8), d=1);
streamlet echo_s { i: byte_t in, o: byte_t out, }
impl echo_i of echo_s { i => o, }
top echo_i;
"""

OTHER_SOURCE = SOURCE.replace("Bit(8)", "Bit(16)")


def _default_options() -> dict:
    """The options dict compile_sources keys a default-argument call with."""
    return {
        "top": None,
        "top_args": (),
        "include_stdlib": True,
        "sugaring": True,
        "run_drc": True,
        "strict_drc": True,
        "project_name": "design",
    }


class TestFingerprint:
    def test_deterministic(self):
        a = fingerprint_sources([(SOURCE, "a.td")], {"top": None})
        b = fingerprint_sources([(SOURCE, "a.td")], {"top": None})
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_source_text_changes_key(self):
        a = fingerprint_sources([(SOURCE, "a.td")])
        b = fingerprint_sources([(OTHER_SOURCE, "a.td")])
        assert a != b

    def test_filename_changes_key(self):
        assert fingerprint_sources([(SOURCE, "a.td")]) != fingerprint_sources([(SOURCE, "b.td")])

    def test_options_change_key(self):
        a = fingerprint_sources([(SOURCE, "a.td")], {"sugaring": True})
        b = fingerprint_sources([(SOURCE, "a.td")], {"sugaring": False})
        assert a != b

    def test_option_order_is_irrelevant(self):
        a = fingerprint_sources([(SOURCE, "a.td")], {"top": "x", "sugaring": True})
        b = fingerprint_sources([(SOURCE, "a.td")], {"sugaring": True, "top": "x"})
        assert a == b

    def test_normalize_bare_strings(self):
        assert normalize_sources([SOURCE]) == ((SOURCE, "source_0.td"),)
        # ... and the bare-string form hashes like its normalised twin.
        assert fingerprint_sources([SOURCE]) == fingerprint_sources([(SOURCE, "source_0.td")])

    def test_stage_schema_version_changes_key(self, monkeypatch):
        """Keys from a different per-stage layout can never collide.

        ``key_for`` mixes ``STAGE_SCHEMA_VERSION`` into the salt, so entries
        written by the PR-1 whole-result-only layout (or any future layout)
        address different files and are simply never deserialised.
        """
        from repro.pipeline import cache as cache_module

        current = fingerprint_sources([(SOURCE, "a.td")])
        monkeypatch.setattr(cache_module, "STAGE_SCHEMA_VERSION", cache_module.STAGE_SCHEMA_VERSION + 1)
        assert fingerprint_sources([(SOURCE, "a.td")]) != current

    def test_cache_format_version_changes_key(self, monkeypatch):
        from repro.pipeline import cache as cache_module

        current = fingerprint_sources([(SOURCE, "a.td")])
        monkeypatch.setattr(cache_module, "CACHE_VERSION", cache_module.CACHE_VERSION + 1)
        assert fingerprint_sources([(SOURCE, "a.td")]) != current


class TestCompileSourcesCacheHook:
    def test_miss_then_hit(self):
        cache = CompilationCache()
        first = compile_sources([(SOURCE, "a.td")], cache=cache)
        second = compile_sources([(SOURCE, "a.td")], cache=cache)
        assert second is first  # in-memory hit returns the stored artefact
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_source_change_invalidates(self):
        cache = CompilationCache()
        first = compile_sources([(SOURCE, "a.td")], cache=cache)
        changed = compile_sources([(OTHER_SOURCE, "a.td")], cache=cache)
        assert changed is not first
        assert cache.stats.misses == 2

    def test_option_change_invalidates(self):
        cache = CompilationCache()
        compile_sources([(SOURCE, "a.td")], cache=cache)
        no_sugar = compile_sources([(SOURCE, "a.td")], sugaring=False, cache=cache)
        assert cache.stats.misses == 2
        assert "sugaring" not in no_sugar.stage_names()

    def test_cached_result_ir_identical(self):
        cache = CompilationCache()
        cold = compile_sources([(SOURCE, "a.td")], cache=cache)
        warm = compile_sources([(SOURCE, "a.td")], cache=cache)
        assert warm.ir_text() == cold.ir_text()


class TestLru:
    def test_eviction_of_least_recently_used(self):
        cache = CompilationCache(max_entries=2)
        r = compile_sources([SOURCE])
        cache.put("k1", r)
        cache.put("k2", r)
        assert cache.get("k1") is r  # k1 is now most recent
        cache.put("k3", r)  # evicts k2
        assert cache.get("k2") is None
        assert cache.get("k1") is r
        assert cache.get("k3") is r
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            CompilationCache(max_entries=0)


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path):
        cache_dir = tmp_path / ".tydi-cache"
        writer = CompilationCache(cache_dir=cache_dir)
        cold = compile_sources([(SOURCE, "a.td")], cache=writer)
        assert writer.stats.disk_stores == 1
        assert list(cache_dir.glob("*.pkl"))

        reader = CompilationCache(cache_dir=cache_dir)
        warm = compile_sources([(SOURCE, "a.td")], cache=reader)
        assert reader.stats.disk_hits == 1
        assert warm is not cold  # pickle round-trip, not an alias
        assert warm.ir_text() == cold.ir_text()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = CompilationCache(cache_dir=tmp_path)
        compile_sources([(SOURCE, "a.td")], cache=cache)
        entry = next(tmp_path.glob("*.pkl"))
        entry.write_bytes(b"definitely not a pickle")

        fresh = CompilationCache(cache_dir=tmp_path)
        result = compile_sources([(SOURCE, "a.td")], cache=fresh)
        assert result is not None
        assert fresh.stats.disk_errors == 1
        assert fresh.stats.misses == 1
        # The corrupt artefact was dropped and replaced by the recompile.
        reloaded = pickle.loads(next(tmp_path.glob("*.pkl")).read_bytes())
        assert reloaded.ir_text() == result.ir_text()

    def test_old_layout_entry_is_never_deserialized(self, tmp_path, monkeypatch):
        """A PR-1-era store (older stage schema) misses instead of loading.

        The old entry addresses a different key, so the new layout recompiles
        and stores under its own key; the stale artefact is left untouched
        until disk eviction (or a manual clear) reaps it -- it is never
        loaded into the new layout.
        """
        from repro.pipeline import cache as cache_module

        # Write an artefact under the key an *older* schema would compute --
        # with a payload that would blow up if it were ever unpickled.
        monkeypatch.setattr(cache_module, "STAGE_SCHEMA_VERSION", 0)
        old_key = fingerprint_sources([(SOURCE, "a.td")], _default_options())
        monkeypatch.undo()
        tmp_path.mkdir(exist_ok=True)
        (tmp_path / f"{old_key}.pkl").write_bytes(b"stale layout, do not load")

        cache = CompilationCache(cache_dir=tmp_path)
        result = compile_sources([(SOURCE, "a.td")], cache=cache)
        assert result.project.top == "echo_i"
        assert cache.stats.disk_errors == 0  # the stale entry was never opened
        assert cache.stats.misses == 1
        assert (tmp_path / f"{old_key}.pkl").exists()

    def test_unreadable_stage_entry_is_a_miss(self, tmp_path):
        """Corrupt per-stage artefacts recover exactly like whole-result ones."""
        cache = CompilationCache(cache_dir=tmp_path)
        compile_sources([(SOURCE, "a.td")], cache=cache)
        stage_pkls = list((tmp_path / "stages").glob("*.pkl"))
        assert stage_pkls
        for path in stage_pkls:
            path.write_bytes(b"truncated garbage")
        for path in tmp_path.glob("*.pkl"):
            path.unlink()  # force a whole-result miss into the staged path

        fresh = CompilationCache(cache_dir=tmp_path)
        result = compile_sources([(SOURCE, "a.td")], cache=fresh)
        assert result.project.top == "echo_i"
        assert fresh.stages.stats.disk_errors >= 1

    def test_clear_disk(self, tmp_path):
        cache = CompilationCache(cache_dir=tmp_path)
        compile_sources([(SOURCE, "a.td")], cache=cache)
        cache.clear(disk=True)
        assert len(cache) == 0
        assert not list(tmp_path.glob("*.pkl"))

    def test_eviction_keeps_disk_copy(self, tmp_path):
        cache = CompilationCache(max_entries=1, cache_dir=tmp_path)
        a = compile_sources([(SOURCE, "a.td")], cache=cache)
        compile_sources([(OTHER_SOURCE, "b.td")], cache=cache)  # evicts a from memory
        assert cache.stats.evictions == 1
        again = compile_sources([(SOURCE, "a.td")], cache=cache)
        assert cache.stats.disk_hits == 1
        assert again.ir_text() == a.ir_text()


class TestStats:
    def test_hit_rate(self):
        cache = CompilationCache()
        compile_sources([SOURCE], cache=cache)
        compile_sources([SOURCE], cache=cache)
        compile_sources([SOURCE], cache=cache)
        assert cache.stats.lookups == 3
        assert cache.stats.hit_rate() == pytest.approx(2 / 3)
        assert cache.stats.as_dict()["hits"] == 2


class TestClearRecursive:
    def test_clear_disk_removes_stage_artefacts_without_stage_caching(self, tmp_path):
        """Regression: clear(disk=True) on a cache that never compiled through
        its stage tiers used to glob only top-level *.pkl, orphaning the
        stages/ artefacts an earlier instance wrote (where they still
        counted against max_disk_bytes)."""
        warm = CompilationCache(cache_dir=tmp_path)
        compile_sources([(SOURCE, "a.td")], cache=warm)
        assert list((tmp_path / "stages").glob("*.pkl"))

        cache = CompilationCache(cache_dir=tmp_path)
        cache.clear(disk=True)
        assert not list(tmp_path.rglob("*.pkl"))

    def test_clear_disk_removes_leaked_tmp_files(self, tmp_path):
        (tmp_path / "stages").mkdir()
        (tmp_path / "dead.pkl.tmp").write_bytes(b"x")
        (tmp_path / "stages" / "dead.pkl.tmp").write_bytes(b"x")
        cache = CompilationCache(cache_dir=tmp_path)
        cache.clear(disk=True)
        assert not list(tmp_path.rglob("*.tmp"))


class TestTmpSweep:
    def test_stale_tmp_files_are_swept(self, tmp_path):
        """Regression: a writer SIGKILLed mid-atomic_write_bytes leaks a
        *.tmp file that eviction neither counted nor ever deleted."""
        import os

        from repro.pipeline.cache import evict_lru_files

        stale = tmp_path / "orphan.pkl.tmp"
        stale.write_bytes(b"x" * 100)
        old = stale.stat().st_mtime - 3600
        os.utime(stale, (old, old))
        evicted = evict_lru_files(tmp_path, max_bytes=10_000)
        assert evicted == 0  # GC, not a budget eviction
        assert not stale.exists()

    def test_fresh_tmp_files_survive_but_count_against_budget(self, tmp_path):
        """An in-flight writer's .tmp must not be deleted under it, but its
        bytes are real disk usage the budget has to see."""
        from repro.pipeline.cache import evict_lru_files

        fresh = tmp_path / "inflight.pkl.tmp"
        fresh.write_bytes(b"x" * 600)
        victim = tmp_path / "old.pkl"
        victim.write_bytes(b"y" * 600)
        evicted = evict_lru_files(tmp_path, max_bytes=1000)
        assert fresh.exists()
        assert not victim.exists()
        assert evicted == 1


class TestCanonicalOptions:
    def test_dict_valued_option_order_invariant(self):
        """Regression: repr() of dicts leaks key insertion order into the
        fingerprint, so semantically identical options spuriously missed."""
        a = fingerprint_sources(
            [(SOURCE, "a.td")],
            {"backend_options": {"vhdl": {"indent": 2, "header": True}}},
        )
        b = fingerprint_sources(
            [(SOURCE, "a.td")],
            {"backend_options": {"vhdl": {"header": True, "indent": 2}}},
        )
        assert a == b

    def test_dict_content_still_changes_key(self):
        a = fingerprint_sources([(SOURCE, "a.td")], {"backend_options": {"vhdl": {"indent": 2}}})
        b = fingerprint_sources([(SOURCE, "a.td")], {"backend_options": {"vhdl": {"indent": 4}}})
        assert a != b

    def test_evaluate_key_order_invariant(self):
        from repro.pipeline.stages import StageCache

        stages = StageCache()
        a = stages.evaluate_key([(SOURCE, "a.td")], {"top_args": {"x": 1, "y": 2}})
        b = stages.evaluate_key([(SOURCE, "a.td")], {"top_args": {"y": 2, "x": 1}})
        assert a == b

    def test_canonical_repr_shapes(self):
        from repro.pipeline.cache import canonical_option_repr

        assert canonical_option_repr({"b": 1, "a": 2}) == canonical_option_repr({"a": 2, "b": 1})
        assert canonical_option_repr((1,)) == "(1,)"
        assert canonical_option_repr([1, 2]) == "[1, 2]"
        assert canonical_option_repr({3, 1, 2}) == canonical_option_repr({2, 1, 3})
        # Ordered containers stay order-sensitive: (1, 2) is not (2, 1).
        assert canonical_option_repr((1, 2)) != canonical_option_repr((2, 1))
