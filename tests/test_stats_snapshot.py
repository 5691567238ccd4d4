"""Regression tests: stats snapshots are taken under the owning locks.

The server's ``stats`` endpoint (and ``Workspace.report``/``stats``, and
the CLI ``--json`` payloads) read cache counters while compile threads
mutate them.  ``stats_snapshot()`` copies the counters under the cache's
own lock, so a reader can never observe a *torn* set -- e.g. a lookup
whose ``hits`` increment is visible but whose ``disk_hits`` increment is
not.  These tests hammer the caches from writer threads while readers
snapshot continuously, asserting per-snapshot invariants that a torn read
would violate, plus exact final totals.
"""

from __future__ import annotations

import threading

from repro.lang.compile import compile_sources
from repro.pipeline.cache import CompilationCache
from repro.server import CompileService
from repro.workspace import Workspace

GOOD = (
    "type link_t = Stream(Bit(8));\n"
    "streamlet pass_s { i: link_t in, o: link_t out, }\n"
    "external impl pass_i of pass_s;\n"
    "top pass_i;\n"
)


class TestCacheStatsSnapshot:
    def test_snapshot_matches_as_dict_when_quiescent(self):
        cache = CompilationCache()
        result = compile_sources([GOOD], cache=cache)
        assert result is not None
        assert cache.stats_snapshot() == cache.stats.as_dict()

    def test_concurrent_readers_never_see_torn_counters(self):
        """Writers churn get/put; every snapshot must be internally
        consistent: each lookup bumps exactly one of hits/misses *before*
        the next lookup starts (both mutations happen under the cache
        lock), so hits + misses can never exceed the writers' progress nor
        run backwards between snapshots."""
        cache = CompilationCache(max_entries=4)
        result = compile_sources([GOOD], cache=None)
        rounds = 300
        writers = 4
        progress = [0] * writers

        def writer(index: int) -> None:
            for round_index in range(rounds):
                key = f"key-{index}-{round_index % 8}"
                if cache.get(key) is None:
                    cache.put(key, result, disk=False)
                progress[index] += 1

        stop = threading.Event()
        snapshots: list[dict[str, int]] = []
        failures: list[str] = []

        def reader() -> None:
            previous: dict[str, int] | None = None
            while not stop.is_set():
                snapshot = cache.stats_snapshot()
                lookups = snapshot["hits"] + snapshot["misses"]
                done_after = sum(progress)  # only grows
                if lookups > done_after + writers:
                    failures.append(
                        f"snapshot counts {lookups} lookups but writers "
                        f"completed at most {done_after + writers}"
                    )
                    return
                if previous is not None:
                    for key, value in previous.items():
                        if snapshot[key] < value:
                            failures.append(f"counter {key} went backwards")
                            return
                previous = snapshot
                snapshots.append(snapshot)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(writers)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in readers + threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
            assert not thread.is_alive()

        assert not failures, failures
        assert snapshots, "readers never snapshotted"
        final = cache.stats_snapshot()
        # Exact totals: every writer did `rounds` lookups; every miss stored.
        assert final["hits"] + final["misses"] == writers * rounds
        assert final["stores"] == final["misses"]

    def test_stage_cache_snapshot_under_churn(self):
        cache = CompilationCache()
        second = (
            "type other_t = Stream(Bit(4));\n"
            "streamlet other_s { i: other_t in, o: other_t out, }\n"
            "external impl other_i of other_s;\n"
        )
        sources = [(GOOD, "a.td"), (second, "b.td")]

        def compile_loop() -> None:
            for _ in range(10):
                cache.stages.compile(sources, {"include_stdlib": False})

        stop = threading.Event()
        failures: list[str] = []

        def reader() -> None:
            previous = None
            while not stop.is_set():
                snapshot = cache.stages.stats_snapshot()
                if previous is not None:
                    for key, value in previous.items():
                        if snapshot[key] < value:
                            failures.append(f"stage counter {key} went backwards")
                            return
                previous = snapshot

        workers = [threading.Thread(target=compile_loop) for _ in range(3)]
        watcher = threading.Thread(target=reader)
        watcher.start()
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=120)
            assert not thread.is_alive()
        stop.set()
        watcher.join(timeout=60)
        assert not watcher.is_alive()
        assert not failures, failures
        final = cache.stages.stats_snapshot()
        assert final["parse_hits"] + final["parse_misses"] == 3 * 10 * len(sources)


class TestWorkspaceStats:
    def test_stats_shape_and_counts(self):
        workspace = Workspace()
        workspace.add_design("good", [(GOOD, "g.td")])
        workspace.add_design("broken", [("type ?!", "b.td")])
        workspace.add_design("pending", [(GOOD.replace("pass", "p2"), "p.td")])
        workspace.result("good")
        try:
            workspace.result("broken")
        except Exception:
            pass
        stats = workspace.stats()
        assert stats["designs"] == {"total": 3, "fresh": 1, "stale": 1, "error": 1}
        assert stats["cache"] is not None and stats["stage_cache"] is not None
        # The cache sections are the locked snapshots (same shape).
        assert set(stats["cache"]) == set(workspace.cache.stats.as_dict())

    def test_stats_without_cache(self):
        workspace = Workspace(cache=None)
        workspace.add_design("d", [(GOOD, "d.td")])
        stats = workspace.stats()
        assert stats["cache"] is None and stats["stage_cache"] is None

    def test_report_uses_snapshots(self):
        workspace = Workspace()
        workspace.add_design("d", [(GOOD, "d.td")])
        workspace.result("d")
        report = workspace.report()
        assert report["cache"] == workspace.cache.stats_snapshot()
        assert report["stage_cache"] == workspace.cache.stages.stats_snapshot()

    def test_duck_typed_cache_without_snapshot_still_reports(self):
        class DuckCache:
            def __init__(self) -> None:
                self.calls = 0

            def key_for(self, sources, options):
                from repro.pipeline.cache import fingerprint_sources

                return fingerprint_sources(sources, options)

            def get(self, key):
                return None

            def put(self, key, result):
                self.calls += 1

        workspace = Workspace(cache=DuckCache())
        workspace.add_design("d", [(GOOD, "d.td")])
        workspace.result("d")
        stats = workspace.stats()
        assert stats["cache"] is None  # no stats attribute: reported as absent
        assert stats["designs"]["fresh"] == 1

    def test_server_stats_under_concurrent_compiles(self):
        """The server-side regression: `stats` answered while other pool
        threads compile must never raise or return torn workspace counters."""
        service = CompileService(jobs=4)
        try:
            designs = []
            for index in range(4):
                name = f"d{index}"
                text = GOOD.replace("pass", f"pass{index}")
                service.handle_sync(
                    {"method": "open_design",
                     "params": {"design": name, "files": {f"{name}.td": text}}}
                )
                designs.append(name)

            failures: list[str] = []
            stop = threading.Event()

            def stats_loop() -> None:
                while not stop.is_set():
                    envelope = service.handle_sync({"method": "stats"})
                    if not envelope["ok"]:
                        failures.append(str(envelope))
                        return
                    counts = envelope["result"]["workspace"]["designs"]
                    if counts["total"] != len(designs):
                        failures.append(f"lost designs: {counts}")
                        return

            def compile_loop() -> None:
                for _ in range(5):
                    for name in designs:
                        service.handle_sync(
                            {"method": "get_ir", "params": {"design": name}}
                        )
                        service.handle_sync(
                            {"method": "update_file",
                             "params": {"design": name, "filename": f"{name}.td",
                                        "text": GOOD.replace("pass", f"pass{name}")}}
                        )

            watcher = threading.Thread(target=stats_loop)
            workers = [threading.Thread(target=compile_loop) for _ in range(2)]
            watcher.start()
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
                assert not thread.is_alive()
            stop.set()
            watcher.join(timeout=60)
            assert not watcher.is_alive()
            assert not failures, failures
        finally:
            service.close()
