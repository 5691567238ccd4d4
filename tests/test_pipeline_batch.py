"""Tests for the batch compile engine (fan-out, isolation, determinism).

:func:`repro.pipeline.run_jobs` is the engine under
``repro.workspace.Workspace.compile_all``; a fresh workspace's
``compile_all`` hands every design to it unchanged, so these tests drive it
directly.
"""

import pytest

from repro.pipeline import (
    BatchCompilationError,
    CompilationCache,
    CompileJob,
    run_jobs,
)
from repro.workspace import Workspace


def design_source(width: int) -> str:
    return f"""
type data_t = Stream(Bit({width}), d=1);
streamlet pass_s {{ i: data_t in, o: data_t out, }}
impl pass_i of pass_s {{ i => o, }}
top pass_i;
"""


BAD_SOURCE = """
streamlet broken_s { i: MysteryType in, }
impl broken_i of broken_s {}
top broken_i;
"""


def make_jobs(count: int = 5) -> list[CompileJob]:
    return [
        CompileJob(name=f"design_{width}", sources=((design_source(width), f"design_{width}.td"),))
        for width in range(1, count + 1)
    ]


class TestCompileJob:
    def test_fingerprint_tracks_options(self):
        job = make_jobs(1)[0]
        assert job.fingerprint() == job.fingerprint()
        assert job.fingerprint() != job.with_options(sugaring=False).fingerprint()

    def test_direct_compile(self):
        result = make_jobs(1)[0].compile()
        assert "impl pass_i" in result.ir_text()

    def test_project_name_defaults_to_job_name(self):
        job = make_jobs(1)[0]
        assert job.options()["project_name"] == job.name
        assert job.compile().project.name == job.name


class TestBatchCompiler:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_all_jobs_compile(self, executor):
        jobs = make_jobs(4)
        outcome = run_jobs(jobs, executor=executor, max_workers=2)
        assert outcome.ok
        assert [entry.name for entry in outcome.results] == [job.name for job in jobs]
        assert len(outcome.result_map()) == 4
        assert outcome.stats()["failed"] == 0

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_failing_design_is_isolated(self, executor):
        jobs = make_jobs(3)
        jobs.insert(1, CompileJob(name="broken", sources=((BAD_SOURCE, "broken.td"),)))
        outcome = run_jobs(jobs, executor=executor, max_workers=2)
        assert not outcome.ok
        assert [entry.ok for entry in outcome.results] == [True, False, True, True]
        failure = outcome.results[1]
        assert failure.error and "MysteryType" in failure.error
        assert failure.error_stage is not None
        assert outcome.stats()["succeeded"] == 3
        with pytest.raises(BatchCompilationError, match="broken"):
            outcome.raise_if_failed()

    def test_parallel_output_identical_to_serial(self):
        jobs = make_jobs(6)
        serial = run_jobs(jobs, executor="serial")
        threaded = run_jobs(jobs, executor="thread", max_workers=4)
        for a, b in zip(serial.results, threaded.results):
            assert a.result.ir_text() == b.result.ir_text()

    def test_process_output_identical_to_serial(self):
        jobs = make_jobs(3)
        serial = run_jobs(jobs, executor="serial")
        forked = run_jobs(jobs, executor="process", max_workers=2)
        for a, b in zip(serial.results, forked.results):
            assert a.result.ir_text() == b.result.ir_text()

    def test_duplicate_job_names_rejected(self):
        jobs = make_jobs(2)
        with pytest.raises(ValueError, match="duplicate"):
            run_jobs([jobs[0], jobs[0]])

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            run_jobs(make_jobs(1), executor="carrier-pigeon")
        with pytest.raises(ValueError, match="executor"):
            Workspace(executor="carrier-pigeon")

    def test_empty_batch(self):
        outcome = run_jobs([])
        assert outcome.ok and len(outcome) == 0


class TestBatchWithCache:
    def test_second_batch_hits_cache(self):
        cache = CompilationCache()
        jobs = make_jobs(4)
        cold = run_jobs(jobs, cache=cache, executor="thread", max_workers=3)
        warm = run_jobs(jobs, cache=cache, executor="thread", max_workers=3)
        assert all(not entry.from_cache for entry in cold.results)
        assert all(entry.from_cache for entry in warm.results)
        assert warm.stats()["cached"] == 4
        for a, b in zip(cold.results, warm.results):
            assert a.result.ir_text() == b.result.ir_text()

    def test_process_foldback_does_not_rewrite_disk(self, tmp_path):
        """Workers already pickled fresh results to disk; the parent folds
        them into memory without re-serialising."""
        cache = CompilationCache(cache_dir=tmp_path)
        jobs = make_jobs(3)
        cold = run_jobs(jobs, cache=cache, executor="process", max_workers=2)
        assert cold.ok and all(not e.from_cache for e in cold.results)
        assert len(list(tmp_path.glob("*.pkl"))) == 3  # written by the workers
        assert cache.stats.disk_stores == 0  # ... not by the parent
        # ... but the parent's memory tier is warm.
        warm = run_jobs(jobs, cache=cache, executor="serial")
        assert all(e.from_cache for e in warm.results)
        assert cache.stats.disk_hits == 0

    def test_process_workers_share_disk_cache(self, tmp_path):
        cache = CompilationCache(cache_dir=tmp_path)
        jobs = make_jobs(3)
        run_jobs(jobs, cache=cache, executor="serial")

        # A fresh cache over the same directory: workers hit the disk tier,
        # and the parent's stats absorb those hits (so --json output of a
        # warm process batch actually reports hits).
        warm_cache = CompilationCache(cache_dir=tmp_path)
        warm = run_jobs(jobs, cache=warm_cache, executor="process", max_workers=2)
        assert all(entry.from_cache for entry in warm.results)
        assert warm_cache.stats.hits == 3
        assert warm_cache.stats.disk_hits == 3
        # ... and its memory tier is warm for follow-up serial/thread batches.
        assert len(warm_cache) == 3

    def test_process_batch_warms_from_memory_only_cache(self):
        """Without a disk tier the parent's in-memory cache still makes the
        second process batch warm (pre-checked before pool dispatch)."""
        cache = CompilationCache()  # no cache_dir
        jobs = make_jobs(3)
        cold = run_jobs(jobs, cache=cache, executor="process", max_workers=2)
        assert all(not e.from_cache for e in cold.results)
        warm = run_jobs(jobs, cache=cache, executor="process", max_workers=2)
        assert all(e.from_cache for e in warm.results)
        assert cache.stats.hits == 3
        for a, b in zip(cold.results, warm.results):
            assert a.result.ir_text() == b.result.ir_text()

    def test_failed_jobs_are_not_cached(self):
        cache = CompilationCache()
        jobs = [CompileJob(name="broken", sources=((BAD_SOURCE, "broken.td"),))]
        run_jobs(jobs, cache=cache, executor="serial")
        again = run_jobs(jobs, cache=cache, executor="serial")
        assert not again.results[0].from_cache
        assert cache.stats.stores == 0


class TestTpchSuiteBatch:
    def test_force_bypasses_cache(self):
        """TpchQuery.compile(force=True) really recompiles, cache or not."""
        from repro.queries import QUERIES

        query = QUERIES["q6"]
        cache = CompilationCache()
        first = query.compile(force=True, cache=cache)
        cache.put(cache.key_for(query.sources(), query.compile_job().options()), first)
        forced = query.compile(force=True, cache=cache)
        assert forced is not first  # a fresh compile, not the cached object
        assert cache.stats.hits == 0

    def test_compile_all_through_batch_driver(self):
        from repro.queries import ALL_QUERIES, compile_all

        fresh = [q for q in ALL_QUERIES]
        for query in fresh:
            query._compiled = None  # force a real batch compile
        results = compile_all(executor="thread", max_workers=4)
        assert set(results) == {q.name for q in ALL_QUERIES}
        # The batch results are memoised onto the query objects.
        for query in ALL_QUERIES:
            assert query._compiled is results[query.name]
            assert f"impl {query.top}" in results[query.name].ir_text()


class TestBackendTargets:
    def test_job_targets_produce_outputs(self):
        job_with_targets = make_jobs(1)[0].with_options(targets=("vhdl", "dot"))
        result = job_with_targets.compile()
        assert set(result.outputs) == {"vhdl", "dot"}
        assert any(name.endswith(".vhd") for name in result.outputs["vhdl"])

    def test_targets_participate_in_fingerprint(self):
        base = make_jobs(1)[0]
        assert base.fingerprint() != base.with_options(targets=("vhdl",)).fingerprint()
        # Duplicates are normalised away, so they do not split the cache.
        assert (
            base.with_options(targets=("vhdl", "vhdl")).fingerprint()
            == base.with_options(targets=("vhdl",)).fingerprint()
        )

    def test_batch_carries_backend_outputs_and_caches_them(self):
        cache = CompilationCache()
        jobs = [job.with_options(targets=("vhdl", "ir")) for job in make_jobs(3)]
        cold = run_jobs(jobs, cache=cache, executor="serial")
        assert cold.ok
        for entry in cold.results:
            assert set(entry.result.outputs) == {"vhdl", "ir"}
            assert entry.as_dict()["outputs"] == {
                "vhdl": len(entry.result.outputs["vhdl"]),
                "ir": len(entry.result.outputs["ir"]),
            }
        warm = run_jobs(jobs, cache=cache, executor="serial")
        assert all(entry.from_cache for entry in warm.results)
        for cold_entry, warm_entry in zip(cold.results, warm.results):
            assert warm_entry.result.outputs == cold_entry.result.outputs

    def test_unknown_target_is_isolated_error(self):
        jobs = [make_jobs(1)[0].with_options(targets=("systemc",))]
        outcome = run_jobs(jobs, executor="serial")
        assert not outcome.ok
        entry = outcome.results[0]
        assert entry.error_stage == "backend"
        assert "unknown backend" in entry.error


class TestWorkerCount:
    def test_explicit_workers_always_respected(self):
        from repro.pipeline.batch import _worker_count

        assert _worker_count("process", 32, 64) == 32
        assert _worker_count("thread", 32, 64) == 32
        assert _worker_count("process", 32, 4) == 4  # clamped to job count

    def test_defaults_are_executor_aware(self):
        import os

        from repro.pipeline.batch import _worker_count

        cpus = os.cpu_count() or 2
        assert _worker_count("thread", None, 1000) == min(cpus, 8)
        assert _worker_count("process", None, 1000) == cpus

    def test_serial_and_tiny_batches(self):
        from repro.pipeline.batch import _worker_count

        assert _worker_count("serial", 16, 100) == 1
        assert _worker_count("process", 16, 1) == 1
