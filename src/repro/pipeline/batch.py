"""The concurrent compile-job engine.

A :class:`CompileJob` is a pure-data description of one frontend run (sources
plus a :class:`~repro.lang.compile.CompileOptions`), which makes it hashable
into a content address and shippable to worker processes.  :func:`run_jobs`
fans a sequence of jobs out over a ``serial``, ``thread`` or ``process``
executor with per-job error isolation: one design failing its parse or DRC
records a :class:`JobResult` error entry instead of aborting the batch.

The engine is driven by :meth:`repro.workspace.Workspace.compile_all` --
the session API that owns design state.

Determinism: the frontend is pure, so batch output is byte-identical to
compiling the same jobs serially (asserted by
``benchmarks/test_pipeline_throughput.py``).

Cache interaction
-----------------
* ``serial`` / ``thread``: workers share the caller's
  :class:`~repro.pipeline.cache.CompilationCache` instance directly --
  including its per-stage sub-cache (:class:`~repro.pipeline.stages.
  StageCache`), so whole-result misses still reuse unchanged files' parse
  ASTs and warm evaluate snapshots.
* ``process``: the cache object cannot be shared, so workers get the cache's
  *directory* and hit/populate the on-disk tiers (whole-result artefacts and
  ``stages/``); the parent folds finished results back into its in-memory
  tier.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.pipeline import EXECUTORS
from repro.pipeline.cache import CompilationCache

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lang.compile import CompilationResult, CompileOptions


@dataclass(frozen=True)
class CompileJob:
    """One independent design to compile (pure data, picklable)."""

    name: str
    sources: tuple[tuple[str, str], ...]
    top: Optional[str] = None
    top_args: tuple = ()
    include_stdlib: bool = True
    sugaring: bool = True
    run_drc: bool = True
    strict_drc: bool = True
    project_name: Optional[str] = None
    #: Output backends to run for this design (see :mod:`repro.backends`);
    #: participates in the content address, so requesting a new target is a
    #: whole-result miss that still reuses every per-stage artefact.
    targets: tuple[str, ...] = ()
    #: Per-backend emission options in the normal form of
    #: :attr:`repro.lang.compile.CompileOptions.backend_options`.
    backend_options: tuple[tuple[str, object], ...] = ()

    def compile_options(self) -> "CompileOptions":
        """This job's options as the canonical frozen dataclass."""
        from repro.lang.compile import CompileOptions

        return CompileOptions(
            top=self.top,
            top_args=self.top_args,
            include_stdlib=self.include_stdlib,
            sugaring=self.sugaring,
            run_drc=self.run_drc,
            strict_drc=self.strict_drc,
            project_name=self.project_name or self.name,
            targets=self.targets,
            backend_options=self.backend_options,
        )

    def options(self) -> dict[str, object]:
        """The legacy ``compile_sources`` keyword-options dict (mutable)."""
        return self.compile_options().as_dict()

    def fingerprint(self) -> str:
        """Content address of this job (sources + options + stdlib)."""
        return self.compile_options().fingerprint(self.sources)

    def with_options(self, **changes: object) -> "CompileJob":
        """A copy of this job with some option fields replaced."""
        return replace(self, **changes)

    def compile(self, *, cache: Optional[CompilationCache] = None) -> "CompilationResult":
        """Compile this job directly (no executor, no error isolation)."""
        from repro.lang.compile import compile_sources

        return compile_sources(
            list(self.sources), options=self.compile_options(), cache=cache
        )


@dataclass
class JobResult:
    """Outcome of one job: a result, or an isolated error."""

    job: CompileJob
    result: Optional["CompilationResult"] = None
    error: Optional[str] = None
    error_stage: Optional[str] = None
    error_type: Optional[str] = None
    elapsed: float = 0.0
    from_cache: bool = False
    #: Content address of the job, when a cache was in play (lets the
    #: process-executor fold reuse the worker's hash instead of recomputing).
    key: Optional[str] = None

    @property
    def name(self) -> str:
        return self.job.name

    @property
    def ok(self) -> bool:
        return self.error is None

    def status(self) -> str:
        if not self.ok:
            return "error"
        return "cached" if self.from_cache else "compiled"

    def as_dict(self) -> dict[str, object]:
        """JSON-ready summary (used by ``tydi-compile --batch --json``)."""
        entry: dict[str, object] = {
            "name": self.name,
            "status": self.status(),
            "elapsed": round(self.elapsed, 6),
        }
        if self.ok:
            entry["statistics"] = self.result.project.statistics()
            if self.result.outputs:
                entry["outputs"] = {
                    target: len(files) for target, files in self.result.outputs.items()
                }
        else:
            entry["error"] = self.error
            entry["error_stage"] = self.error_stage
            entry["error_type"] = self.error_type
        return entry


@dataclass
class BatchResult:
    """All job results of one batch, in the input job order."""

    results: list[JobResult]
    wall_time: float
    executor: str
    workers: int

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list[JobResult]:
        return [r for r in self.results if not r.ok]

    def result_map(self) -> dict[str, "CompilationResult"]:
        """Successful results by job name."""
        return {r.name: r.result for r in self.results if r.ok}

    def raise_if_failed(self) -> None:
        """Re-raise the first failure (for callers that want all-or-nothing)."""
        for entry in self.results:
            if not entry.ok:
                raise BatchCompilationError(self)

    def stats(self) -> dict[str, object]:
        compiled = sum(1 for r in self.results if r.ok and not r.from_cache)
        cached = sum(1 for r in self.results if r.ok and r.from_cache)
        return {
            "jobs": len(self.results),
            "succeeded": compiled + cached,
            "failed": len(self.failures),
            "compiled": compiled,
            "cached": cached,
            "executor": self.executor,
            "workers": self.workers,
            "wall_time": round(self.wall_time, 6),
            "job_time_total": round(sum(r.elapsed for r in self.results), 6),
            "throughput": round(len(self.results) / self.wall_time, 3)
            if self.wall_time > 0
            else None,
        }


class BatchCompilationError(Exception):
    """Raised by :meth:`BatchResult.raise_if_failed` when any job failed."""

    def __init__(self, batch: BatchResult) -> None:
        self.batch = batch
        lines = [f"{len(batch.failures)} of {len(batch)} design(s) failed to compile:"]
        for entry in batch.failures:
            lines.append(f"  {entry.name} [{entry.error_stage or 'unknown'}]: {entry.error}")
        super().__init__("\n".join(lines))


def _execute_job(job: CompileJob, cache: Optional[CompilationCache]) -> JobResult:
    """Compile one job with error isolation; shared by every executor."""
    start = time.perf_counter()
    key: Optional[str] = None
    try:
        stage_cache = None
        if cache is not None:
            key = job.fingerprint()
            hit = cache.get(key)
            if hit is not None:
                return JobResult(
                    job=job,
                    result=hit,
                    elapsed=time.perf_counter() - start,
                    from_cache=True,
                    key=key,
                )
            stage_cache = getattr(cache, "stages", None)
        if stage_cache is not None:
            # Whole-result miss, but the per-stage tiers may still hold the
            # unchanged files' ASTs and the design's evaluate snapshot.
            result = stage_cache.compile(job.sources, job.options())
        else:
            from repro.lang.compile import compile_sources

            result = compile_sources(list(job.sources), **job.options())
        if cache is not None and key is not None:
            cache.put(key, result)
        return JobResult(job=job, result=result, elapsed=time.perf_counter() - start, key=key)
    except Exception as exc:  # noqa: BLE001 - isolation is the whole point
        return JobResult(
            job=job,
            error=str(exc) or traceback.format_exc(limit=1).strip(),
            error_stage=getattr(exc, "stage", None),
            error_type=type(exc).__name__,
            elapsed=time.perf_counter() - start,
        )


def _process_worker(
    job: CompileJob, cache_dir: Optional[str], max_disk_bytes: Optional[int] = None
) -> JobResult:
    """Process-pool entry point: rebuild a disk-backed cache in the worker."""
    cache = (
        CompilationCache(cache_dir=cache_dir, max_disk_bytes=max_disk_bytes)
        if cache_dir
        else None
    )
    return _execute_job(job, cache)


def _worker_count(executor: str, max_workers: Optional[int], num_jobs: int) -> int:
    """Resolve the effective worker count for one batch.

    An explicit ``max_workers`` is always respected (clamped to the job
    count).  The *default* is executor-aware: the frontend is pure Python,
    so threads only overlap the GIL-releasing slices (disk-cache I/O,
    pickling) and more than a handful adds contention rather than
    parallelism -- hence the small thread cap.  Processes sidestep the GIL
    entirely, so their default is the full CPU count.  (Historically both
    defaults were capped at 8, under-using wide machines for process
    batches.)
    """
    if executor == "serial" or num_jobs <= 1:
        return 1
    if max_workers is not None:
        return max(1, min(max_workers, num_jobs))
    cpus = os.cpu_count() or 2
    workers = min(cpus, 8) if executor == "thread" else cpus
    return max(1, min(workers, num_jobs))


def run_jobs(
    jobs: Sequence[CompileJob],
    *,
    cache: Optional[CompilationCache] = None,
    executor: str = "thread",
    max_workers: Optional[int] = None,
) -> BatchResult:
    """Compile every job through one executor; failures are recorded per job.

    The shared engine under :meth:`repro.workspace.Workspace.compile_all`.

    Parameters
    ----------
    cache:
        A shared :class:`~repro.pipeline.cache.CompilationCache`; jobs whose
        fingerprint hits skip compilation entirely.
    executor:
        ``"serial"``, ``"thread"`` or ``"process"``.  Threads share the
        in-memory cache; processes share only its disk tier.
    max_workers:
        Worker count for the concurrent executors.  Defaults are
        executor-aware (see :func:`_worker_count`): CPU count for
        processes, CPU count capped at 8 for threads (the pure-Python
        frontend holds the GIL, so extra threads add contention, not
        parallelism).  An explicit value is always respected.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    jobs = list(jobs)
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate job name(s) in batch: {', '.join(dupes)}")

    start = time.perf_counter()
    workers = _worker_count(executor, max_workers, len(jobs))
    if executor == "serial" or workers == 1:
        results = [_execute_job(job, cache) for job in jobs]
        executor_name = "serial"
    elif executor == "thread":
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda job: _execute_job(job, cache), jobs))
        executor_name = "thread"
    else:
        from concurrent.futures import ProcessPoolExecutor

        cache_dir = (
            str(cache.cache_dir)
            if cache is not None and getattr(cache, "cache_dir", None) is not None
            else None
        )
        # Check the parent's in-memory tier before paying pool dispatch:
        # workers can only see the disk tier, so without this a
        # memory-only cache would never produce a warm process batch.
        hits: dict[int, JobResult] = {}
        pending: list[CompileJob] = []
        if cache is not None:
            for index, job in enumerate(jobs):
                key = job.fingerprint()
                hit = cache.get(key)
                if hit is not None:
                    hits[index] = JobResult(job=job, result=hit, from_cache=True, key=key)
                else:
                    pending.append(job)
        else:
            pending = jobs
        max_disk_bytes = getattr(cache, "max_disk_bytes", None) if cache is not None else None
        with ProcessPoolExecutor(max_workers=workers) as pool:
            compiled = list(
                pool.map(
                    _process_worker,
                    pending,
                    [cache_dir] * len(pending),
                    [max_disk_bytes] * len(pending),
                )
            )
        compiled_iter = iter(compiled)
        results = [hits.get(i) or next(compiled_iter) for i in range(len(jobs))]
        # Fold worker output back into the parent's cache: results into
        # the in-memory tier (the workers already wrote the disk
        # artefacts, so skip re-pickling those), and the workers'
        # hit/miss activity into the parent's stats so e.g.
        # ``tydi-compile --json`` reports a warm process batch as warm.
        # Parent-side hits above already counted themselves via get().
        if cache is not None:
            for entry in compiled:
                if not entry.ok:
                    continue
                key = entry.key or entry.job.fingerprint()
                if entry.from_cache:
                    cache.absorb_hit(key, entry.result)
                else:
                    cache.put(key, entry.result, disk=cache_dir is None)
            # The disk-skipping fold above bypasses the per-store budget
            # check, so settle the batch's disk growth in one pass here.
            cache.enforce_disk_budget()
        executor_name = "process"
    return BatchResult(
        results=results,
        wall_time=time.perf_counter() - start,
        executor=executor_name,
        workers=workers,
    )
