"""Batch compilation pipeline: caching, concurrent fan-out, incrementality.

The frontend of Figure 3 (:func:`repro.lang.compile.compile_sources`) is a
pure function of its source texts and options.  This package exploits that:

* :mod:`repro.pipeline.cache` -- a content-addressed store of compilation
  results (in-memory LRU plus an optional on-disk tier under
  ``.tydi-cache/``), keyed by :func:`~repro.pipeline.cache.
  fingerprint_sources`, with size-aware disk eviction (``max_disk_bytes``).
* :mod:`repro.pipeline.stages` -- :class:`~repro.pipeline.stages.
  StageCache`, per-stage sub-caching (per-file parse ASTs + post-evaluate
  snapshots) so a one-file edit of an N-file design re-parses only that
  file and re-runs only evaluate -> sugar -> DRC.
* :mod:`repro.pipeline.remote` -- :class:`~repro.pipeline.remote.
  RemoteCacheClient`, the shared remote L2 tier both caches consult after
  their local misses (lookup order memory -> disk -> remote, write-behind
  uploads, graceful degradation when the remote dies); the server side is
  :mod:`repro.server.cachesvc`.
* :mod:`repro.pipeline.batch` -- :func:`~repro.pipeline.batch.run_jobs`,
  the concurrent job engine (serial / thread / process executors with
  per-design error isolation) that :meth:`repro.workspace.Workspace.
  compile_all` drives.

Incremental recompilation lives one level up: hold a
:class:`repro.workspace.Workspace` and mutate it at file granularity.

See ``docs/pipeline.md`` for the architecture and cache layout, and
``docs/workspace.md`` for the session API on top.
"""

from repro import lazy_exports

#: The executor kinds :func:`~repro.pipeline.batch.run_jobs` accepts.  Kept
#: here so :class:`~repro.workspace.Workspace` can validate its default
#: executor without importing the batch engine.
EXECUTORS = ("serial", "thread", "process")

__all__ = [
    "BatchCompilationError",
    "BatchResult",
    "CacheStats",
    "CompilationCache",
    "CompileJob",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_CACHE_PORT",
    "JobResult",
    "RemoteCacheClient",
    "STAGE_SCHEMA_VERSION",
    "StageCache",
    "StageStats",
    "file_fingerprint",
    "fingerprint_sources",
    "normalize_sources",
    "parse_endpoint",
    "run_jobs",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.pipeline.batch": (
            "BatchCompilationError",
            "BatchResult",
            "CompileJob",
            "JobResult",
            "run_jobs",
        ),
        "repro.pipeline.cache": (
            "CacheStats",
            "CompilationCache",
            "DEFAULT_CACHE_DIR",
            "STAGE_SCHEMA_VERSION",
            "StageStats",
            "file_fingerprint",
            "fingerprint_sources",
            "normalize_sources",
        ),
        "repro.pipeline.remote": ("DEFAULT_CACHE_PORT", "RemoteCacheClient", "parse_endpoint"),
        "repro.pipeline.stages": ("StageCache",),
    },
)
