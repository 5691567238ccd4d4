"""The ``Workspace``: one durable compiler session owning sources, options,
caches and artefact queries.

The paper's Figure-3 pipeline is batch-oriented -- sources in, artefacts
out -- but every long-lived consumer of a compiler (an editor, a build
service, a watch loop) holds the *same* project across many small edits and
asks for artefacts repeatedly.  A :class:`Workspace` is that session object,
in the query-style shape of persistent-project toolchains (the Tydi-lang
compiler manual structures the toolchain as a project the tools query;
Hardcaml exposes the design as a durable host-language object simulation
and emission are queries over):

* it owns a default :class:`~repro.lang.compile.CompileOptions` and the
  cache stack (a :class:`~repro.pipeline.cache.CompilationCache` with its
  per-stage :class:`~repro.pipeline.stages.StageCache`, built internally
  from one ``cache_dir=`` / ``max_cache_mb=`` pair),
* it holds a named set of **designs**, each a ``{filename: source_text}``
  store plus options, mutated at file granularity --
  :meth:`~Workspace.add_design`, :meth:`~Workspace.update_file`,
  :meth:`~Workspace.remove_file`, :meth:`~Workspace.remove_design`,
* artefacts are lazy, memoised **queries** -- :meth:`~Workspace.result`,
  :meth:`~Workspace.ir`, :meth:`~Workspace.outputs`,
  :meth:`~Workspace.diagnostics`, :meth:`~Workspace.report` -- computed on
  first demand and invalidated by content fingerprint, so an
  ``update_file`` that re-writes identical text invalidates nothing and a
  one-file edit recompiles through the warm stage cache (re-parsing only
  that file),
* :meth:`~Workspace.compile_all` brings every design up to date through
  the concurrent job engine (:func:`~repro.pipeline.batch.run_jobs`:
  serial / thread / process executors with per-design error isolation).

Thread-safety contract: every query takes a per-design lock, so concurrent
queries (including against the same design) are safe; mutation methods take
the same lock, so a mutator and a query serialise per design while queries
on *different* designs run fully in parallel.  ``compile_all`` snapshots
the dirty set, compiles it outside the locks, and folds results back only
where the design's fingerprint still matches -- a design edited mid-build
simply stays stale.  See ``docs/workspace.md``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.errors import TydiWorkspaceError
from repro.lang.compile import (
    CompileOptions,
    normalize_sources,
    run_pipeline,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lang.compile import CompilationResult
    from repro.pipeline.batch import BatchResult, CompileJob

#: Sentinel distinguishing "no cache argument" (build one) from an explicit
#: ``cache=None`` (run with no cache at all -- the compile_sources shim).
_AUTO_CACHE = object()


@dataclass
class BuildReport:
    """What one :meth:`Workspace.compile_all` round did."""

    compiled: list[str] = field(default_factory=list)
    reused: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    results: dict[str, "CompilationResult"] = field(default_factory=dict)
    #: Per recompiled design: the filenames whose content fingerprints
    #: differ from the previous successful build (new designs list every
    #: file; an option-only change legitimately lists none).
    changed_files: dict[str, list[str]] = field(default_factory=dict)
    #: Per recompiled design: the filenames carried over unchanged (their
    #: parse artefacts are served from the stage cache, not re-parsed).
    unchanged_files: dict[str, list[str]] = field(default_factory=dict)
    #: The underlying engine outcome for the dirty subset (per-design
    #: timing, cache provenance, executor/worker accounting).
    batch: Optional["BatchResult"] = None

    @property
    def ok(self) -> bool:
        return not self.failed

    def summary(self) -> str:
        return (
            f"{len(self.compiled)} recompiled, {len(self.reused)} reused, "
            f"{len(self.failed)} failed"
        )

    def file_summary(self) -> str:
        changed = sum(len(v) for v in self.changed_files.values())
        unchanged = sum(len(v) for v in self.unchanged_files.values())
        return f"{changed} file(s) re-parsed, {unchanged} file(s) reused"


class _Design:
    """One named design of the session: files, options, memoised artefacts."""

    __slots__ = (
        "name",
        "files",
        "options",
        "kind",
        "lock",
        "memo_key",
        "memo_result",
        "memo_error",
        "extra_outputs",
        "sim_reports",
        "built_file_keys",
    )

    def __init__(
        self,
        name: str,
        files: dict[str, str],
        options: CompileOptions,
        *,
        kind: str = "lang",
    ) -> None:
        self.name = name
        self.files = files  # filename -> source text, insertion-ordered
        self.options = options
        #: Frontend of this design: ``"lang"`` (Tydi-lang sources through
        #: parse+evaluate) or ``"ir"`` (one Tydi-IR interchange document
        #: through the ingest frontend, :mod:`repro.interchange`).
        self.kind = kind
        self.lock = threading.RLock()
        #: Fingerprint the memo below belongs to (None: never computed).
        self.memo_key: Optional[str] = None
        self.memo_result: Optional["CompilationResult"] = None
        self.memo_error: Optional[BaseException] = None
        #: Lazily-emitted backend outputs beyond ``options.targets``,
        #: keyed by backend name; cleared whenever the memo turns over.
        self.extra_outputs: dict[str, dict[str, str]] = {}
        #: Memoised simulation reports keyed by plan fingerprint, valid for
        #: the current ``memo_key``; cleared whenever the memo turns over.
        self.sim_reports: dict[str, object] = {}
        #: Per-file fingerprints of the last *successful* build (None until
        #: one succeeds); drives the changed/unchanged file reporting.
        self.built_file_keys: Optional[dict[str, str]] = None

    def normalized_sources(self) -> tuple[tuple[str, str], ...]:
        return tuple((text, filename) for filename, text in self.files.items())

    def fingerprint(self) -> str:
        fingerprint = self.options.fingerprint(self.normalized_sources())
        if self.kind != "lang":
            # Salt non-lang kinds: the same bytes as a Tydi-lang source and
            # as an interchange document are different artefacts and must
            # never share a memo/cache identity.
            import hashlib

            return hashlib.sha256(
                f"kind={self.kind}\x00{fingerprint}".encode()
            ).hexdigest()
        return fingerprint

    def file_keys(self) -> dict[str, str]:
        from repro.pipeline.cache import file_fingerprint

        return {
            filename: file_fingerprint(text, filename)
            for filename, text in self.files.items()
        }

    def drop_memo(self) -> None:
        self.memo_key = None
        self.memo_result = None
        self.memo_error = None
        self.extra_outputs.clear()
        self.sim_reports.clear()


class Workspace:
    """A long-lived compile session: designs in, memoised artefact queries out.

    Parameters
    ----------
    cache:
        The result cache to compile through.  Omit it (the default) to have
        the workspace build its own cache stack; pass an existing
        :class:`~repro.pipeline.cache.CompilationCache` (or any duck-typed
        result cache) to share one across sessions; pass ``None`` to run
        with no cache at all (every stale query recompiles from scratch --
        the session memo still serves repeated queries).
    cache_dir / max_cache_mb:
        When the workspace builds its own cache: the on-disk store location
        and its size budget in megabytes (LRU-evicted).  Only valid without
        an explicit ``cache``; ``max_cache_mb`` requires ``cache_dir``.
    remote_cache:
        When the workspace builds its own cache: the shared remote L2 tier
        -- a ``host:port`` endpoint string (see :mod:`repro.pipeline.
        remote`) or an existing :class:`~repro.pipeline.remote.
        RemoteCacheClient`.  Consulted after memory and disk miss; a dead
        remote degrades to local-only.  Only valid without an explicit
        ``cache`` (attach the client to that cache yourself instead).
    options:
        Default :class:`~repro.lang.compile.CompileOptions` (or mapping)
        for designs added without their own.
    executor / jobs:
        Defaults for :meth:`compile_all` (``"serial"`` / ``"thread"`` /
        ``"process"``, and the worker count).
    label:
        Optional human-readable name for this session, echoed by
        :meth:`stats` and :meth:`report` when set.  The worker pool labels
        each worker's workspace (``worker-0``, ``worker-1``, ...) so
        aggregated stats stay attributable to their shard.
    """

    def __init__(
        self,
        *,
        cache=_AUTO_CACHE,
        cache_dir=None,
        max_cache_mb: Optional[float] = None,
        remote_cache=None,
        options: CompileOptions | Mapping[str, object] | None = None,
        executor: str = "thread",
        jobs: Optional[int] = None,
        label: Optional[str] = None,
    ) -> None:
        from repro.pipeline import EXECUTORS

        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if cache is not _AUTO_CACHE and (
            cache_dir is not None or max_cache_mb is not None or remote_cache is not None
        ):
            raise TydiWorkspaceError(
                "pass either an existing cache= or "
                "cache_dir=/max_cache_mb=/remote_cache=, not both"
            )
        if cache is _AUTO_CACHE:
            from repro.pipeline.cache import CompilationCache

            max_disk_bytes = None
            if max_cache_mb is not None:
                if max_cache_mb < 0:
                    raise TydiWorkspaceError("max_cache_mb must be >= 0")
                if cache_dir is None:
                    raise TydiWorkspaceError("max_cache_mb requires cache_dir")
                max_disk_bytes = int(max_cache_mb * 1024 * 1024)
            cache = CompilationCache(
                cache_dir=cache_dir,
                max_disk_bytes=max_disk_bytes,
                remote=remote_cache,
            )
        self.cache = cache
        self.default_options = CompileOptions.coerce(options)
        self.executor = executor
        self.jobs = jobs
        self.label = label
        self._designs: dict[str, _Design] = {}
        self._lock = threading.Lock()

    # -- the design store ------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._designs

    def __len__(self) -> int:
        with self._lock:
            return len(self._designs)

    @property
    def design_names(self) -> list[str]:
        """Names of every design, in insertion (then last-replaced) order."""
        with self._lock:
            return list(self._designs)

    def _design(self, name: str) -> _Design:
        with self._lock:
            design = self._designs.get(name)
        if design is None:
            known = ", ".join(self.design_names) or "none"
            raise TydiWorkspaceError(f"no design named {name!r} (designs: {known})")
        return design

    def add_design(
        self,
        name: str,
        files: Sequence[tuple[str, str]] | Sequence[str] | Mapping[str, str] = (),
        options: CompileOptions | Mapping[str, object] | None = None,
        *,
        replace: bool = False,
    ) -> None:
        """Register (or with ``replace``, wholesale-update) a named design.

        ``files`` takes any shape :func:`~repro.lang.compile.
        normalize_sources` accepts.  ``options`` defaults to the workspace's
        ``default_options``.  Replacing keeps the design's memoised
        artefacts when the replacement is content-identical (the fingerprint
        decides, not object identity), and moves the design to the end of
        the compile order.
        """
        if not isinstance(name, str) or not name:
            raise TydiWorkspaceError(f"design name must be a non-empty string, got {name!r}")
        normalized = normalize_sources(files)
        resolved = (
            self.default_options if options is None else CompileOptions.coerce(options)
        )
        file_map = {filename: text for text, filename in normalized}
        with self._lock:
            existing = self._designs.get(name)
            if existing is not None and not replace:
                raise TydiWorkspaceError(
                    f"design {name!r} already exists (pass replace=True to update it)"
                )
            if existing is None:
                self._designs[name] = _Design(name, file_map, resolved)
                return
            with existing.lock:
                existing.files = file_map
                existing.options = resolved
                existing.kind = "lang"
            # Move the replaced design to the end: compile_all order then
            # mirrors the caller's latest job order (what the incremental
            # adapter relies on for report ordering).
            self._designs[name] = self._designs.pop(name)

    def add_ir_design(
        self,
        name: str,
        text: str,
        options: CompileOptions | Mapping[str, object] | None = None,
        *,
        replace: bool = False,
        filename: Optional[str] = None,
    ) -> None:
        """Register a design whose frontend is one Tydi-IR interchange document.

        The document (e.g. a ``tydi-ir`` backend emission, see
        :mod:`repro.interchange`) is stored as the design's single file
        (``filename``, default ``<name>.tir``; the CLI passes the real
        path so ingest diagnostics name it) and compiled through the
        ingest pipeline instead of parse+evaluate; every downstream query
        -- :meth:`result`, :meth:`outputs`, :meth:`simulate`,
        :meth:`report` -- then behaves exactly as for a Tydi-lang design.
        ``update_file`` on the stored filename swaps the document; the
        evaluate-only options (``top`` / ``include_stdlib`` / ...) are
        ignored, as the document itself carries the project name and top
        declaration.
        """
        if not isinstance(name, str) or not name:
            raise TydiWorkspaceError(f"design name must be a non-empty string, got {name!r}")
        if not isinstance(text, str):
            raise TydiWorkspaceError(
                f"add_ir_design expects the document as a string, got {type(text).__name__}"
            )
        resolved = (
            self.default_options if options is None else CompileOptions.coerce(options)
        )
        file_map = {filename or f"{name}.tir": text}
        with self._lock:
            existing = self._designs.get(name)
            if existing is not None and not replace:
                raise TydiWorkspaceError(
                    f"design {name!r} already exists (pass replace=True to update it)"
                )
            if existing is None:
                self._designs[name] = _Design(name, file_map, resolved, kind="ir")
                return
            with existing.lock:
                existing.files = file_map
                existing.options = resolved
                existing.kind = "ir"
            self._designs[name] = self._designs.pop(name)

    def add_job(self, job: "CompileJob", *, replace: bool = False) -> None:
        """Register a :class:`~repro.pipeline.batch.CompileJob` as a design."""
        self.add_design(job.name, job.sources, job.compile_options(), replace=replace)

    def remove_design(self, name: str) -> None:
        with self._lock:
            if self._designs.pop(name, None) is None:
                known = ", ".join(self._designs) or "none"
                raise TydiWorkspaceError(f"no design named {name!r} (designs: {known})")

    def update_file(self, design: str, filename: str, text: str) -> None:
        """Set one file's source text (adding the file if it is new).

        Re-writing identical text is a no-op for invalidation: queries are
        keyed by content fingerprint, so only a real change makes the
        design's memoised artefacts stale.
        """
        if not isinstance(text, str) or not isinstance(filename, str):
            raise TydiWorkspaceError(
                f"update_file expects string filename and text, got "
                f"({type(filename).__name__}, {type(text).__name__})"
            )
        entry = self._design(design)
        with entry.lock:
            entry.files[filename] = text

    def remove_file(self, design: str, filename: str) -> None:
        entry = self._design(design)
        with entry.lock:
            if filename not in entry.files:
                known = ", ".join(entry.files) or "none"
                raise TydiWorkspaceError(
                    f"design {design!r} has no file {filename!r} (files: {known})"
                )
            del entry.files[filename]

    def files(self, design: str) -> dict[str, str]:
        """A copy of one design's ``{filename: source_text}`` store."""
        entry = self._design(design)
        with entry.lock:
            return dict(entry.files)

    def options_for(self, design: str) -> CompileOptions:
        return self._design(design).options

    def set_options(
        self, design: str, options: CompileOptions | Mapping[str, object]
    ) -> None:
        """Replace one design's compile options (queries become stale)."""
        entry = self._design(design)
        resolved = CompileOptions.coerce(options)
        with entry.lock:
            entry.options = resolved

    def fingerprint(self, design: str) -> str:
        """The design's current content address (sources + options)."""
        entry = self._design(design)
        with entry.lock:
            return entry.fingerprint()

    def is_fresh(self, design: str) -> bool:
        """Whether the design's memoised artefacts match its current content."""
        entry = self._design(design)
        with entry.lock:
            return entry.memo_key == entry.fingerprint() and entry.memo_error is None

    # -- queries ---------------------------------------------------------------

    def result(self, name: str) -> "CompilationResult":
        """The design's :class:`~repro.lang.compile.CompilationResult`.

        Computed on first demand, memoised until the design's fingerprint
        moves.  A failing compilation raises (and the failure itself is
        memoised: re-querying an unchanged broken design re-raises without
        recompiling -- the frontend is deterministic, so the outcome could
        not differ).  Treat the returned result as immutable; it may be
        shared with the cache and with other queries.
        """
        entry = self._design(name)
        with entry.lock:
            key = entry.fingerprint()
            if entry.memo_key == key:
                if entry.memo_error is not None:
                    raise entry.memo_error
                assert entry.memo_result is not None
                return entry.memo_result
            try:
                result = self._compute(entry)
            except Exception as exc:
                entry.memo_key = key
                entry.memo_result = None
                # Memoise the exception *without* its traceback: the frames
                # pin every stage's locals (source texts, ASTs) in memory
                # for as long as the design stays broken, and re-raising
                # rebuilds a fresh traceback anyway.
                exc.__traceback__ = None
                entry.memo_error = exc
                entry.extra_outputs.clear()
                entry.sim_reports.clear()
                entry.built_file_keys = None
                raise
            self._fold_success(entry, key, result)
            return result

    def ir(self, name: str) -> str:
        """The design's textual Tydi-IR."""
        return self.result(name).ir_text()

    def diagnostics(self, name: str):
        """The design's :class:`~repro.errors.DiagnosticSink`."""
        return self.result(name).diagnostics

    def outputs(self, name: str, target: str) -> dict[str, str]:
        """One backend's emitted ``{filename: text}`` for the design.

        Targets named in the design's options are served from the compiled
        result; any *other* registered backend is emitted lazily on first
        demand (through the per-implementation backend-output cache when
        the workspace owns a stage cache) and memoised until the design
        changes.  The design's ``backend_options`` apply either way.
        """
        entry = self._design(name)
        result = self.result(name)  # takes/releases the design lock
        with entry.lock:
            if target in result.outputs:
                return result.outputs[target]
            cached = entry.extra_outputs.get(target)
            if cached is not None:
                return cached
            from repro.backends import get_backend

            backend = get_backend(target, entry.options.backend_options_for(target))
            stage_cache = getattr(self.cache, "stages", None)
            if stage_cache is not None:
                files = stage_cache.emit_backend(result.project, backend)
                stage_cache.enforce_disk_budget()
            else:
                files = backend.emit(result.project)
            entry.extra_outputs[target] = files
            return files

    def simulate(self, name: str, plan=None):
        """The design's :class:`~repro.sim.harness.SimulationReport` under
        one :class:`~repro.sim.harness.SimulationPlan`.

        A lazy memoised query like :meth:`ir`/:meth:`outputs`: computed on
        first demand per (design content, plan) pair, memoised until the
        design's fingerprint moves, and -- when the workspace owns a stage
        cache -- served through the ``sim:`` cache tier (memory -> disk ->
        remote L2, keyed on evaluate fingerprint + plan fingerprint), so a
        repeat simulation of an unchanged design is a cache hit fleet-wide.

        ``plan`` is a :class:`~repro.sim.harness.SimulationPlan`, a mapping
        of its fields, or ``None`` for the default plan.  Compilation
        failures raise exactly like :meth:`result`; simulation failures
        (missing behaviours, budget exhaustion) raise a structured
        :class:`~repro.errors.TydiSimulationError` and are never memoised.
        """
        from repro.sim.harness import SimulationPlan, run_simulation

        plan = SimulationPlan.coerce(plan)
        entry = self._design(name)
        result = self.result(name)  # takes/releases the design lock
        with entry.lock:
            plan_fp = plan.fingerprint()
            cached = entry.sim_reports.get(plan_fp)
            if cached is not None:
                return cached
            stage_cache = getattr(self.cache, "stages", None)
            if stage_cache is not None:
                key = stage_cache.sim_key(
                    entry.normalized_sources(), entry.options.as_dict(), plan
                )
                report = stage_cache.cached_simulation(
                    key, lambda: run_simulation(result.project, plan)
                )
                stage_cache.enforce_disk_budget()
            else:
                report = run_simulation(result.project, plan)
            entry.sim_reports[plan_fp] = report
            return report

    def cached_result(self, name: str) -> Optional["CompilationResult"]:
        """The memoised result if it is fresh and successful, else ``None``.

        Never compiles -- a non-raising peek for status reporting.
        """
        with self._lock:
            entry = self._designs.get(name)
        if entry is None:
            return None
        with entry.lock:
            if entry.memo_key == entry.fingerprint() and entry.memo_error is None:
                return entry.memo_result
        return None

    def report(self) -> dict[str, object]:
        """A JSON-ready snapshot of the session: designs, freshness, caches."""
        designs: dict[str, object] = {}
        for name in self.design_names:
            with self._lock:
                entry = self._designs.get(name)
            if entry is None:
                continue
            with entry.lock:
                fresh = entry.memo_key == entry.fingerprint()
                if not fresh:
                    status = "stale"
                elif entry.memo_error is not None:
                    status = "error"
                else:
                    status = "fresh"
                designs[name] = {
                    "files": len(entry.files),
                    "status": status,
                    "kind": entry.kind,
                    "targets": list(entry.options.targets),
                }
        cache_stats, stage_stats = self._cache_snapshots()
        snapshot: dict[str, object] = {
            "designs": designs,
            "cache": cache_stats,
            "stage_cache": stage_stats,
        }
        if self.label is not None:
            snapshot["label"] = self.label
        return snapshot

    def stats(self) -> dict[str, object]:
        """A JSON-ready counters snapshot: design freshness + cache tiers.

        The lighter-weight sibling of :meth:`report` behind the compile
        service's ``stats`` endpoint: per-status design counts instead of
        the per-design listing, and every cache counter read through the
        owning cache's locked ``stats_snapshot()`` so concurrent compiles
        can never be observed as a torn counter set.
        """
        counts = {"total": 0, "fresh": 0, "stale": 0, "error": 0}
        for name in self.design_names:
            with self._lock:
                entry = self._designs.get(name)
            if entry is None:
                continue
            with entry.lock:
                counts["total"] += 1
                if entry.memo_key != entry.fingerprint():
                    counts["stale"] += 1
                elif entry.memo_error is not None:
                    counts["error"] += 1
                else:
                    counts["fresh"] += 1
        cache_stats, stage_stats = self._cache_snapshots()
        snapshot: dict[str, object] = {
            "designs": counts,
            "cache": cache_stats,
            "stage_cache": stage_stats,
        }
        from repro.profiling import PROFILER

        if PROFILER.enabled:
            # Per-stage wall/CPU timers (opt-in via TYDI_PROFILE_STAGES or
            # --profile-stages); rides the stats plumbing unchanged through
            # the compile service's ``stats`` endpoint.
            snapshot["profiling"] = PROFILER.snapshot()
        if self.label is not None:
            snapshot["label"] = self.label
        return snapshot

    def _cache_snapshots(self) -> tuple[Optional[dict], Optional[dict]]:
        """Locked counter snapshots of the cache stack (each may be None).

        Prefers the cache's ``stats_snapshot()`` (counters copied under the
        cache's own lock -- never torn); duck-typed caches without one fall
        back to their raw ``stats.as_dict()``.
        """
        cache_stats = None
        if self.cache is not None:
            snapshot = getattr(self.cache, "stats_snapshot", None)
            if snapshot is not None:
                cache_stats = snapshot()
            else:
                stats = getattr(self.cache, "stats", None)
                cache_stats = stats.as_dict() if stats is not None else None
        stage_stats = None
        stage_cache = getattr(self.cache, "stages", None)
        if stage_cache is not None:
            snapshot = getattr(stage_cache, "stats_snapshot", None)
            if snapshot is not None:
                stage_stats = snapshot()
            else:
                stats = getattr(stage_cache, "stats", None)
                stage_stats = stats.as_dict() if stats is not None else None
        return cache_stats, stage_stats

    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop memoised artefacts (one design, or all of them).

        The cache stack is untouched -- re-queries still hit warm stage
        artefacts; this only forces the session to re-consult it.
        """
        if name is not None:
            entry = self._design(name)  # unknown names still raise
            with entry.lock:
                entry.drop_memo()
            return
        for design_name in self.design_names:
            with self._lock:
                entry = self._designs.get(design_name)
            if entry is None:
                continue  # removed concurrently: nothing left to invalidate
            with entry.lock:
                entry.drop_memo()

    # -- bulk compilation ------------------------------------------------------

    def compile_all(
        self,
        *,
        executor: Optional[str] = None,
        jobs: Optional[int] = None,
    ) -> BuildReport:
        """Bring every design's memo up to date; failures are isolated.

        Fresh designs are *reused* (their memoised result is handed back
        untouched); stale or failed ones are compiled through the shared
        job engine (:func:`repro.pipeline.batch.run_jobs`) -- concurrently
        for ``executor="thread"``/``"process"`` -- and their memos updated.
        A design that fails records an entry in :attr:`BuildReport.failed`
        instead of raising, and is retried by the next ``compile_all``.
        """
        from repro.pipeline.batch import run_jobs

        report = BuildReport()
        with self._lock:
            designs = list(self._designs.values())

        dirty: list[tuple[_Design, "CompileJob", str]] = []
        ir_outcomes: list["JobResult"] = []
        for entry in designs:
            with entry.lock:
                key = entry.fingerprint()
                if entry.memo_key == key and entry.memo_error is None:
                    report.reused.append(entry.name)
                    report.results[entry.name] = entry.memo_result
                    continue
                current = entry.file_keys()
                previous = entry.built_file_keys or {}
                report.changed_files[entry.name] = [
                    filename
                    for filename, fkey in current.items()
                    if previous.get(filename) != fkey
                ]
                report.unchanged_files[entry.name] = [
                    filename
                    for filename, fkey in current.items()
                    if previous.get(filename) == fkey
                ]
                if entry.kind == "ir":
                    # IR designs compile inline (through the memoised ingest
                    # tier) with the same per-design error isolation; the
                    # job engine's CompileJob shape is Tydi-lang-only.
                    ir_outcomes.append(self._compile_ir_inline(entry, key, report))
                    continue
                dirty.append((entry, self._job_for(entry), key))

        report.batch = run_jobs(
            [job for _, job, _ in dirty],
            cache=self.cache,
            executor=executor or self.executor,
            max_workers=jobs if jobs is not None else self.jobs,
        )
        # Batch consumers (tydi-compile --batch, the CI soak) read
        # report.batch.results; the inline IR compiles ride along as
        # synthetic job results so an all---from-ir batch is not invisible.
        report.batch.results.extend(ir_outcomes)
        for (entry, _job, key), outcome in zip(dirty, report.batch.results):
            with entry.lock:
                still_current = entry.fingerprint() == key
                if outcome.ok:
                    report.compiled.append(entry.name)
                    report.results[entry.name] = outcome.result
                    if still_current:
                        self._fold_success(entry, key, outcome.result)
                else:
                    report.failed[entry.name] = outcome.error or "unknown error"
                    if still_current:
                        # Forget the previous build entirely: result queries
                        # must not serve an artefact that no longer matches
                        # the sources, and the next round retries.
                        entry.drop_memo()
                        entry.built_file_keys = None
        return report

    # -- internals -------------------------------------------------------------

    def _compile_ir_inline(
        self, entry: _Design, key: str, report: BuildReport
    ) -> "JobResult":
        """Compile one dirty IR design during ``compile_all`` (lock held).

        Folds the outcome into the report *and* returns a synthetic
        :class:`~repro.pipeline.batch.JobResult` (placeholder job, real
        timing) for the report's batch view.
        """
        import time as _time

        from repro.errors import TydiError
        from repro.pipeline.batch import CompileJob, JobResult

        placeholder = CompileJob(name=entry.name, sources=())
        start = _time.perf_counter()
        try:
            result = self._compute(entry)
        except TydiError as exc:
            report.failed[entry.name] = exc.render()
            entry.drop_memo()
            entry.built_file_keys = None
            return JobResult(
                job=placeholder,
                error=exc.render(),
                error_stage=exc.stage,
                error_type=type(exc).__name__,
                elapsed=_time.perf_counter() - start,
            )
        report.compiled.append(entry.name)
        report.results[entry.name] = result
        self._fold_success(entry, key, result)
        return JobResult(
            job=placeholder, result=result, elapsed=_time.perf_counter() - start
        )

    def _fold_success(self, entry: _Design, key: str, result: "CompilationResult") -> None:
        """Install a successful build as the design's memo (lock held)."""
        entry.memo_key = key
        entry.memo_result = result
        entry.memo_error = None
        entry.extra_outputs.clear()
        entry.sim_reports.clear()
        entry.built_file_keys = entry.file_keys()

    def _job_for(self, entry: _Design) -> "CompileJob":
        from repro.pipeline.batch import CompileJob

        options = entry.options
        return CompileJob(
            name=entry.name,
            sources=entry.normalized_sources(),
            top=options.top,
            top_args=options.top_args,
            include_stdlib=options.include_stdlib,
            sugaring=options.sugaring,
            run_drc=options.run_drc,
            strict_drc=options.strict_drc,
            project_name=options.project_name,
            targets=options.targets,
            backend_options=options.backend_options,
        )

    def _compute(self, entry: _Design) -> "CompilationResult":
        """One design's compile through the cache stack (design lock held).

        Mirrors exactly what the engine's ``_execute_job`` does for
        ``compile_all``, so single-design queries and bulk builds produce
        the same artefacts through the same tiers: whole-result cache
        first, then the staged pipeline (when the cache carries one), then
        the monolithic reference pipeline.
        """
        if entry.kind == "ir":
            return self._compute_ir(entry)
        normalized = entry.normalized_sources()
        options_dict = entry.options.as_dict()
        cache = self.cache
        if cache is not None:
            cache_key = cache.key_for(normalized, options_dict)
            hit = cache.get(cache_key)
            if hit is not None:
                return hit
            stage_cache = getattr(cache, "stages", None)
            if stage_cache is not None:
                result = stage_cache.compile(normalized, options_dict)
                cache.put(cache_key, result)
                return result
        result = run_pipeline(normalized, entry.options)
        if cache is not None:
            cache.put(cache_key, result)
        return result

    def _compute_ir(self, entry: _Design) -> "CompilationResult":
        """One IR design's compile through the ingest pipeline (lock held).

        Goes through the stage cache's memoised ingest tier when the
        workspace owns one (:meth:`repro.pipeline.stages.StageCache.
        compile_ir`); the whole-result cache is deliberately bypassed --
        the ingest snapshot plus the backend-unit tier already cover
        everything reusable, and the session memo serves repeat queries.
        """
        if not entry.files:
            raise TydiWorkspaceError(
                f"IR design {entry.name!r} has no document (was its file removed?)"
            )
        filename, text = next(iter(entry.files.items()))
        options_dict = entry.options.as_dict()
        stage_cache = getattr(self.cache, "stages", None) if self.cache is not None else None
        if stage_cache is not None:
            return stage_cache.compile_ir(text, options_dict, filename=filename)
        from repro.interchange.pipeline import compile_ir_document

        return compile_ir_document(text, entry.options, filename=filename)
