"""The transport-agnostic compile service: JSON requests onto warm compile state.

:class:`CompileService` is the core of the compile daemon.  It has two
execution modes behind one request surface:

* ``workers=0`` (default): one shared :class:`~repro.workspace.Workspace`
  -- the whole-result cache, the per-stage parse / evaluate / backend
  tiers and the per-design memos all live in one session -- with every
  workspace-touching request running in a bounded
  :class:`~concurrent.futures.ThreadPoolExecutor`.  Inside the pool the
  workspace's per-design locks do the scheduling: different designs
  compile in parallel (up to ``jobs`` threads, GIL permitting), same-
  design requests coalesce on the design lock.
* ``workers=N`` (N >= 1): a **multi-process**
  :class:`~repro.server.pool.WorkerPool` -- N forked workers, each owning
  the shard of designs that hashes to it, so pure-Python compile work
  escapes the GIL and each worker's in-memory caches stay hot for its
  shard.  Design-addressed methods route to the owning worker; ``ping`` /
  ``stats`` / ``list_backends`` are answered by the parent, with ``stats``
  aggregating per-worker counters, queue depths and restart totals.

Both modes share the drain lifecycle: a ``shutdown`` request marks the
service *draining* (new work is rejected with a structured
:class:`~repro.errors.TydiDrainingError` envelope), waits for every
in-flight request to complete -- so no response is ever dropped by the
transport winding down -- then drains the worker pool (if any) and only
then signals the transport to stop.

Requests and responses are plain dicts in the shape documented by
:mod:`repro.server.protocol`; transports only frame and shuttle them.
Failures never escape :meth:`handle` -- every exception becomes a
structured error envelope carrying the :class:`~repro.errors.TydiError`
stage and rendering.  Per-method latency histograms
(:mod:`repro.server.metrics`) are recorded around the full dispatch,
queueing included, and surfaced by ``stats``.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping, Optional

from repro.errors import TydiDrainingError
from repro.server import protocol
from repro.server.metrics import MethodMetrics
from repro.server.pool import POOLED_METHODS, WorkerPool
from repro.workspace import Workspace


def default_jobs() -> int:
    """Default compile-pool width: the CPU count, bounded to stay polite."""
    return max(1, min(8, os.cpu_count() or 1))


class _Watch:
    """One ``watch_design`` subscription: a design name, an optional
    simulation plan (wire form), and the transport's delivery callback.

    ``last_sim`` remembers the previous simulation outcome (a canonical
    JSON string) so notifications can report *deltas*: the full report is
    pushed only when it changed since the last push to this watcher.
    """

    __slots__ = ("token", "design", "plan", "deliver", "last_sim")

    def __init__(self, token: int, design: str, plan: Optional[dict], deliver) -> None:
        self.token = token
        self.design = design
        self.plan = plan
        self.deliver = deliver
        self.last_sim: Optional[str] = None


class CompileService:
    """Maps JSON requests onto warm compile state (threaded or multi-process).

    Parameters
    ----------
    workspace:
        The session to serve (``workers=0`` only).  Omit it to have the
        service build one from ``cache_dir`` / ``max_cache_mb`` /
        ``remote_cache`` / ``options`` (the same knobs ``tydi-compile``
        exposes), so a served session and a CLI session share on-disk
        artefacts -- and, with a remote endpoint, the fleet-wide L2.
    jobs:
        Width of the compile thread pool (default: CPU count, capped at 8).
    workers:
        Forked compile worker processes.  ``0`` (default) keeps the
        in-process thread path; ``N >= 1`` builds a
        :class:`~repro.server.pool.WorkerPool` with design sharding --
        ``workspace=`` must then be omitted (each worker owns its own).
    drain_timeout:
        Upper bound on waiting for in-flight requests during shutdown.
    backlog / restart_budget:
        Pool tuning: bounded per-worker queue depth, and crash respawns
        allowed per worker (see :class:`~repro.server.pool.WorkerPool`).
    """

    def __init__(
        self,
        workspace: Optional[Workspace] = None,
        *,
        jobs: Optional[int] = None,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        max_cache_mb: Optional[float] = None,
        remote_cache: Optional[str] = None,
        options: Optional[Mapping[str, object]] = None,
        drain_timeout: float = 30.0,
        backlog: int = 64,
        restart_budget: int = 3,
    ) -> None:
        self.workers = int(workers) if workers else 0
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.pool: Optional[WorkerPool] = None
        if self.workers:
            if workspace is not None:
                raise ValueError(
                    "workers >= 1 gives every worker its own workspace; "
                    "pass cache_dir=/options= instead of workspace="
                )
            self.pool = WorkerPool(
                self.workers,
                cache_dir=cache_dir,
                max_cache_mb=max_cache_mb,
                remote_cache=remote_cache,
                options=options,
                backlog=backlog,
                restart_budget=restart_budget,
            )
            self.workspace = None
        else:
            if workspace is None:
                workspace = Workspace(
                    cache_dir=cache_dir,
                    max_cache_mb=max_cache_mb,
                    remote_cache=remote_cache,
                    options=options,
                )
            elif cache_dir is not None or max_cache_mb is not None or remote_cache is not None:
                raise ValueError(
                    "pass either an existing workspace= or "
                    "cache_dir=/max_cache_mb=/remote_cache=, not both"
                )
            self.workspace = workspace
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.drain_timeout = drain_timeout
        self._executor = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="tydi-serve"
        )
        #: Set once shutdown has fully drained; transports watch it
        #: (thread-safe: the CLI's signal handler may also set it).
        self.shutdown_requested = threading.Event()
        #: Set the moment a shutdown request is parsed: new work is
        #: rejected while in-flight requests finish.
        self.draining = threading.Event()
        self._drain_lock = threading.Lock()
        self._drain_result: Optional[bool] = None
        self.metrics = MethodMetrics(tuple(self._METHODS) + ("<unknown>",))
        self._counters_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._in_flight = 0
        self._max_in_flight = 0
        self._shutdowns_in_flight = 0
        self._method_counts: dict[str, int] = {}
        self._closed = False
        # watch_design subscriptions: token -> _Watch.  Registered by the
        # NDJSON transport (which owns the delivery callbacks) and notified
        # from _handle_parsed after each successful update_file.
        self._watch_lock = threading.Lock()
        self._watches: dict[int, _Watch] = {}
        self._next_watch_token = 0
        self._notify_tasks: set["asyncio.Task[None]"] = set()

    # -- the request entry points ----------------------------------------------

    async def handle(self, message: Any) -> dict[str, Any]:
        """One decoded request document in, one response envelope out.

        Never raises: malformed envelopes, unknown methods, bad parameters
        and compile failures all come back as error envelopes.
        """
        start = time.perf_counter()
        try:
            request_id, method, params = protocol.parse_request(message)
        except Exception as exc:
            self._count(None, ok=False)
            self.metrics.record(None, time.perf_counter() - start, ok=False)
            return protocol.error_envelope(protocol.recover_request_id(message), exc)
        envelope = await self._handle_parsed(request_id, method, params)
        ok = bool(envelope.get("ok"))
        self._count(method, ok=ok)
        self.metrics.record(method, time.perf_counter() - start, ok=ok)
        return envelope

    async def _handle_parsed(
        self, request_id: Any, method: str, params: dict[str, Any]
    ) -> dict[str, Any]:
        handler = self._METHODS.get(method)
        if handler is None:
            return protocol.error_envelope(
                request_id, protocol.unknown_method_error(method, self.methods())
            )
        try:
            protocol.unknown_params_check(params, self._SIGNATURES[method][0], method)
        except Exception as exc:
            return protocol.error_envelope(request_id, exc)
        if method == "shutdown":
            return await self._handle_shutdown(request_id)
        if self.draining.is_set() and method in self._DRAIN_REJECTED:
            return protocol.error_envelope(
                request_id,
                TydiDrainingError(
                    f"service is draining for shutdown; {method!r} rejected"
                ),
            )
        self._enter_request(method)
        try:
            if self.pool is not None and method in POOLED_METHODS:
                # The worker computes the full envelope (same dispatch code
                # as in-process serving) and already stamped the id.
                future = self.pool.submit(method, params, request_id)
                envelope = await asyncio.wrap_future(future)
            else:
                in_executor = self._SIGNATURES[method][1]
                if in_executor:
                    loop = asyncio.get_running_loop()
                    result = await loop.run_in_executor(
                        self._executor, lambda: handler(self, params)
                    )
                else:
                    result = handler(self, params)
                envelope = protocol.success_envelope(request_id, result)
        except Exception as exc:
            return protocol.error_envelope(request_id, exc)
        finally:
            self._exit_request(method)
        if method == "update_file" and envelope.get("ok"):
            self._schedule_watch_notify(params.get("design"))
        return envelope

    def handle_sync(self, message: Any) -> dict[str, Any]:
        """Blocking :meth:`handle` for transports/tests without a loop."""
        return asyncio.run(self.handle(message))

    def dispatch(self, message: Any) -> dict[str, Any]:
        """Synchronous inline :meth:`handle`: no executor, no pool routing.

        The execution primitive of the pool worker loop
        (:mod:`repro.server.worker`) -- one request document in, one
        envelope out, computed entirely on the calling thread, through the
        exact validation and handler code the async path uses.  Never
        raises.
        """
        try:
            request_id, method, params = protocol.parse_request(message)
        except Exception as exc:
            self._count(None, ok=False)
            return protocol.error_envelope(protocol.recover_request_id(message), exc)
        handler = self._METHODS.get(method)
        try:
            if handler is None:
                raise protocol.unknown_method_error(method, self.methods())
            protocol.unknown_params_check(params, self._SIGNATURES[method][0], method)
            result = handler(self, params)
        except Exception as exc:
            self._count(method, ok=False)
            return protocol.error_envelope(request_id, exc)
        self._count(method, ok=True)
        return protocol.success_envelope(request_id, result)

    @classmethod
    def methods(cls) -> list[str]:
        """Every request method name, sorted (``ping`` reports these)."""
        return sorted(cls._METHODS)

    def close(self) -> None:
        """Release workers and the compile pool (idempotent; pending work
        finishes -- the pool drains gracefully)."""
        if not self._closed:
            self._closed = True
            if self.pool is not None:
                self.pool.close()
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the drain path --------------------------------------------------------

    async def _handle_shutdown(self, request_id: Any) -> dict[str, Any]:
        """Drain, then stop: in-flight responses are never dropped.

        Sets :attr:`draining` immediately (new work is rejected), waits --
        off the event loop, and *not* on a compile-pool thread, so a full
        compile pool cannot deadlock the drain -- for every other
        in-flight request to complete, drains the worker pool, and only
        then sets :attr:`shutdown_requested` for the transport.
        """
        self._enter_request("shutdown")
        try:
            self.draining.set()
            loop = asyncio.get_running_loop()
            drained = await loop.run_in_executor(None, self._drain_blocking)
        finally:
            self._exit_request("shutdown")
        return protocol.success_envelope(
            request_id, {"stopping": True, "drained": bool(drained)}
        )

    def _drain_blocking(self) -> bool:
        with self._drain_lock:  # concurrent shutdowns share one drain
            if self._drain_result is None:
                deadline = time.monotonic() + self.drain_timeout
                drained = self._wait_for_idle(deadline)
                if self.pool is not None:
                    remaining = max(0.1, deadline - time.monotonic())
                    drained = self.pool.drain(timeout=remaining) and drained
                self._drain_result = drained
            result = self._drain_result
        self.shutdown_requested.set()
        return result

    def _wait_for_idle(self, deadline: float) -> bool:
        """Until every non-shutdown in-flight request has completed."""
        while True:
            with self._counters_lock:
                busy = self._in_flight - self._shutdowns_in_flight
            if busy <= 0:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)

    # -- method handlers -------------------------------------------------------
    # Each takes the validated params dict and returns the JSON-ready result
    # payload; they run on compile-pool threads (except the pure ones) so
    # they are free to block on workspace locks.

    def _ping(self, params: Mapping[str, Any]) -> dict[str, Any]:
        import repro

        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "version": repro.__version__,
            "methods": self.methods(),
            "jobs": self.jobs,
            "workers": self.workers,
        }

    def _open_design(self, params: Mapping[str, Any]) -> dict[str, Any]:
        name = protocol.require_param(params, "design", str, "open_design")
        files = params.get("files", {})
        if not isinstance(files, (Mapping, list)):
            from repro.errors import TydiServerError

            raise TydiServerError(
                f"open_design: 'files' must be a JSON object or array, "
                f"got {type(files).__name__}"
            )
        options = protocol.coerce_options(params.get("options"), "open_design")
        replace = bool(params.get("replace", True))
        self.workspace.add_design(name, files, options, replace=replace)
        return {
            "design": name,
            "files": sorted(self.workspace.files(name)),
            "fingerprint": self.workspace.fingerprint(name),
        }

    def _open_ir_design(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Open a design from one Tydi-IR interchange document.

        The served twin of :meth:`~repro.workspace.Workspace.add_ir_design`:
        the document text replaces Tydi-lang sources as the design's input,
        everything downstream (``get_outputs``, ``get_diagnostics``,
        ``simulate_design``) works unchanged.  In pool mode the request is
        routed to the owning shard and mirrored for crash replay just like
        ``open_design``.
        """
        name = protocol.require_param(params, "design", str, "open_ir_design")
        text = protocol.require_param(params, "text", str, "open_ir_design")
        options = protocol.coerce_options(params.get("options"), "open_ir_design")
        replace = bool(params.get("replace", True))
        self.workspace.add_ir_design(name, text, options, replace=replace)
        return {
            "design": name,
            "files": sorted(self.workspace.files(name)),
            "fingerprint": self.workspace.fingerprint(name),
        }

    def _update_file(self, params: Mapping[str, Any]) -> dict[str, Any]:
        design = protocol.require_param(params, "design", str, "update_file")
        filename = protocol.require_param(params, "filename", str, "update_file")
        text = protocol.require_param(params, "text", str, "update_file")
        self.workspace.update_file(design, filename, text)
        return {
            "design": design,
            "filename": filename,
            "fingerprint": self.workspace.fingerprint(design),
            "fresh": self.workspace.is_fresh(design),
        }

    def _remove_file(self, params: Mapping[str, Any]) -> dict[str, Any]:
        design = protocol.require_param(params, "design", str, "remove_file")
        filename = protocol.require_param(params, "filename", str, "remove_file")
        self.workspace.remove_file(design, filename)
        return {
            "design": design,
            "filename": filename,
            "fingerprint": self.workspace.fingerprint(design),
        }

    def _remove_design(self, params: Mapping[str, Any]) -> dict[str, Any]:
        design = protocol.require_param(params, "design", str, "remove_design")
        self.workspace.remove_design(design)
        return {"design": design, "removed": True}

    def _get_ir(self, params: Mapping[str, Any]) -> dict[str, Any]:
        design = protocol.require_param(params, "design", str, "get_ir")
        ir = self.workspace.ir(design)
        return {
            "design": design,
            "ir": ir,
            "fingerprint": self.workspace.fingerprint(design),
        }

    def _get_outputs(self, params: Mapping[str, Any]) -> dict[str, Any]:
        design = protocol.require_param(params, "design", str, "get_outputs")
        target = protocol.require_param(params, "target", str, "get_outputs")
        files = self.workspace.outputs(design, target)
        return {"design": design, "target": target, "files": dict(files)}

    def _get_diagnostics(self, params: Mapping[str, Any]) -> dict[str, Any]:
        design = protocol.require_param(params, "design", str, "get_diagnostics")
        sink = self.workspace.diagnostics(design)
        return {
            "design": design,
            "diagnostics": [
                {
                    "severity": diag.severity,
                    "stage": diag.stage,
                    "message": diag.message,
                    "span": str(diag.span) if diag.span is not None else None,
                }
                for diag in sink
            ],
        }

    def _simulate_design(self, params: Mapping[str, Any]) -> dict[str, Any]:
        design = protocol.require_param(params, "design", str, "simulate_design")
        plan = params.get("plan")
        if plan is not None and not isinstance(plan, Mapping):
            from repro.errors import TydiServerError

            raise TydiServerError(
                f"simulate_design: 'plan' must be a JSON object, "
                f"got {type(plan).__name__}"
            )
        from repro.sim.harness import SimulationPlan

        report = self.workspace.simulate(design, SimulationPlan.coerce(plan))
        return {
            "design": design,
            "fingerprint": self.workspace.fingerprint(design),
            "report": report.as_dict(),
        }

    def _watch_design(self, params: Mapping[str, Any]) -> dict[str, Any]:
        # Subscriptions need a connection to push event frames down; the
        # NDJSON transport intercepts this method and registers the watch
        # itself (see repro.server.transport).  Reaching this handler means
        # the request came over HTTP or a one-shot dispatch.
        from repro.errors import TydiServerError

        protocol.require_param(params, "design", str, "watch_design")
        raise TydiServerError(
            "watch_design requires a streaming NDJSON connection "
            "(the HTTP front and one-shot dispatch cannot push event frames)"
        )

    def _get_report(self, params: Mapping[str, Any]) -> dict[str, Any]:
        if self.pool is not None:
            return self.pool.report()
        return dict(self.workspace.report())

    def _list_backends(self, params: Mapping[str, Any]) -> dict[str, Any]:
        from repro.backends import available_backends, backend_class, option_schema

        return {
            "backends": [
                {
                    "name": name,
                    "description": backend_class(name).description,
                    "options": option_schema(backend_class(name)),
                }
                for name in available_backends()
            ]
        }

    def _stats(self, params: Mapping[str, Any]) -> dict[str, Any]:
        with self._counters_lock:
            server = {
                "requests": self._requests,
                "errors": self._errors,
                "in_flight": self._in_flight,
                "max_in_flight": self._max_in_flight,
                "methods": dict(sorted(self._method_counts.items())),
                "jobs": self.jobs,
                "workers": self.workers,
                "draining": self.draining.is_set(),
            }
        server["latency"] = self.metrics.as_dict()
        if self.pool is not None:
            pool_stats = self.pool.stats()
            return {
                "server": server,
                "pool": pool_stats,
                "workspace": _aggregate_worker_workspaces(pool_stats),
            }
        return {"server": server, "workspace": self.workspace.stats()}

    def _shutdown(self, params: Mapping[str, Any]) -> dict[str, Any]:
        # The inline/dispatch path (pool workers never receive shutdown;
        # the async path intercepts the method and drains instead).
        self.draining.set()
        if self.pool is not None:  # pragma: no cover - defensive
            self.pool.drain(timeout=self.drain_timeout)
        self.shutdown_requested.set()
        return {"stopping": True, "drained": True}

    # -- watch subscriptions ---------------------------------------------------

    def add_watch(self, design: str, deliver, plan: Optional[Mapping] = None) -> int:
        """Register one ``watch_design`` subscription.

        ``deliver`` is a thread-safe callable taking one JSON-ready event
        dict; it must never block -- the NDJSON transport hands in a
        bounded drop-oldest queue.  ``plan`` is the wire-form simulation
        plan (or ``None`` for the default plan).  Returns the watch token
        to pass to :meth:`remove_watch` when the connection goes away.
        """
        plan_dict = dict(plan) if isinstance(plan, Mapping) else None
        with self._watch_lock:
            self._next_watch_token += 1
            token = self._next_watch_token
            self._watches[token] = _Watch(token, design, plan_dict, deliver)
        return token

    def remove_watch(self, token: int) -> None:
        with self._watch_lock:
            self._watches.pop(token, None)

    def has_watches(self, design: object) -> bool:
        with self._watch_lock:
            return any(watch.design == design for watch in self._watches.values())

    def _schedule_watch_notify(self, design: object) -> None:
        """Fire-and-forget the post-mutation notification task.

        Runs off the mutation's own request path so an ``update_file``
        response is never delayed by the recompile + simulation behind its
        watchers' notifications.
        """
        if not isinstance(design, str) or self.draining.is_set():
            return
        if not self.has_watches(design):
            return
        task = asyncio.get_running_loop().create_task(self._notify_watches(design))
        self._notify_tasks.add(task)
        task.add_done_callback(self._notify_tasks.discard)

    async def _notify_watches(self, design: str) -> None:
        """Push one diagnostics + sim-delta event to every watcher of a design.

        Diagnostics and simulation reports are computed through the normal
        dispatch path, so pool mode routes to the owning shard and the
        ``sim:`` cache tier absorbs repeat plans; one simulation runs per
        *distinct* plan even when many watchers share it.  The pushed
        event always carries the diagnostics; the simulation report rides
        along only when it changed since the last push to that watcher
        (``sim_changed`` says which).
        """
        import json

        with self._watch_lock:
            watches = [w for w in self._watches.values() if w.design == design]
        if not watches or self.draining.is_set():
            return
        diag_env = await self._handle_parsed(None, "get_diagnostics", {"design": design})
        if diag_env.get("ok"):
            diagnostics = diag_env.get("result", {}).get("diagnostics", [])
        else:
            # A design that no longer compiles answers get_diagnostics with
            # an error envelope; fold it into the diagnostics shape so the
            # watcher still sees what broke.
            error = diag_env.get("error") or {}
            diagnostics = [
                {
                    "severity": "error",
                    "stage": error.get("stage"),
                    "message": error.get("message"),
                    "span": error.get("span"),
                }
            ]
        sims: dict[str, dict[str, Any]] = {}
        for watch in watches:
            plan_key = json.dumps(watch.plan, sort_keys=True)
            if plan_key not in sims:
                sim_params: dict[str, Any] = {"design": design}
                if watch.plan is not None:
                    sim_params["plan"] = watch.plan
                sims[plan_key] = await self._handle_parsed(
                    None, "simulate_design", sim_params
                )
            envelope = sims[plan_key]
            if envelope.get("ok"):
                sim = {"report": envelope["result"]["report"], "error": None}
                fingerprint = envelope["result"].get("fingerprint")
            else:
                sim = {"report": None, "error": envelope.get("error")}
                fingerprint = None
            marker = json.dumps(sim, sort_keys=True)
            changed = marker != watch.last_sim
            watch.last_sim = marker
            event: dict[str, Any] = {
                "event": "design_update",
                "watch": watch.token,
                "design": design,
                "fingerprint": fingerprint,
                "diagnostics": diagnostics,
                "sim_changed": changed,
            }
            if changed:
                event["sim"] = sim
            try:
                watch.deliver(event)
            except Exception:  # pragma: no cover - dead connection callback
                self.remove_watch(watch.token)

    # -- accounting ------------------------------------------------------------

    def _count(self, method: Optional[str], *, ok: bool) -> None:
        with self._counters_lock:
            self._requests += 1
            if not ok:
                self._errors += 1
            if method is not None:
                # Only known names get their own bucket: arbitrary strings
                # from misbehaving peers must not grow the dict (or the
                # stats payload) without bound in a long-lived daemon.
                key = method if method in self._METHODS else "<unknown>"
                self._method_counts[key] = self._method_counts.get(key, 0) + 1

    def _enter_request(self, method: Optional[str] = None) -> None:
        with self._counters_lock:
            self._in_flight += 1
            self._max_in_flight = max(self._max_in_flight, self._in_flight)
            if method == "shutdown":
                self._shutdowns_in_flight += 1

    def _exit_request(self, method: Optional[str] = None) -> None:
        with self._counters_lock:
            self._in_flight -= 1
            if method == "shutdown":
                self._shutdowns_in_flight -= 1

    #: method name -> handler.  The parallel signature table records the
    #: allowed parameter names and whether the handler must run on a
    #: compile-pool thread (everything that can touch a workspace or design
    #: lock does; the pure introspection methods answer inline).
    _METHODS = {
        "ping": _ping,
        "open_design": _open_design,
        "open_ir_design": _open_ir_design,
        "update_file": _update_file,
        "remove_file": _remove_file,
        "remove_design": _remove_design,
        "get_ir": _get_ir,
        "get_outputs": _get_outputs,
        "get_diagnostics": _get_diagnostics,
        "simulate_design": _simulate_design,
        "watch_design": _watch_design,
        "get_report": _get_report,
        "list_backends": _list_backends,
        "stats": _stats,
        "shutdown": _shutdown,
    }

    _SIGNATURES: dict[str, tuple[tuple[str, ...], bool]] = {
        "ping": ((), False),
        "open_design": (("design", "files", "options", "replace"), True),
        "open_ir_design": (("design", "text", "options", "replace"), True),
        "update_file": (("design", "filename", "text"), True),
        "remove_file": (("design", "filename"), True),
        "remove_design": (("design",), True),
        "get_ir": (("design",), True),
        "get_outputs": (("design", "target"), True),
        "get_diagnostics": (("design",), True),
        "simulate_design": (("design", "plan"), True),
        "watch_design": (("design", "plan"), False),
        "get_report": ((), True),
        "list_backends": ((), False),
        "stats": ((), True),
        "shutdown": ((), False),
    }

    #: Methods rejected once draining: everything that would start new
    #: compile work or mutate design state.  ``ping`` / ``stats`` /
    #: ``list_backends`` stay up so operators can observe the drain.
    _DRAIN_REJECTED = POOLED_METHODS | {"get_report", "watch_design"}


def _aggregate_worker_workspaces(pool_stats: Mapping[str, Any]) -> dict[str, Any]:
    """Sum per-worker workspace stats into one workspace-shaped summary.

    Lets pool-mode ``stats`` consumers keep reading
    ``stats["workspace"]["designs"]["fresh"]`` etc. exactly as in
    single-process mode; workers whose stats could not be collected are
    counted in ``workers_missing``.
    """
    designs = {"total": 0, "fresh": 0, "stale": 0, "error": 0}
    stage_totals: dict[str, int] = {}
    profile_totals: dict[str, dict[str, float]] = {}
    profiling_enabled = False
    missing = 0
    for entry in pool_stats.get("per_worker", ()):
        workspace = entry.get("workspace")
        if not isinstance(workspace, Mapping):
            missing += 1
            continue
        for key, value in (workspace.get("designs") or {}).items():
            if key in designs and isinstance(value, int):
                designs[key] += value
        for key, value in (workspace.get("stage_cache") or {}).items():
            if isinstance(value, int):
                stage_totals[key] = stage_totals.get(key, 0) + value
        profiling = workspace.get("profiling")
        if isinstance(profiling, Mapping):
            profiling_enabled = profiling_enabled or bool(profiling.get("enabled"))
            for stage, counters in (profiling.get("stages") or {}).items():
                if not isinstance(counters, Mapping):
                    continue
                totals = profile_totals.setdefault(
                    stage, {"count": 0, "wall_ms": 0.0, "cpu_ms": 0.0}
                )
                for key in totals:
                    value = counters.get(key)
                    if isinstance(value, (int, float)):
                        totals[key] = round(totals[key] + value, 3)
    summary: dict[str, Any] = {
        "designs": designs,
        "stage_cache": stage_totals or None,
        "workers_missing": missing,
    }
    if profiling_enabled or profile_totals:
        summary["profiling"] = {"enabled": profiling_enabled, "stages": profile_totals}
    return summary
