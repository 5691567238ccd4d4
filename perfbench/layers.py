"""The traced layer profile (``--trace 1``): a price for every layer.

Spans are recorded here, in the benchmark, around calls into each
module's public functions; nothing in the program is instrumented.  The
profile has one section per workload, and every traced run executes all of
them, so each traced run reports every per-layer metric:

* startup -- ``import repro.cli`` in a fresh interpreter;
* fleet-cold -- ``parse_stage`` -> ``evaluate_stage`` -> ``sugar_stage`` ->
  ``drc_stage``, then each backend's ``emit_shared``/``emit_unit``/
  ``assemble``, at chain widths 80 and 160 for the scaling exponents;
* fleet-rebuild -- an in-process ``Workspace(cache_dir=..., remote_cache=...)``
  replica against a warm cache daemon, timing the ``RemoteCacheClient`` and
  the disk writes;
* edit-serve -- the daemon with ``--profile-stages``, read through ``stats``,
  plus an in-process ``Workspace`` doing the same edits;
* tpch-sim -- ``Simulator(...)``, ``.run()`` and the two analyses per query.
"""

from __future__ import annotations

import math
import random
from functools import wraps
from statistics import fmean, median
from typing import Callable

import fleet
from common import BenchError, Context, Daemon, Result, Tracer, run_process, scaling_exponent
from workloads import (
    TARGETS,
    TPCH_LINEITEMS,
    WIDTH,
    User,
    WorkspaceClient,
    _write_fleet,
    check_fleet_tree,
    check_served,
    read_tree,
    run_users,
    same_result,
    serve_session,
    stop_serve,
    warm_remote,
)

SMALL_WIDTH = WIDTH // 2
STAGES = ("parse", "evaluate", "sugaring", "drc")
SERVED_METHODS = ("update_file", "get_outputs")
EDITS_PER_USER = 10
REPS = 5
OVERHEAD_PAIRS = 8


def _set(result: Result, name: str, value: float, unit: str) -> None:
    result.metrics[name] = (value, unit)


def traced(tracer: Tracer, name: str, function: Callable) -> Callable:
    """``function`` with every call recorded as a span named ``name``."""

    @wraps(function)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return function(*args, **kwargs)

    return wrapper


def profile(ctx: Context, result: Result) -> None:
    tracer = Tracer()
    startup(ctx, result, tracer)
    fleet_layers(ctx, result, tracer)
    rebuild_layers(ctx, result, tracer)
    serve_layers(ctx, result, tracer)
    workspace_layers(ctx, result, tracer)
    sim_layers(ctx, result, tracer)
    tracer.dump(ctx.root / ".perfbench" / "spans.json")


# ---------------------------------------------------------------------------
# startup
# ---------------------------------------------------------------------------

IMPORT_PROBE = "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"


def startup(ctx: Context, result: Result, tracer: Tracer) -> None:
    seconds = []
    for _ in range(5):
        with tracer.span("startup.process"):
            run = run_process(ctx, IMPORT_PROBE, [])
        if result.attempt(run.returncode == 0, f"import repro.cli failed: {run.stdout[-300:]}"):
            seconds.append(float(run.stdout.split()[-1]))
    if not seconds:
        raise BenchError("repro.cli does not import")
    _set(result, "cli.import_s", median(seconds), "s")


# ---------------------------------------------------------------------------
# fleet-cold: frontend stages and backends, at two widths
# ---------------------------------------------------------------------------


def _frontend(tracer: Tracer, normalized, width: int):
    from repro.errors import DiagnosticSink
    from repro.lang.compile import drc_stage, evaluate_stage, parse_stage, sugar_stage

    diagnostics = DiagnosticSink()
    with tracer.span(f"lang.parse@{width}"):
        units, _ = parse_stage(normalized)
    with tracer.span(f"lang.evaluate@{width}"):
        project, _ = evaluate_stage(units, diagnostics)
    with tracer.span(f"lang.sugaring@{width}"):
        sugar_stage(project, diagnostics)
    with tracer.span(f"lang.drc@{width}"):
        drc_stage(project, diagnostics)
    return project


def _emit(tracer: Tracer, backend, project, width: int) -> tuple[dict[str, str], float, float]:
    """One whole emission through the composition pieces; (files, ms, slowest unit ms)."""
    name = backend.name
    with tracer.span(f"backend.{name}@{width}") as whole:
        with tracer.span(f"backend.{name}.emit_shared"):
            shared = backend.emit_shared(project)
        units = {}
        slowest = 0.0
        for impl_name, implementation in project.implementations.items():
            with tracer.span(f"backend.{name}.emit_unit") as unit:
                units[impl_name] = backend.emit_unit(project, implementation)
            slowest = max(slowest, unit.ms)
        with tracer.span(f"backend.{name}.assemble"):
            files = backend.assemble(project, shared, units)
    return files, whole.ms, slowest


def fleet_layers(ctx: Context, result: Result, tracer: Tracer) -> None:
    from repro.backends import get_backend
    from repro.lang.compile import normalize_sources

    def sources(width: int):
        files = fleet.fleet_files(width)
        return normalize_sources([(files[name], name) for name in fleet.seeded_order(ctx.seed)])

    backends = [get_backend(name) for name in TARGETS]
    # Warm-up: the stdlib AST memo and every code path, on a small fleet.
    with tracer.span("warmup"):
        small = _frontend(tracer, sources(8), 8)
        for backend in backends:
            backend.emit(small)

    # The two widths alternate rep by rep, so a slow phase of the host lands
    # on both sides of each scaling exponent rather than on one.
    widths = (SMALL_WIDTH, WIDTH)
    normalized = {width: sources(width) for width in widths}
    projects = {}
    for _ in range(REPS):
        for width in widths:
            projects[width] = _frontend(tracer, normalized[width], width)
    stage_ms = {
        (stage, width): [span.ms for span in tracer.named(f"lang.{stage}@{width}")] for stage in STAGES for width in widths
    }
    for width, project in projects.items():
        stats = project.statistics()
        expected = (fleet.instance_count(width), fleet.NUM_WIDE * (width + 1) + fleet.NUM_WIDE + 1)
        result.attempt(
            (stats["instances"], stats["connections"]) == expected,
            f"width {width}: {stats['instances']} instances / {stats['connections']} connections, expected {expected}",
        )
    emit: dict[tuple[str, int], tuple[list[float], float, int]] = {}
    trees: dict[int, dict[str, dict[str, str]]] = {width: {} for width in widths}
    for backend in backends:
        # The quadratic VHDL emitter runs once per width; the rest REPS times.
        runs = {width: [] for width in widths}
        for _ in range(1 if backend.name == "vhdl" else REPS):
            for width in widths:
                runs[width].append(_emit(tracer, backend, projects[width], width))
        for width in widths:
            files = runs[width][-1][0]
            trees[width][backend.name] = files
            size = sum(len(text.encode()) for text in files.values())
            emit[backend.name, width] = ([r[1] for r in runs[width]], max(r[2] for r in runs[width]), size)
    for width in widths:
        problems = check_fleet_tree(trees[width], width)
        result.attempt(not problems, f"width {width}: " + "; ".join(problems[:3]))

    stats = projects[WIDTH].statistics()
    for stage in STAGES:
        _set(result, f"lang.{stage}_ms", median(stage_ms[stage, WIDTH]), "ms")
        exponent = scaling_exponent(stage_ms[stage, SMALL_WIDTH], stage_ms[stage, WIDTH])
        _set(result, f"lang.{stage}.scaling_exp", exponent, "exponent")
    _set(result, "lang.instances", stats["instances"], "count")
    _set(result, "lang.connections", stats["connections"], "count")
    for backend in backends:
        emit_runs, unit_max_ms, size = emit[backend.name, WIDTH]
        emit_ms = median(emit_runs)
        prefix = f"backend.{backend.name}"
        _set(result, f"{prefix}.emit_ms", emit_ms, "ms")
        _set(result, f"{prefix}.unit_max_ms", unit_max_ms, "ms")
        _set(result, f"{prefix}.us_per_instance", emit_ms * 1000.0 / stats["instances"], "us")
        _set(result, f"{prefix}.scaling_exp", scaling_exponent(emit[backend.name, SMALL_WIDTH][0], emit_runs), "exponent")
        _set(result, f"{prefix}.bytes", size, "B")
    tracing_overhead(result, tracer, get_backend("verilog"), projects[WIDTH])


def tracing_overhead(result: Result, tracer: Tracer, backend, project) -> None:
    """Traced against untraced emission of the same project, as a share.

    Each pair runs back to back, alternating which side goes first; the
    median of the per-pair ratios keeps the host's slow phases out.
    """
    ratios = []
    for pair in range(OVERHEAD_PAIRS):
        timings = {}
        for traced_side in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced_side:
                timings[traced_side] = _emit(tracer, backend, project, WIDTH)[1]
            else:
                with tracer.span("overhead.untraced") as span:
                    backend.emit(project)
                timings[traced_side] = span.ms
        ratios.append(timings[True] / timings[False])
    _set(result, "trace.overhead_pct", (median(ratios) - 1.0) * 100.0, "%")


# ---------------------------------------------------------------------------
# fleet-rebuild: an in-process replica of the cache tiers
# ---------------------------------------------------------------------------


def rebuild_layers(ctx: Context, result: Result, tracer: Tracer) -> None:
    import repro.pipeline.cache as result_cache
    from repro.pipeline import RemoteCacheClient
    from repro.workspace import Workspace

    sources = ctx.path("fleet")
    order = fleet.seeded_order(ctx.seed)
    _write_fleet(sources)
    files = {name: (sources / name).read_text() for name in order}
    cachesvc = Daemon(ctx, "cachesvc", ["cache", "--host", "127.0.0.1", "--port", "0"])
    client = None
    original_write = result_cache.atomic_write_bytes
    try:
        with tracer.span("pipeline.warm"):
            warmed, log = warm_remote(ctx, cachesvc, order, sources)
        if not result.attempt(warmed, f"could not warm the remote cache: {log}"):
            raise BenchError("the remote cache never served the fleet")
        reference = read_tree(ctx.path("out-ref"))
        client = RemoteCacheClient(cachesvc.host, cachesvc.port)
        remote_hits: list[str] = []
        original_get = client.get

        def get(key: str):
            payload = original_get(key)
            if payload is not None:
                remote_hits.append(key)
            return payload

        client.get = traced(tracer, "pipeline.remote.get", get)
        result_cache.atomic_write_bytes = traced(tracer, "pipeline.disk.put", original_write)
        options = {"targets": TARGETS}
        cache_dir = ctx.path("replica-cache")

        # 1. The rebuild: empty disk tier, warm remote.
        first = Workspace(cache_dir=cache_dir, remote_cache=client, options=options)
        first.add_design("fleet", files)
        with tracer.span("pipeline.rebuild") as rebuild:
            outputs = first.result("fleet").outputs
        result.attempt(
            all(outputs.get(target) == reference.get(target) for target in TARGETS),
            "replica rebuild outputs differ from the cold compile's",
        )
        _set(result, "pipeline.rebuild_ms", rebuild.ms, "ms")
        _set(result, "pipeline.remote.get_ms", tracer.total_ms("pipeline.remote.get"), "ms")
        _set(result, "pipeline.remote.bytes_in", client.stats_snapshot()["bytes_in"], "B")
        _set(result, "pipeline.disk.put_ms", tracer.total_ms("pipeline.disk.put"), "ms")
        result_remote_hits = sum(1 for key in remote_hits if key.startswith("result:"))

        # 2. A second session over the same directory (disk tier), re-queried
        #    after invalidation (memory tier), then a one-file edit (stage tiers).
        second = Workspace(cache_dir=cache_dir, remote_cache=client, options=options)
        second.add_design("fleet", files)
        with tracer.span("pipeline.disk_rebuild"):
            second.result("fleet")
        second.invalidate("fleet")
        with tracer.span("pipeline.memory_rebuild"):
            second.result("fleet")
        index = random.Random(ctx.seed).randrange(fleet.NUM_WIDE)
        stage_before = second.cache.stages.stats_snapshot()
        second.update_file("fleet", f"wide{index}.td", fleet.wide_text(index, WIDTH + 1))
        with tracer.span("pipeline.edit"):
            edited = second.result("fleet")
        stage_after = second.cache.stages.stats_snapshot()
        widths = [WIDTH + 1 if chain == index else WIDTH for chain in range(fleet.NUM_WIDE)]
        problems = check_fleet_tree(edited.outputs, widths)
        result.attempt(not problems, "edited replica: " + "; ".join(problems[:3]))
    finally:
        result_cache.atomic_write_bytes = original_write
        if client is not None:
            client.close()
        cachesvc.stop()

    result_stats = [first.cache.stats_snapshot(), second.cache.stats_snapshot()]
    lookups = sum(s["hits"] + s["misses"] for s in result_stats)
    hits = sum(s["hits"] for s in result_stats)
    disk_hits = sum(s["disk_hits"] for s in result_stats)
    memory_hits = hits - disk_hits - result_remote_hits
    _set(result, "pipeline.result.hit_ratio", hits / lookups, "ratio")
    _set(result, "pipeline.disk.hit_ratio", disk_hits / max(lookups - memory_hits, 1), "ratio")
    remote = client.stats_snapshot()
    _set(result, "pipeline.remote.hit_ratio", remote["hits"] / max(remote["gets"], 1), "ratio")
    stage_hits = sum(stage_after[f"{t}_hits"] - stage_before[f"{t}_hits"] for t in ("parse", "evaluate", "backend"))
    stage_misses = sum(stage_after[f"{t}_misses"] - stage_before[f"{t}_misses"] for t in ("parse", "evaluate", "backend"))
    _set(result, "pipeline.stage.hit_ratio", stage_hits / max(stage_hits + stage_misses, 1), "ratio")
    _set(result, "pipeline.backend.units_emitted", stage_after["backend_misses"] - stage_before["backend_misses"], "count")


# ---------------------------------------------------------------------------
# edit-serve: the daemon's own profile, and the Workspace underneath it
# ---------------------------------------------------------------------------


def _service_totals(stats: dict, method: str) -> tuple[float, int]:
    """(total ms, calls) of one served method, from its histogram's mean and count."""
    latency = stats["server"]["latency"].get(method, {}).get("latency", {})
    return latency.get("mean_ms", 0.0) * latency.get("count", 0), latency.get("count", 0)


def _stage_totals(stats: dict, stage: str) -> tuple[float, int]:
    """(total wall ms, calls) of one profiled frontend stage inside the daemon."""
    entry = stats["workspace"].get("profiling", {}).get("stages", {}).get(stage, {})
    return entry.get("wall_ms", 0.0), entry.get("count", 0)


def _window_mean(before: tuple[float, int], after: tuple[float, int]) -> float:
    """Mean per call between two ``stats`` snapshots."""
    return (after[0] - before[0]) / max(after[1] - before[1], 1)


def serve_layers(ctx: Context, result: Result, tracer: Tracer) -> None:
    daemon, users = serve_session(ctx, "traced", "--profile-stages")
    try:
        before = users[0].client.stats()
        for user in users:
            for method in SERVED_METHODS:
                setattr(user.client, method, traced(tracer, f"client.{method}", getattr(user.client, method)))
        run_users(users, math.inf, EDITS_PER_USER)
        for error in (error for user in users for error in user.errors):
            result.attempt(False, error)
        after = users[0].client.stats()
        daemon.extra_pids = [worker["pid"] for worker in after["pool"]["per_worker"]]
        result.attempt(
            all(len(user.edits) == EDITS_PER_USER for user in users), "a traced user did not finish its edits"
        )
        check_served(result, users)
    finally:
        stop_serve(daemon, users)

    for method in SERVED_METHODS:
        service = _window_mean(_service_totals(before, method), _service_totals(after, method))
        client = fmean(span.ms for span in tracer.named(f"client.{method}"))
        _set(result, f"server.{method}.service_ms", service, "ms")
        _set(result, f"server.{method}.hop_ms", client - service, "ms")
    for stage in STAGES:
        mean = _window_mean(_stage_totals(before, stage), _stage_totals(after, stage))
        _set(result, f"server.stage.{stage}_ms", mean, "ms")
    _set(result, "server.rejects", after["server"]["errors"] - before["server"]["errors"], "count")
    _set(result, "server.restarts", after["pool"]["restarts"], "count")


def workspace_layers(ctx: Context, result: Result, tracer: Tracer) -> None:
    """The same edit loop on an in-process ``Workspace``: no server in between."""
    from repro.workspace import Workspace

    client = WorkspaceClient(Workspace(cache_dir=ctx.path("workspace-cache")))
    user = User(client, "fleet", ctx.seed)
    client.open_design(user.design, user.files)
    user.read()
    client.update_file = traced(tracer, "workspace.update_file", client.update_file)
    client.get_outputs = traced(tracer, "workspace.outputs", client.get_outputs)
    for _ in range(EDITS_PER_USER):
        user.edit()
    _set(result, "workspace.update_file_ms", median([s.ms for s in tracer.named("workspace.update_file")]), "ms")
    _set(result, "workspace.outputs_ms", median([s.ms for s in tracer.named("workspace.outputs")]), "ms")
    check_served(result, [user])


# ---------------------------------------------------------------------------
# tpch-sim: compile, elaborate, run, analyse
# ---------------------------------------------------------------------------


def sim_layers(ctx: Context, result: Result, tracer: Tracer) -> None:
    from repro.arrow.fletcher import reader_behaviors
    from repro.arrow.tpch import generate_tpch_data
    from repro.queries import ALL_QUERIES
    from repro.sim import Simulator, analyze_bottlenecks, detect_deadlock

    tables = generate_tpch_data(TPCH_LINEITEMS, seed=ctx.seed)
    events = 0
    for query in ALL_QUERIES:
        plan = query.default_plan()
        behaviors = reader_behaviors(query.schemas, query.dataset_builder(tables))
        with tracer.span("sim.compile"):
            compiled = query.compile(force=True)
        with tracer.span("sim.elaborate"):
            simulator = Simulator(compiled.project, channel_capacity=plan.channel_capacity, behaviors=behaviors)
        with tracer.span("sim.run"):
            trace = simulator.run(max_time=plan.max_time, max_events=plan.max_events)
        with tracer.span("sim.analyses"):
            deadlocked = detect_deadlock(simulator, trace).deadlocked
            analyze_bottlenecks(trace)
        events += trace.events_processed
        result.attempt(not deadlocked, f"{query.name}: deadlock verdict")
        value = query.extract_result(trace)
        result.attempt(same_result(value, query.golden(tables)), f"{query.name}: result differs from golden()")
    for layer in ("compile", "elaborate", "run", "analyses"):
        _set(result, f"sim.{layer}_ms", tracer.total_ms(f"sim.{layer}"), "ms")
    _set(result, "sim.events", events, "count")
    _set(result, "sim.us_per_event", tracer.total_ms("sim.run") * 1000.0 / events, "us")
