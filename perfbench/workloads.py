"""The four end-to-end workloads, measured with tracing off.

Each function fills a :class:`~common.Result` with the metrics named in
``BENCHMARK.json`` (``setup_s``, ``op_p50_rel``, ``peak_rss_mb``) and with
the workload's own named figures, and counts every operation it attempts
and every check it makes.

``op_p50_rel`` is the median operation time in units of
:func:`common.reference_kernel`, timed in blocks alternated with the
operations: the host's speed drifts by up to 2x between phases longer than
one sample, and the ratio cancels it.  ``setup_s`` is measured the same way
and converted back to seconds at the reference speed
(:data:`common.REFERENCE_S`).  The wall times themselves are printed as
``setup_wall_s``, ``op_p50_s`` and the workload's own figures.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import random
import shutil
import threading
import time
from pathlib import Path
from statistics import median
from typing import Callable, Optional

import fleet
from common import REFERENCE_S, TYDI_COMPILE, BenchError, Context, Daemon, PairedSamples, Result, percentile
from common import paired_runs, paired_samples, reference_time, run_process, self_max_rss_kb

WIDTH = 160
TARGETS = ("vhdl", "verilog", "tydi-ir")
TARGET_ARGS = [arg for target in TARGETS for arg in ("--target", target)]
SERVE_TARGET = "verilog"
READS_PER_EDIT = 3
#: Edit cycles per user after which the daemon's peak memory is read.
RSS_CYCLES = 8
#: Set-ups that take well under a second are repeated and reported as a median.
SHORT_SETUPS = 5
#: Reference-kernel calls per block: about 1.7 s beside long operations, 0.25 s beside short ones.
LONG_REFERENCE = 1000
SHORT_REFERENCE = 150


def _e2e(
    result: Result,
    setup: PairedSamples,
    op_rel: float,
    op_s: float,
    throughput: float,
    reference_s: float,
    peak_rss_kb: int,
) -> None:
    result.metrics["setup_s"] = (median(setup.relative) * REFERENCE_S, "s")
    result.metrics["op_p50_rel"] = (op_rel, "ref")
    result.metrics["peak_rss_mb"] = (peak_rss_kb / 1024.0, "MB")
    result.detail["setup_wall_s"] = (median(setup.durations), f"s (median of {len(setup.durations)})")
    result.detail["op_p50_s"] = (op_s, "s")
    result.detail["throughput_per_s"] = (throughput, "1/s")
    result.detail["reference_ms"] = (reference_s * 1000.0, "ms (median reference-kernel call)")


def _latency(result: Result, name: str, samples: list[float], scale: float, unit: str) -> None:
    """Client-side p50 and p90 with their sample count (p90 needs >= 100 samples)."""
    for label, fraction in (("p50", 0.5), ("p90", 0.9)):
        value = percentile(samples, fraction) if samples else None
        key = f"{name}_{label}_{unit}"
        if value is None:
            result.detail[key] = (f"n/a (n={len(samples)}, needs 100)", "")
        else:
            result.detail[key] = (value * scale, f"{unit} (n={len(samples)})")


def _failed_ratio(result: Result) -> None:
    result.detail["failed_ratio"] = (result.failed / max(result.attempted, 1), f"({result.failed}/{result.attempted})")


def _write_fleet(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    for name, text in fleet.fleet_files(WIDTH).items():
        (directory / name).write_text(text)


def read_tree(out_dir: Path) -> dict[str, dict[str, str]]:
    """``{target: {filename: text}}`` of one ``--out-dir``."""
    return {
        target.name: {path.name: path.read_text() for path in sorted(target.iterdir())}
        for target in sorted(out_dir.iterdir())
        if target.is_dir()
    }


def tree_bytes(tree: dict[str, dict[str, str]]) -> int:
    return sum(len(text.encode()) for files in tree.values() for text in files.values())


def check_fleet_tree(tree: dict[str, dict[str, str]], widths: int | list[int] = WIDTH) -> list[str]:
    """Geometry checks of the VHDL and Verilog outputs, plus a non-empty IR document."""
    problems = []
    for language in ("vhdl", "verilog"):
        problems += fleet.check_fleet_outputs(tree.get(language, {}), widths, language)
    if not any(text.strip() for text in tree.get("tydi-ir", {}).values()):
        problems.append("tydi-ir: no document emitted")
    return problems


# ---------------------------------------------------------------------------
# fleet-cold
# ---------------------------------------------------------------------------


def fleet_cold(ctx: Context, result: Result) -> None:
    """One fresh ``tydi-compile`` process per sample, all three targets, no cache."""
    sources = ctx.path("fleet")
    order = fleet.seeded_order(ctx.seed)

    def setup_once() -> float:
        start = time.perf_counter()
        _write_fleet(sources)
        smoke = run_process(ctx, TYDI_COMPILE, ["--list-backends"], cwd=sources)
        result.attempt(
            smoke.returncode == 0 and all(target in smoke.stdout for target in TARGETS),
            f"tydi-compile --list-backends: {smoke.stdout[-300:]}",
        )
        return time.perf_counter() - start

    setup = paired_runs(SHORT_SETUPS, setup_once, reference_calls=SHORT_REFERENCE)
    runs = []

    def sample() -> float:
        out = ctx.path(f"out-{len(runs)}")
        run = run_process(ctx, TYDI_COMPILE, [*TARGET_ARGS, "--out-dir", str(out), *order], cwd=sources)
        runs.append((run, out))
        return run.wall_s

    # A cold compile takes 9-20 s here; the median of three discards one
    # that a short slow phase of the host hit.
    paired = paired_samples(ctx.seconds, sample, reference_calls=LONG_REFERENCE, min_samples=3)
    durations = paired.durations
    sizes = set()
    for run, out in runs:
        if not result.attempt(run.returncode == 0, f"tydi-compile exited {run.returncode}: {run.stdout[-300:]}"):
            continue
        tree = read_tree(out)
        problems = check_fleet_tree(tree)
        result.attempt(not problems, "; ".join(problems[:3]))
        sizes.add(tree_bytes(tree))
        shutil.rmtree(out)
    result.attempt(len(sizes) <= 1, f"emitted sizes differ between identical compiles: {sorted(sizes)}")

    peak = max(run.max_rss_kb for run, _ in runs)
    throughput = fleet.instance_count(WIDTH) * len(durations) / sum(durations)
    _e2e(result, setup, median(paired.relative), median(durations), throughput, median(paired.references), peak)
    result.detail["compile_s"] = (median(durations), f"s (n={len(durations)})")
    result.detail["hdl_bytes"] = (max(sizes) if sizes else 0, "B")
    _failed_ratio(result)


# ---------------------------------------------------------------------------
# fleet-rebuild
# ---------------------------------------------------------------------------


def _remote_hit(stdout: str) -> bool:
    """Whether a ``--json`` compile was served by one whole-result remote hit."""
    try:
        cache = json.loads(stdout)["cache"]
    except (ValueError, KeyError, TypeError):
        return False
    return cache.get("hits") == 1 and cache.get("misses") == 0 and (cache.get("remote") or {}).get("hits", 0) >= 1


def rebuild_args(ctx: Context, tag: str, endpoint: str, order: list[str]) -> list[str]:
    return [
        *TARGET_ARGS,
        "--out-dir",
        str(ctx.path(f"out-{tag}")),
        "--cache-dir",
        str(ctx.path(f"cache-{tag}")),
        "--remote-cache",
        endpoint,
        "--json",
        *order,
    ]


def warm_remote(ctx: Context, cachesvc: Daemon, order: list[str], sources: Path) -> tuple[bool, str]:
    """Cold-compile the fleet through the remote tier until a rebuild hits it.

    The CLI uploads write-behind and does not wait for the queue at exit,
    so the whole-result entry can in principle miss the upload; a probe
    rebuild confirms it landed and a second compile (stage hits) retries.
    """
    log = ""
    for attempt in range(3):
        warm = run_process(ctx, TYDI_COMPILE, rebuild_args(ctx, f"ref{attempt}", cachesvc.endpoint, order), cwd=sources)
        probe = run_process(ctx, TYDI_COMPILE, rebuild_args(ctx, "probe", cachesvc.endpoint, order), cwd=sources)
        shutil.rmtree(ctx.path("out-probe"), ignore_errors=True)
        shutil.rmtree(ctx.path("cache-probe"), ignore_errors=True)
        log = warm.stdout[-300:]
        if warm.returncode == 0 and probe.returncode == 0 and _remote_hit(probe.stdout):
            ctx.path(f"out-ref{attempt}").rename(ctx.path("out-ref"))
            return True, ""
    return False, log


def fleet_rebuild(ctx: Context, result: Result) -> None:
    """``tydi-compile`` on the unchanged fleet, empty ``--cache-dir``, warm remote."""
    setup_references = [reference_time(LONG_REFERENCE)]
    start = time.perf_counter()
    sources = ctx.path("fleet")
    order = fleet.seeded_order(ctx.seed)
    _write_fleet(sources)
    cachesvc = Daemon(ctx, "cachesvc", ["cache", "--host", "127.0.0.1", "--port", "0"])
    try:
        warmed, log = warm_remote(ctx, cachesvc, order, sources)
        setup_wall = time.perf_counter() - start
        setup_references.append(reference_time(LONG_REFERENCE))
        if not result.attempt(warmed, f"could not warm the remote cache: {log}"):
            raise BenchError("the remote cache never served the fleet")
        reference = read_tree(ctx.path("out-ref"))
        problems = check_fleet_tree(reference)
        result.attempt(not problems, "; ".join(problems[:3]))
        runs = []

        def sample() -> float:
            tag = str(len(runs))
            run = run_process(ctx, TYDI_COMPILE, rebuild_args(ctx, tag, cachesvc.endpoint, order), cwd=sources)
            runs.append(run)
            ok = run.returncode == 0 and _remote_hit(run.stdout)
            if result.attempt(ok, f"rebuild {tag} was not one remote hit (exit {run.returncode})"):
                same = read_tree(ctx.path(f"out-{tag}")) == reference
                result.attempt(same, f"rebuild {tag} outputs differ from the cold compile's")
            shutil.rmtree(ctx.path(f"out-{tag}"), ignore_errors=True)
            shutil.rmtree(ctx.path(f"cache-{tag}"), ignore_errors=True)
            return run.wall_s

        paired = paired_samples(ctx.seconds, sample, reference_calls=SHORT_REFERENCE, min_samples=3)
        durations = paired.durations
        peak = max(run.max_rss_kb for run in runs) + cachesvc.peak_rss_kb()
    finally:
        cachesvc.stop()

    throughput = fleet.instance_count(WIDTH) * len(durations) / sum(durations)
    setup = PairedSamples([setup_wall], setup_references)
    _e2e(result, setup, median(paired.relative), median(durations), throughput, median(paired.references), peak)
    result.detail["compile_s"] = (median(durations), f"s (n={len(durations)})")
    p90 = percentile(durations, 0.9)
    result.detail["compile_p90_s"] = (
        (p90, f"s (n={len(durations)})") if p90 is not None else (f"n/a (n={len(durations)}, needs 100)", "")
    )
    result.detail["hdl_bytes"] = (tree_bytes(reference), "B")
    _failed_ratio(result)


# ---------------------------------------------------------------------------
# edit-serve
# ---------------------------------------------------------------------------


def shard_of(design: str, shards: int) -> int:
    """The daemon's stable design-to-worker assignment (a sha256 prefix).

    Mirrors ``repro.server.pool.shard_for`` rather than importing it, so
    the benchmark keeps running if the pool module is reorganised.
    """
    return int.from_bytes(hashlib.sha256(design.encode()).digest()[:8], "big") % shards


def user_designs(seed: int, users: int = 2) -> list[str]:
    """One design name per worker shard, so each user has a worker of its own."""
    names: dict[int, str] = {}
    index = 0
    while len(names) < users:
        name = f"fleet-{seed}-{index}"
        names.setdefault(shard_of(name, users), name)
        index += 1
    return [names[shard] for shard in range(users)]


class WorkspaceClient:
    """The client surface a :class:`User` drives, served by an in-process Workspace."""

    def __init__(self, workspace) -> None:
        self.workspace = workspace

    def open_design(self, design: str, files: dict[str, str]) -> None:
        self.workspace.add_design(design, files)

    def update_file(self, design: str, filename: str, text: str) -> None:
        self.workspace.update_file(design, filename, text)

    def get_outputs(self, design: str, target: str) -> dict[str, str]:
        return self.workspace.outputs(design, target)


def edit_width(visits: int) -> int:
    """Chain width of a file's edit after ``visits`` earlier ones: 161, 159, 162, 158, ...

    No width repeats, so every edit makes a project state and a unit the
    daemon's caches have not seen.  A 160/161 toggle would repeat the whole
    project every 30 edits, after which edits become cache hits and the edit
    latency would follow how many edits fit in a run.
    """
    offset = visits // 2 + 1
    return WIDTH + offset if visits % 2 == 0 else WIDTH - offset


class User:
    """One closed-loop client: an edit, then three unchanged re-reads, repeat."""

    def __init__(self, client, design: str, seed: int) -> None:
        self.client = client
        self.design = design
        self.files = fleet.fleet_files(WIDTH)
        self.visit = list(range(fleet.NUM_WIDE))
        random.Random(f"{seed}/{design}").shuffle(self.visit)
        self.edits: list[float] = []
        self.reads: list[float] = []
        self.errors: list[str] = []
        self.step = 0
        #: Called with the number of finished edit cycles after each cycle.
        self.after_cycle: Optional[Callable[[int], None]] = None

    def edit(self) -> None:
        index = self.visit[self.step % len(self.visit)]
        width = edit_width(self.step // len(self.visit))
        self.step += 1
        filename, text = f"wide{index}.td", fleet.wide_text(index, width)
        start = time.perf_counter()
        self.client.update_file(self.design, filename, text)
        self.files[filename] = text
        self.client.get_outputs(self.design, SERVE_TARGET)
        self.edits.append(time.perf_counter() - start)

    def read(self) -> None:
        start = time.perf_counter()
        self.client.get_outputs(self.design, SERVE_TARGET)
        self.reads.append(time.perf_counter() - start)

    def run(self, deadline: float, max_edits: float = math.inf) -> None:
        from repro.errors import TydiServerError

        while time.perf_counter() < deadline and len(self.edits) < max_edits:
            try:
                self.edit()
                for _ in range(READS_PER_EDIT):
                    self.read()
                if self.after_cycle is not None:
                    self.after_cycle(len(self.edits))
            except TydiServerError as exc:
                self.errors.append(f"{self.design}: {exc}")
                if len(self.errors) > 20:
                    return
            except OSError as exc:  # the connection is gone: this user stops
                self.errors.append(f"{self.design}: {exc!r}")
                return


def run_users(users: list[User], seconds: float, max_edits: float = math.inf) -> float:
    """Drive every user on its own thread until the deadline; returns wall time."""
    start = time.perf_counter()
    threads = [threading.Thread(target=user.run, args=(start + seconds, max_edits)) for user in users]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def open_users(ctx: Context, daemon: Daemon) -> list[User]:
    """Connect one client per user, open its own fleet copy, compile it once."""
    from repro.server.client import CompileClient

    users = []
    for design in user_designs(ctx.seed):
        client = CompileClient(daemon.host, daemon.port, timeout=120.0).connect()
        users.append(User(client, design, ctx.seed))
    for user in users:
        user.client.open_design(user.design, files=user.files)
    threads = [threading.Thread(target=user.read) for user in users]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for user in users:
        user.reads.clear()
    return users


def start_serve(ctx: Context, tag: str, *extra: str) -> Daemon:
    return Daemon(
        ctx,
        f"serve-{tag}",
        ["serve", "--host", "127.0.0.1", "--port", "0", "--workers", "2", "--cache-dir", str(ctx.path(f"serve-{tag}")), *extra],
    )


def stop_serve(daemon: Daemon, users: list[User]) -> None:
    from repro.server.client import CompileClient

    for user in users:
        user.client.close()

    def shutdown() -> None:
        with CompileClient(daemon.host, daemon.port, timeout=20.0) as client:
            client.shutdown()

    daemon.stop(request_stop=shutdown)


def check_served(result: Result, users: list[User]) -> None:
    """Each design's final served outputs equal a direct compile of its files."""
    from repro.lang.compile import compile_sources

    for user in users:
        served = user.client.get_outputs(user.design, SERVE_TARGET)
        direct = compile_sources(
            [(text, name) for name, text in user.files.items()], targets=(SERVE_TARGET,)
        ).outputs[SERVE_TARGET]
        result.attempt(served == direct, f"{user.design}: served {SERVE_TARGET} differs from a direct compile")


def serve_session(ctx: Context, tag: str, *extra: str) -> tuple[Daemon, list[User]]:
    """A started daemon with both users connected and their designs compiled once."""
    daemon = start_serve(ctx, tag, *extra)
    users: list[User] = []
    try:
        users = open_users(ctx, daemon)
    except BaseException:
        stop_serve(daemon, users)
        raise
    return daemon, users


class MemoryCheckpoint:
    """Reads the daemon's peak RSS once every user has run ``cycles`` edit cycles.

    The daemon's memory grows with every edit, so a peak read after a fixed
    amount of work repeats from run to run, where a read at the deadline
    would follow the host's speed.
    """

    def __init__(self, daemon: Daemon, users: list[User], cycles: int) -> None:
        self.daemon = daemon
        self.cycles = cycles
        self.waiting = len(users)
        self.kb: Optional[int] = None
        self._lock = threading.Lock()
        for user in users:
            user.after_cycle = self

    def __call__(self, cycles: int) -> None:
        if cycles != self.cycles:
            return
        with self._lock:
            self.waiting -= 1
            if self.waiting == 0:
                self.kb = self.daemon.peak_rss_kb()


def edit_serve(ctx: Context, result: Result) -> None:
    """A two-worker daemon under two closed-loop users, edits and re-reads."""
    setups = []
    setup_references = [reference_time(SHORT_REFERENCE)]
    for attempt in range(3):
        start = time.perf_counter()
        daemon, users = serve_session(ctx, f"e2e{attempt}")
        setups.append(time.perf_counter() - start)
        setup_references.append(reference_time(SHORT_REFERENCE))
        if attempt < 2:
            stop_serve(daemon, users)
    setup = PairedSamples(setups, setup_references)
    try:
        stats = users[0].client.stats()
        daemon.extra_pids = [worker["pid"] for worker in stats["pool"]["per_worker"]]
        checkpoint = MemoryCheckpoint(daemon, users, RSS_CYCLES)
        references = [reference_time(LONG_REFERENCE)]
        wall = run_users(users, ctx.seconds)
        references.append(reference_time(LONG_REFERENCE))
        stats = users[0].client.stats()
        result.attempt(checkpoint.kb is not None, f"no user reached {RSS_CYCLES} edit cycles")
        peak = checkpoint.kb or daemon.peak_rss_kb()
        check_served(result, users)
    finally:
        stop_serve(daemon, users)

    edits = [sample for user in users for sample in user.edits]
    reads = [sample for user in users for sample in user.reads]
    errors = [error for user in users for error in user.errors]
    result.attempted += len(edits) + len(reads)
    for error in errors:
        result.attempt(False, error)
    restarts = stats["pool"]["restarts"]
    result.attempt(restarts == 0, f"{restarts} worker restart(s)")
    if not edits:
        raise BenchError("no edit completed")

    reference = sum(references) / len(references)
    _e2e(result, setup, median(edits) / reference, median(edits), (len(edits) + len(reads)) / wall, reference, peak)
    _latency(result, "edit", edits, 1000.0, "ms")
    _latency(result, "read", reads, 1000.0, "ms")
    result.detail["ops_per_s"] = ((len(edits) + len(reads)) / wall, "1/s (edits + reads)")
    result.detail["server_errors"] = (stats["server"]["errors"], "")
    _failed_ratio(result)


# ---------------------------------------------------------------------------
# tpch-sim
# ---------------------------------------------------------------------------

TPCH_LINEITEMS = 800


def same_result(value: object, golden: object) -> bool:
    """Structural equality with floats compared at rel 1e-9."""
    if isinstance(golden, dict):
        return (
            isinstance(value, dict)
            and value.keys() == golden.keys()
            and all(same_result(value[k], golden[k]) for k in golden)
        )
    if isinstance(golden, (list, tuple)):
        return (
            isinstance(value, (list, tuple))
            and len(value) == len(golden)
            and all(same_result(v, g) for v, g in zip(value, golden))
        )
    if isinstance(golden, numbers.Real) and not isinstance(golden, bool):
        return isinstance(value, numbers.Real) and math.isclose(value, golden, rel_tol=1e-9, abs_tol=1e-12)
    return value == golden


TPCH_SETUP = (
    "import sys; from repro.arrow.tpch import generate_tpch_data; import repro.queries, repro.sim; "
    "generate_tpch_data(%d, seed=int(sys.argv[1]))" % TPCH_LINEITEMS
)


def tpch_sim(ctx: Context, result: Result) -> None:
    """Compile every TPC-H design cold and simulate it on a seeded dataset."""
    from repro.arrow.tpch import generate_tpch_data
    from repro.queries import ALL_QUERIES
    from repro.sim import detect_deadlock

    # Set-up is importing the simulation stack and generating the dataset;
    # it is timed in fresh interpreters (this one has imported already).
    def setup_once() -> float:
        run = run_process(ctx, TPCH_SETUP, [str(ctx.seed)])
        result.attempt(run.returncode == 0, f"TPC-H set-up failed: {run.stdout[-300:]}")
        return run.wall_s

    setup = paired_runs(SHORT_SETUPS, setup_once, reference_calls=SHORT_REFERENCE)
    tables = generate_tpch_data(TPCH_LINEITEMS, seed=ctx.seed)

    suites: list[tuple[float, int, int]] = []
    outcomes = []

    def suite() -> float:
        busy, events, cycles = 0.0, 0, 0
        for query in ALL_QUERIES:
            begin = time.perf_counter()
            query.compile(force=True)
            value, trace, simulator = query.simulate(tables)
            busy += time.perf_counter() - begin
            events += trace.events_processed
            cycles += trace.end_time
            outcomes.append((query, value, detect_deadlock(simulator, trace).deadlocked))
        suites.append((busy, events, cycles))
        return busy

    paired = paired_samples(ctx.seconds, suite, reference_calls=LONG_REFERENCE, min_samples=2)
    durations = paired.durations
    goldens = {query.name: query.golden(tables) for query in ALL_QUERIES}
    for query, value, deadlocked in outcomes:
        result.attempt(not deadlocked, f"{query.name}: deadlock verdict")
        result.attempt(same_result(value, goldens[query.name]), f"{query.name}: result differs from golden()")
    totals = {(events, cycles) for _, events, cycles in suites}
    result.attempt(len(totals) == 1, f"suites of one dataset disagree on events/cycles: {sorted(totals)}")

    events = sum(events for _, events, _ in suites)
    _e2e(
        result,
        setup,
        median(paired.relative),
        median(durations),
        events / sum(durations),
        median(paired.references),
        self_max_rss_kb(),
    )
    result.detail["sim_suite_s"] = (median(durations), f"s (n={len(durations)})")
    result.detail["sim_events_per_s"] = (events / sum(durations), "1/s")
    result.detail["sim_cycles"] = (suites[0][2], "cycles per suite")
    result.detail["sim_events"] = (suites[0][1], "events per suite")
    _failed_ratio(result)


WORKLOADS = {
    "fleet-cold": fleet_cold,
    "fleet-rebuild": fleet_rebuild,
    "edit-serve": edit_serve,
    "tpch-sim": tpch_sim,
}
