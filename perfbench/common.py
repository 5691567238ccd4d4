"""Shared plumbing of the benchmark: paths, processes, statistics, spans.

Everything the benchmark writes lives under ``<checkout>/.perfbench/``;
every process it starts is stopped and reaped before the run returns.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

#: Console-script equivalents, run from the checkout's ``src/`` tree so the
#: benchmark always measures the program it ships with.
TYDI_COMPILE = "import sys; from repro.cli import main; sys.exit(main())"
TYDI_SERVE = "import sys; from repro.server.cli import main; sys.exit(main())"

_LISTENING = re.compile(r"listening on ([\w.\-]+):(\d+)")


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing program, daemon never came up)."""


# ---------------------------------------------------------------------------
# The checkout and the run's scratch space
# ---------------------------------------------------------------------------


@dataclass
class Context:
    """One benchmark run: where the program is, where scratch files go."""

    root: Path
    seed: int
    seconds: float
    work: Path = field(init=False)

    def __post_init__(self) -> None:
        self.work = self.root / ".perfbench" / f"run-{os.getpid()}"

    @property
    def src(self) -> Path:
        return self.root / "src"

    def open(self) -> None:
        """Create the scratch tree and make the program importable in-process."""
        if not (self.src / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program source at {self.src / 'repro'}")
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        os.environ["TMPDIR"] = str(self.work / "tmp")
        tempfile.tempdir = str(self.work / "tmp")
        sys.path.insert(0, str(self.src))
        import repro

        origin = Path(repro.__file__).resolve()
        if self.src.resolve() not in origin.parents:
            raise BenchError(f"repro imported from {origin}, not from {self.src}")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def path(self, *parts: str) -> Path:
        return self.work.joinpath(*parts)

    def env(self) -> dict[str, str]:
        """Child environment: the checkout's sources, no profiling switches."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("TYDI_")}
        env["PYTHONPATH"] = str(self.src)
        env["TMPDIR"] = str(self.work / "tmp")
        return env


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass
class ProcessRun:
    """One finished child process: exit code, wall time, peak RSS."""

    returncode: int
    wall_s: float
    max_rss_kb: int
    stdout: str


def run_process(
    ctx: Context, code: str, args: list[str], *, timeout: float = 170.0, cwd: Optional[Path] = None
) -> ProcessRun:
    """Run ``python -c code args...`` to completion and time it from outside.

    ``wait4`` reaps the child and returns its own resource usage, so the
    peak RSS is this process's alone, not the maximum over every child.
    """
    out_path = ctx.path("tmp", f"stdout-{threading.get_ident()}.txt")
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *args],
            stdout=out,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=ctx.env(),
            cwd=cwd or ctx.work,
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessRun(proc.returncode, wall, usage.ru_maxrss, out_path.read_text(errors="replace"))


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, in kB (0 if gone)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.MULTILINE)
    return int(match.group(1)) if match else 0


def self_max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


class Daemon:
    """A long-running program process (``tydi-serve serve`` / ``cache``).

    Started in its own session so that stopping it can sweep up the
    processes it forked; :meth:`stop` returns only once all of them are gone.
    """

    def __init__(self, ctx: Context, name: str, args: list[str], *, ready_timeout: float = 60.0) -> None:
        self.log_path = ctx.path(f"{name}.log")
        self.extra_pids: list[int] = []
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", TYDI_SERVE, *args],
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=ctx.env(),
                cwd=ctx.work,
                start_new_session=True,
            )
        deadline = time.monotonic() + ready_timeout
        while True:
            match = _LISTENING.search(self.log_path.read_text(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                log_text = self.log_path.read_text(errors="replace")
                self.stop()
                raise BenchError(f"{name} daemon did not start:\n{log_text}")
            time.sleep(0.02)

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def peak_rss_kb(self) -> int:
        """Summed peak RSS of the daemon and its known children (call while alive)."""
        return sum(vm_hwm_kb(pid) for pid in [self.proc.pid, *self.extra_pids])

    def stop(self, request_stop: Optional[Callable[[], None]] = None) -> None:
        """Ask politely (``request_stop`` or SIGTERM), then kill; reap everything.

        SIGTERM, not SIGINT: a benchmark started in the background inherits
        an ignored SIGINT, and so would the daemon.
        """
        if self.proc.poll() is None:
            try:
                if request_stop is not None:
                    request_stop()
                else:
                    self.proc.terminate()
                self.proc.wait(timeout=10)
            except Exception:  # noqa: BLE001 - any failure to stop politely ends in a kill
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        for pid in self.extra_pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], fraction: float) -> Optional[float]:
    """The ``fraction`` quantile, or ``None`` when fewer than ten samples lie beyond it."""
    if fraction != 0.5 and len(values) * (1.0 - fraction) < 10:
        return None
    if fraction == 0.5:
        return statistics.median(values)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def scaling_exponent(small: list[float], large: list[float], ratio: float = 2.0) -> float:
    """``k`` in ``cost ~ size**k`` from paired timings at two sizes ``ratio`` apart.

    ``small[i]`` and ``large[i]`` were measured back to back; the median of
    the per-pair exponents keeps a slow phase of the host, which slows both
    members of a pair, out of the result.
    """
    return statistics.median(math.log(b / a) / math.log(ratio) for a, b in zip(small, large) if a > 0 and b > 0)


def timed_samples(seconds: float, sample: Callable[[], float], *, min_samples: int = 1) -> list[float]:
    """Run ``sample`` (returning its own duration) for about ``seconds``.

    A further sample starts only while the run, extended by one median
    sample, still fits the budget, so a run never overshoots by a whole
    long sample; ``min_samples`` always run.
    """
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        durations.append(sample())
        elapsed = time.perf_counter() - start
        if len(durations) >= min_samples and elapsed + statistics.median(durations) > seconds:
            return durations


class _Node:
    __slots__ = ("name", "width", "links")

    def __init__(self, name: str, width: int) -> None:
        self.name = name
        self.width = width
        self.links: list[str] = []


def reference_kernel(size: int = 2_000) -> int:
    """A fixed pure-Python workload that no code of the program runs.

    It builds a chain of named objects and renders it as port-map lines:
    the same mix of object creation, string formatting, dict and list work
    as a compile, about 1.7 ms on the 2-vCPU measuring VM.  It is small
    enough to reuse the allocator's arenas, so it takes no page faults.  Its
    time tracks the host's speed and nothing else, so an operation's time
    divided by it cancels the host's slow phases.
    """
    nodes: dict[str, _Node] = {}
    previous: Optional[_Node] = None
    for index in range(size):
        node = _Node(f"pu_{index % 160}_{index}", index % 9 + 1)
        nodes[node.name] = node
        if previous is not None:
            previous.links.append(node.name)
            node.links.append(previous.name)
        previous = node
    lines = [f"  {name} : step port map ({', '.join(node.links)}) -- {node.width}" for name, node in nodes.items()]
    text = "\n".join(lines)
    return len(text) + sum(len(line.split()) for line in lines[::4])


#: Seconds per :func:`reference_kernel` call on the measuring VM in a quiet
#: hour: converts a time in reference units back to seconds.
REFERENCE_S = 1.65e-3


def reference_time(calls: int) -> float:
    """Seconds per :func:`reference_kernel` call, over ``calls`` calls.

    The collector is off while it runs (the kernel makes no cycles), so the
    time does not depend on how much the benchmark process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(calls):
            reference_kernel()
        return (time.perf_counter() - start) / calls
    finally:
        if enabled:
            gc.enable()


@dataclass
class PairedSamples:
    """Operation times alternated with reference-kernel times: r0 s0 r1 s1 ... rn."""

    durations: list[float]
    references: list[float]

    @property
    def relative(self) -> list[float]:
        """Each operation's time in units of the mean of the two references around it."""
        return [s / ((a + b) / 2.0) for s, a, b in zip(self.durations, self.references, self.references[1:])]


def paired_samples(
    seconds: float, sample: Callable[[], float], *, reference_calls: int, min_samples: int = 1
) -> PairedSamples:
    """:func:`timed_samples` with a reference-kernel block before and after each sample."""
    references = [reference_time(reference_calls)]

    def paired() -> float:
        duration = sample()
        references.append(reference_time(reference_calls))
        return duration

    return PairedSamples(timed_samples(seconds, paired, min_samples=min_samples), references)


def paired_runs(count: int, sample: Callable[[], float], *, reference_calls: int) -> PairedSamples:
    """Exactly ``count`` samples, each with a reference-kernel block before and after."""
    return paired_samples(0.0, sample, reference_calls=reference_calls, min_samples=count)


# ---------------------------------------------------------------------------
# The run's result
# ---------------------------------------------------------------------------


@dataclass
class Result:
    """What one run reports: correctness, counts and named metrics.

    ``metrics`` are the metrics named in ``BENCHMARK.json`` (printed in the
    final JSON line); ``detail`` are the workload's own named figures,
    printed one per line above it.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    detail: dict[str, tuple[object, str]] = field(default_factory=dict)

    def attempt(self, ok: bool, problem: str = "") -> bool:
        """Count one operation; a failed one also records why."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def summary(self) -> dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()},
        }

    def lines(self) -> Iterator[str]:
        for name, (value, unit) in [*self.metrics.items(), *self.detail.items()]:
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            yield f"  {name:<36} {shown} {unit}".rstrip()
        for problem in self.problems:
            yield f"  FAILED: {problem}"

    def to_json(self) -> str:
        return json.dumps(self.summary(), separators=(", ", ": "))


# ---------------------------------------------------------------------------
# Spans (traced runs only)
# ---------------------------------------------------------------------------


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """In-memory spans recorded around the benchmark's calls into each layer.

    Each thread keeps its own parent stack, so the two simulated users of
    the serve section nest their spans independently.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            record = Span(len(self.spans), stack[-1] if stack else None, name, 0.0)
            self.spans.append(record)
        stack.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total_ms(self, name: str) -> float:
        return sum(span.ms for span in self.named(name))

    def self_ms(self, span: Span) -> float:
        """A span's duration minus what its direct children cover."""
        children = sum(s.ms for s in self.spans if s.parent == span.id)
        return span.ms - children

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start, "end": s.end, "self_ms": self.self_ms(s)}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows))
