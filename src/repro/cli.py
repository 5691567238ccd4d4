"""Command-line interface: ``tydi-compile``.

Compiles one or more Tydi-lang source files to Tydi-IR and (optionally)
VHDL, mirroring the workflow of Figure 1:

.. code-block:: console

    $ tydi-compile design.td --top my_top --vhdl-dir out/

In the default mode every given file is part of *one* design.  With
``--batch`` each file is an *independent* design and the set is compiled
through the pipeline batch driver (:mod:`repro.pipeline`), optionally in
parallel and against a content-addressed cache:

.. code-block:: console

    $ tydi-compile --batch --jobs 4 --cache-dir .tydi-cache --json designs/*.td

Output backends are pluggable (:mod:`repro.backends`): ``--target`` selects
one or more registered emitters (``--list-backends`` enumerates them),
``--backend-opt name.key=value`` sets their options, and a single design's
outputs stream to stdout when no ``--out-dir`` is given:

.. code-block:: console

    $ tydi-compile --target dot design.td | dot -Tsvg > design.svg
    $ tydi-compile --target dot --backend-opt dot.rankdir=TB design.td
    $ tydi-compile --target vhdl --target ir --target dot --out-dir out/ design.td

``--from-ir`` swaps the frontend: the sources are Tydi-IR interchange
documents (:mod:`repro.interchange`, e.g. a previous ``--target tydi-ir``
emission) compiled through the ingest pipeline, so a design can round-trip
out of one session and into another without its Tydi-lang sources:

.. code-block:: console

    $ tydi-compile --target tydi-ir --out-dir out/ design.td
    $ tydi-compile --from-ir --target vhdl --out-dir out2/ out/tydi-ir/design.tir

Both modes run through one :class:`repro.workspace.Workspace` session, and
``--watch`` keeps that session alive: the loop polls the source files
(``--watch-interval`` seconds), feeds real changes through
``Workspace.update_file`` (fingerprint-keyed, so an unchanged save is a
no-op) and recompiles only the designs that became stale, re-writing the
requested outputs:

.. code-block:: console

    $ tydi-compile --watch --ir-out out.tir design.td
    $ tydi-compile --batch --watch --cache-dir .tydi-cache designs/*.td

For a *shared* long-lived session serving many clients, see ``tydi-serve``
(:mod:`repro.server`).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tydi-compile",
        description="Compile Tydi-lang sources to Tydi-IR and VHDL.",
    )
    parser.add_argument("sources", nargs="*", help="Tydi-lang source files (.td)")
    parser.add_argument(
        "--from-ir",
        action="store_true",
        help="treat the sources as Tydi-IR interchange documents (.tir, e.g. "
        "a previous --target tydi-ir emission) and compile them through the "
        "ingest pipeline instead of the Tydi-lang frontend; single mode "
        "takes exactly one document, --batch one per source",
    )
    parser.add_argument("--top", help="name of the top-level implementation", default=None)
    parser.add_argument("--no-stdlib", action="store_true", help="do not include the standard library")
    parser.add_argument("--no-sugaring", action="store_true", help="disable duplicator/voider insertion")
    parser.add_argument("--ir-out", help="write textual Tydi-IR to this file (a directory in --batch mode)", default=None)
    parser.add_argument(
        "--vhdl-dir",
        help="write generated VHDL files into this directory (one subdirectory per design in --batch mode)",
        default=None,
    )
    parser.add_argument("--stats", action="store_true", help="print design statistics")
    backends = parser.add_argument_group("output backends")
    backends.add_argument(
        "--target",
        action="append",
        dest="targets",
        default=None,
        metavar="NAME",
        help="run a registered output backend (vhdl, ir, dot, ...); repeatable, "
        "one output set per target",
    )
    backends.add_argument(
        "--out-dir",
        default=None,
        metavar="DIR",
        help="write --target outputs under DIR/<target>/ "
        "(DIR/<design>/<target>/ in --batch mode); without it a single "
        "design's outputs stream to stdout, pipeable into e.g. dot -Tsvg",
    )
    backends.add_argument(
        "--backend-opt",
        action="append",
        dest="backend_opts",
        default=None,
        metavar="NAME.KEY=VALUE",
        help="set one option of a registered backend (e.g. dot.rankdir=TB); "
        "repeatable, values are coerced to the option's declared type",
    )
    backends.add_argument(
        "--list-backends",
        action="store_true",
        help="list the registered output backends and exit",
    )
    batch = parser.add_argument_group("batch compilation")
    batch.add_argument(
        "--batch",
        action="store_true",
        help="treat every source file as an independent design and compile them as a batch",
    )
    batch.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker count for --batch (default: CPU count)",
    )
    batch.add_argument(
        "--executor",
        choices=("serial", "thread", "process"),
        default="thread",
        help="batch executor kind (default: thread)",
    )
    batch.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed compilation cache directory (e.g. .tydi-cache)",
    )
    batch.add_argument(
        "--max-cache-mb",
        type=float,
        default=None,
        metavar="MB",
        help="bound the on-disk cache (whole-result and per-stage artefacts) "
        "to this many megabytes, evicting least-recently-used entries",
    )
    batch.add_argument(
        "--remote-cache",
        default=None,
        metavar="HOST:PORT",
        help="shared remote L2 cache endpoint (a tydi-serve cache daemon); "
        "consulted after memory and disk miss, with write-behind upload "
        "(usable with or without --cache-dir)",
    )
    batch.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="print per-design and cache statistics as JSON",
    )
    perf = parser.add_argument_group("performance")
    perf.add_argument(
        "--profile-stages",
        action="store_true",
        help="record per-stage wall/CPU timings (parse, evaluate, sugaring, "
        "drc, backends) and print the table to stderr when done; same "
        "switch as the TYDI_PROFILE_STAGES environment variable",
    )
    sim = parser.add_argument_group("simulation")
    sim.add_argument(
        "--simulate",
        action="store_true",
        help="after compiling, run the event-driven simulator over the "
        "design and print a one-line report (bottleneck component, "
        "deadlock verdict); a deadlocked design exits non-zero",
    )
    sim.add_argument(
        "--sim-plan",
        default=None,
        metavar="FILE",
        help="JSON simulation plan for --simulate: an object with any of "
        "stimuli, channel_capacity, max_time, max_events, analyses, "
        "testbench (default: an empty plan -- sources drive themselves)",
    )
    watch = parser.add_argument_group("watch mode")
    watch.add_argument(
        "--watch",
        action="store_true",
        help="after the first compile, keep the session alive: poll the "
        "source files, feed edits into the workspace and recompile (with "
        "outputs re-written) whenever a file really changed; Ctrl-C exits",
    )
    watch.add_argument(
        "--watch-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="polling interval for --watch (default: 1.0)",
    )
    return parser


def _load_sources(paths: list[str]) -> list[tuple[str, str]]:
    """Read the input files, keyed by their full (relative) path.

    The full path -- not just the basename -- is recorded as the diagnostic
    filename, so two inputs like ``a/top.td`` and ``b/top.td`` stay
    distinguishable in error messages and stage logs.
    """
    sources = []
    for path_text in paths:
        path = pathlib.Path(path_text)
        sources.append((_read_or_exit(path), str(path)))
    return sources


class _CliInputError(Exception):
    """An unusable input or output path (reported as a clean one-line error)."""


def _read_or_exit(path: pathlib.Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise _CliInputError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_file(path: pathlib.Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise _CliInputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _make_dir(path: pathlib.Path) -> pathlib.Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # e.g. the path exists but is a file (FileExistsError), or no perms.
        raise _CliInputError(f"cannot create directory {path}: {exc.strerror or exc}") from exc
    return path


def _design_name(path_text: str, taken: set[str]) -> str:
    """A unique short name for one batch design (stem, then qualified stem)."""
    stem = pathlib.Path(path_text).stem
    if stem not in taken:
        return stem
    candidate = str(pathlib.Path(path_text).with_suffix("")).replace("/", "_").replace("\\", "_")
    while candidate in taken:
        candidate += "_"
    return candidate


def _build_cache(args: argparse.Namespace):
    """The compilation cache the CLI flags describe (``None`` without one).

    ``--remote-cache`` alone still gets a cache (memory + remote tiers,
    no disk): the point of the shared L2 is precisely that a machine
    without a local artefact store can ride the fleet's warm entries.
    """
    max_disk_bytes = None
    if args.max_cache_mb is not None:
        if args.max_cache_mb < 0:
            raise _CliInputError("--max-cache-mb must be >= 0")
        if not args.cache_dir:
            raise _CliInputError("--max-cache-mb requires --cache-dir")
        max_disk_bytes = int(args.max_cache_mb * 1024 * 1024)
    remote = getattr(args, "remote_cache", None)
    if not args.cache_dir and not remote:
        return None
    from repro.pipeline import CompilationCache

    return CompilationCache(
        cache_dir=args.cache_dir or None,
        max_disk_bytes=max_disk_bytes,
        remote=remote,
    )


def _finish_uploads(cache) -> None:
    """Drain the remote tier's write-behind queue, then hang up.

    The uploads ride a daemon thread, so a one-shot compile that exits
    without this loses whatever is still queued -- typically the
    whole-result entry, which is stored last.  ``flush`` waits within its
    own bound (a down endpoint drops its queue, so it returns at once);
    ``close`` is idempotent, so both the ``--json`` report and the exit
    path may call this.
    """
    remote = getattr(cache, "remote", None)
    if remote is not None:
        remote.flush()
        remote.close()


def _load_sim_plan(args: argparse.Namespace):
    """The :class:`~repro.sim.harness.SimulationPlan` of ``--sim-plan``.

    Re-read on every call so a ``--watch`` session picks up plan edits;
    without the flag, the default plan (no stimuli, default budgets).
    """
    from repro.sim.harness import SimulationPlan

    if not args.sim_plan:
        return SimulationPlan()
    path = pathlib.Path(args.sim_plan)
    try:
        document = json.loads(_read_or_exit(path))
    except ValueError as exc:
        raise _CliInputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise _CliInputError(f"{path} must hold a JSON object (a simulation plan)")
    from repro.errors import TydiError

    try:
        return SimulationPlan.coerce(document)
    except TydiError as exc:
        raise _CliInputError(f"{path}: {exc}") from exc


def _design_options(args: argparse.Namespace, name: str, targets, backend_opts):
    """The :class:`~repro.lang.compile.CompileOptions` the CLI flags describe."""
    from repro.lang.compile import CompileOptions

    return CompileOptions(
        top=args.top,
        include_stdlib=not args.no_stdlib,
        sugaring=not args.no_sugaring,
        project_name=name,
        targets=targets,
        backend_options=backend_opts,
    )


def _run_batch(args: argparse.Namespace, cache) -> int:
    from repro.pipeline import CompileJob, JobResult
    from repro.workspace import Workspace

    targets = _resolve_targets(args)
    backend_opts = _resolve_backend_options(args)

    # One workspace session per invocation; --watch keeps it alive below,
    # feeding edited sources through update_file and re-querying.
    workspace = Workspace(cache=cache)

    # An unreadable file is one failed *design*, not a reason to abort the
    # batch -- mirroring the engine's per-design compile-error isolation.
    unreadable: dict[int, JobResult] = {}
    taken: set[str] = set()
    design_paths: dict[str, pathlib.Path] = {}
    for position, path_text in enumerate(args.sources):
        path = pathlib.Path(path_text)
        name = _design_name(path_text, taken)
        taken.add(name)
        design_paths[name] = path
        try:
            text = _read_or_exit(path)
        except _CliInputError as exc:
            placeholder = CompileJob(name=name, sources=())
            unreadable[position] = JobResult(
                job=placeholder,
                error=str(exc),
                error_stage="read",
                error_type=type(exc.__cause__).__name__ if exc.__cause__ else "OSError",
            )
            continue
        if args.from_ir:
            workspace.add_ir_design(
                name,
                text,
                _design_options(args, name, targets, backend_opts),
                filename=str(path),
            )
        else:
            workspace.add_design(
                name,
                ((text, str(path)),),
                _design_options(args, name, targets, backend_opts),
            )

    outcome = workspace.compile_all(executor=args.executor, jobs=args.jobs).batch

    # Splice the read failures back in at their input positions.
    for position in sorted(unreadable):
        outcome.results.insert(position, unreadable[position])

    if args.json_output:
        _finish_uploads(cache)
        payload = {
            "designs": [entry.as_dict() for entry in outcome.results],
            "batch": outcome.stats(),
            "cache": cache.stats_snapshot() if cache is not None else None,
            "stage_cache": cache.stage_stats_snapshot() if cache is not None else None,
        }
        print(json.dumps(payload, indent=2))
    else:
        for entry in outcome.results:
            if entry.ok:
                note = " (cached)" if entry.from_cache else ""
                print(f"[ok] {entry.name}{note} ({entry.elapsed:.3f}s)")
                if args.stats:
                    for key, value in entry.result.project.statistics().items():
                        print(f"    {key}: {value}")
            else:
                stage = entry.error_stage or "error"
                print(f"[failed] {entry.name} ({stage}): {entry.error}")
        stats = outcome.stats()
        print(
            f"batch: {stats['succeeded']}/{stats['jobs']} succeeded "
            f"({stats['cached']} cached) in {stats['wall_time']:.3f}s "
            f"[{stats['executor']} x{stats['workers']}]"
        )

    if args.ir_out:
        out_dir = _make_dir(pathlib.Path(args.ir_out))
        for entry in outcome.results:
            if entry.ok:
                _write_file(out_dir / f"{entry.name}.tir", entry.result.ir_text())
        if not args.json_output:
            print(f"wrote Tydi-IR for {sum(1 for e in outcome.results if e.ok)} design(s) to {out_dir}")

    if args.vhdl_dir:
        from repro.vhdl import generate_vhdl

        base_dir = pathlib.Path(args.vhdl_dir)
        written = 0
        for entry in outcome.results:
            if not entry.ok:
                continue
            design_dir = _make_dir(base_dir / entry.name)
            files = generate_vhdl(entry.result.project)
            for name, text in files.items():
                _write_file(design_dir / name, text)
            written += len(files)
        if not args.json_output:
            print(f"wrote {written} VHDL file(s) to {base_dir} (one directory per design)")

    if targets:
        if args.out_dir:
            base_dir = pathlib.Path(args.out_dir)
            written = 0
            for entry in outcome.results:
                if entry.ok:
                    written += _write_outputs(base_dir / entry.name, entry.result.outputs)
            if not args.json_output:
                print(
                    f"wrote {written} backend output file(s) to {base_dir} "
                    f"(one directory per design and target)"
                )
        elif not args.json_output:
            # The outputs were produced but have nowhere to go: say so
            # instead of silently dropping them.
            emitted = sum(
                len(files)
                for entry in outcome.results
                if entry.ok
                for files in entry.result.outputs.values()
            )
            print(
                f"emitted {emitted} backend output file(s) in memory; "
                f"pass --out-dir to write them"
            )

    if not args.watch:
        return 0 if outcome.ok else 1

    from repro.errors import TydiError

    # Watch every input path -- including files that were unreadable at
    # startup: they get an empty placeholder design now, and the loop adds
    # their content via update_file the moment they become readable.
    for name, path in design_paths.items():
        if name not in workspace:
            if args.from_ir:
                workspace.add_ir_design(
                    name,
                    "",
                    _design_options(args, name, targets, backend_opts),
                    filename=str(path),
                )
            else:
                workspace.add_design(
                    name, (), _design_options(args, name, targets, backend_opts)
                )
    watched = {
        name: {str(path): path} for name, path in design_paths.items()
    }

    def refresh(name: str, changed: list[str]) -> None:
        try:
            result = workspace.result(name)
        except TydiError as exc:
            print(f"[watch] {name}: error ({exc.stage}): {exc.render()}", file=sys.stderr)
            return
        print(f"[watch] recompiled {name} ({', '.join(changed)})")
        if args.ir_out:
            out_dir = _make_dir(pathlib.Path(args.ir_out))
            _write_file(out_dir / f"{name}.tir", result.ir_text())
        if args.vhdl_dir:
            from repro.vhdl import generate_vhdl

            design_dir = _make_dir(pathlib.Path(args.vhdl_dir) / name)
            for filename, text in generate_vhdl(result.project).items():
                _write_file(design_dir / filename, text)
        if targets and args.out_dir:
            _write_outputs(pathlib.Path(args.out_dir) / name, result.outputs)

    watched_files = sum(len(files) for files in watched.values())
    print(
        f"[watch] watching {watched_files} file(s) across {len(watched)} design(s) "
        f"every {args.watch_interval}s (Ctrl-C to stop)"
    )
    run_watch_loop(workspace, watched, refresh, interval=args.watch_interval)
    return 0


def _list_backends(as_json: bool = False) -> int:
    from repro.backends import available_backends, backend_class, option_schema

    entries = [
        {
            "name": name,
            "description": backend_class(name).description,
            "options": option_schema(backend_class(name)),
        }
        for name in available_backends()
    ]
    if as_json:
        print(json.dumps({"backends": entries}, indent=2))
        return 0
    for entry in entries:
        print(f"{entry['name']:8s} {entry['description']}")
        for option in entry["options"]:
            print(
                f"         --backend-opt {entry['name']}.{option['name']}=... "
                f"({option['type']}, default {option['default']!r})"
            )
    return 0


def _resolve_targets(args: argparse.Namespace) -> tuple[str, ...]:
    """Validate the --target names against the registry (ordered, deduped)."""
    from repro.backends import backend_class
    from repro.errors import TydiBackendError
    from repro.lang.compile import normalize_targets

    targets = normalize_targets(args.targets)
    for name in targets:
        try:
            backend_class(name)
        except TydiBackendError as exc:
            raise _CliInputError(str(exc)) from exc
    if args.out_dir and not targets:
        raise _CliInputError("--out-dir requires at least one --target")
    return targets


def _resolve_backend_options(args: argparse.Namespace) -> tuple[tuple[str, object], ...]:
    """Parse and validate every --backend-opt into backend options instances.

    Unknown backends, unknown option keys (with a did-you-mean suggestion)
    and un-coercible values all fail here with a clean one-line error, not
    deep inside the emit stage.
    """
    if not args.backend_opts:
        return ()
    from repro.backends import parse_backend_opt_specs
    from repro.errors import TydiError
    from repro.lang.compile import normalize_backend_options

    try:
        return normalize_backend_options(parse_backend_opt_specs(args.backend_opts))
    except TydiError as exc:
        raise _CliInputError(str(exc)) from exc


#: The watch loop's clock (``time.sleep``); module-level so tests can drive
#: the loop with a fake clock that edits files between rounds.
_watch_sleep = time.sleep


def _stat_signature(path: pathlib.Path):
    """A cheap change signature of one file (``None``: currently unreadable)."""
    try:
        stat = path.stat()
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size)


def run_watch_loop(
    workspace,
    watched: dict[str, dict[str, pathlib.Path]],
    refresh,
    *,
    interval: float,
    sleep=None,
    max_rounds: int | None = None,
    err_stream=None,
) -> int:
    """The ``--watch`` polling loop: stat, diff, ``update_file``, re-query.

    ``watched`` maps each design to its ``{diagnostic filename: path}``
    files.  Every round sleeps ``interval`` seconds, then re-stats every
    watched path; files whose mtime/size signature moved are re-read and
    fed through :meth:`~repro.workspace.Workspace.update_file` -- which is
    fingerprint-keyed, so a save that didn't change the bytes invalidates
    nothing.  ``refresh(design, changed_files)`` runs for each design that
    became genuinely stale (the re-query + output rewriting of the calling
    mode).  ``sleep`` is injectable (tests drive the loop with a fake clock
    that edits files and finally raises ``KeyboardInterrupt``);
    ``max_rounds`` bounds the loop (``None``: until interrupted).  Returns
    the number of completed rounds.
    """
    sleep = _watch_sleep if sleep is None else sleep
    err_stream = err_stream if err_stream is not None else sys.stderr
    signatures = {
        design: {filename: _stat_signature(path) for filename, path in files.items()}
        for design, files in watched.items()
    }
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        try:
            sleep(interval)
        except KeyboardInterrupt:
            break
        rounds += 1
        for design, files in watched.items():
            changed: list[str] = []
            for filename, path in files.items():
                signature = _stat_signature(path)
                if signature is None or signature == signatures[design][filename]:
                    continue
                try:
                    text = path.read_text()
                except OSError as exc:
                    # Keep the old signature: the next round retries this
                    # edit instead of silently losing it to a read flake.
                    print(
                        f"[watch] cannot re-read {path}: {exc.strerror or exc}",
                        file=err_stream,
                    )
                    continue
                signatures[design][filename] = signature
                workspace.update_file(design, filename, text)
                changed.append(filename)
            if changed and not workspace.is_fresh(design):
                refresh(design, changed)
    return rounds


def _write_outputs(base_dir: pathlib.Path, outputs: dict[str, dict[str, str]]) -> int:
    """Write every target's files under ``base_dir/<target>/``."""
    written = 0
    for target, files in outputs.items():
        target_dir = _make_dir(base_dir / target)
        for filename, text in files.items():
            path = target_dir / filename
            _make_dir(path.parent)
            _write_file(path, text)
            written += 1
    return written


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)

    try:
        if args.list_backends:
            return _list_backends(args.json_output)
        if not args.sources:
            build_arg_parser().error("at least one source file is required")
        if args.watch and args.json_output:
            raise _CliInputError("--watch cannot be combined with --json")
        if args.from_ir and not args.batch and len(args.sources) != 1:
            raise _CliInputError(
                "--from-ir takes exactly one interchange document "
                "(use --batch for several)"
            )
        if args.sim_plan and not args.simulate:
            raise _CliInputError("--sim-plan requires --simulate")
        if args.simulate and args.batch:
            raise _CliInputError("--simulate is not supported with --batch")
        if args.profile_stages:
            from repro.profiling import enable_profiling

            enable_profiling()
        cache = _build_cache(args)
        try:
            return _run_batch(args, cache) if args.batch else _run_single(args, cache)
        finally:
            _finish_uploads(cache)
            if args.profile_stages:
                from repro.profiling import format_profile

                print(format_profile(), file=sys.stderr)
    except _CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_single(args: argparse.Namespace, cache) -> int:
    from repro.errors import TydiError
    from repro.workspace import Workspace

    sources = _load_sources(args.sources)
    targets = _resolve_targets(args)
    backend_opts = _resolve_backend_options(args)

    workspace = Workspace(cache=cache)

    # When target outputs stream to stdout (no --out-dir), the stage log
    # moves to stderr so e.g. `tydi-compile --target dot x.td | dot -Tsvg`
    # pipes clean DOT.
    emit_to_stdout = bool(targets) and not args.out_dir and not args.json_output
    log_stream = sys.stderr if emit_to_stdout else sys.stdout

    try:
        if args.from_ir:
            text, filename = sources[0]
            workspace.add_ir_design(
                "design",
                text,
                _design_options(args, "design", targets, backend_opts),
                filename=filename,
            )
        else:
            workspace.add_design(
                "design", sources, _design_options(args, "design", targets, backend_opts)
            )
    except TydiError as exc:
        print(f"error ({exc.stage}): {exc.render()}", file=sys.stderr)
        return 1

    status = _query_and_emit_single(args, workspace, targets, log_stream)
    if not args.watch:
        return status

    watched = {"design": {filename: pathlib.Path(filename) for _, filename in sources}}

    def refresh(design: str, changed: list[str]) -> None:
        print(f"[watch] {', '.join(changed)} changed; recompiling", file=log_stream)
        _query_and_emit_single(args, workspace, targets, log_stream)

    print(
        f"[watch] watching {len(sources)} file(s) every {args.watch_interval}s "
        f"(Ctrl-C to stop)",
        file=log_stream,
    )
    run_watch_loop(workspace, watched, refresh, interval=args.watch_interval)
    return 0


def _query_and_emit_single(args, workspace, targets, log_stream) -> int:
    """Query the single-mode design and write every requested output.

    The shared tail of the one-shot run and each ``--watch`` refresh; a
    failing compile reports the stage error and returns 1 without raising,
    so a watch session survives broken intermediate states.
    """
    from repro.errors import TydiError

    cache = workspace.cache
    try:
        result = workspace.result("design")
    except TydiError as exc:
        print(f"error ({exc.stage}): {exc.render()}", file=sys.stderr)
        return 1

    sim_report = None
    if getattr(args, "simulate", False):
        try:
            sim_report = workspace.simulate("design", _load_sim_plan(args))
        except TydiError as exc:
            print(f"error ({exc.stage}): {exc.render()}", file=sys.stderr)
            return 1

    if args.json_output:
        _finish_uploads(cache)
        payload = {
            "stages": [{"name": s.name, "detail": s.detail} for s in result.stages],
            "statistics": result.project.statistics(),
            "outputs": {target: sorted(files) for target, files in result.outputs.items()},
            "cache": cache.stats_snapshot() if cache is not None else None,
            "stage_cache": cache.stage_stats_snapshot() if cache is not None else None,
        }
        if sim_report is not None:
            payload["simulation"] = sim_report.as_dict()
        print(json.dumps(payload, indent=2))
    else:
        for stage in result.stages:
            print(f"[{stage.name}] {stage.detail}", file=log_stream)
        if sim_report is not None:
            print(f"[simulate] {sim_report.summary()}", file=log_stream)

    if args.stats and not args.json_output:
        for key, value in result.project.statistics().items():
            print(f"  {key}: {value}", file=log_stream)

    if targets:
        if args.out_dir:
            written = _write_outputs(pathlib.Path(args.out_dir), result.outputs)
            if not args.json_output:
                print(f"wrote {written} file(s) to {args.out_dir} (one directory per target)")
        elif not args.json_output:
            for target in targets:
                for _, text in sorted(result.outputs[target].items()):
                    sys.stdout.write(text)

    if args.ir_out:
        _write_file(pathlib.Path(args.ir_out), result.ir_text())
        if not args.json_output:
            print(f"wrote Tydi-IR to {args.ir_out}", file=log_stream)

    if args.vhdl_dir:
        from repro.vhdl import generate_vhdl

        out_dir = _make_dir(pathlib.Path(args.vhdl_dir))
        files = generate_vhdl(result.project)
        for name, text in files.items():
            _write_file(out_dir / name, text)
        if not args.json_output:
            print(f"wrote {len(files)} VHDL file(s) to {out_dir}", file=log_stream)

    if sim_report is not None and sim_report.deadlocked:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
