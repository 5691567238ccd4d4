#!/usr/bin/env python
"""Gate benchmark artifacts against committed baselines.

CI runs the benchmark suite (which writes ``benchmark-artifacts/*.json``),
then runs this script to compare the headline metric of each artifact
against the committed floor in ``benchmarks/baselines/``.  A metric that
regresses by more than ``--tolerance`` (default 30%) fails the job, so a
change that quietly destroys the warm/cold ratio or the pool speedup
cannot merge green.

Rules:

* every baseline file must have a current artifact -- a benchmark that
  silently stopped producing its artifact is itself a regression (fail);
* a current artifact without a baseline is reported as a warning (new
  benchmarks land first, their baseline is committed once CI numbers
  exist);
* all gated metrics are higher-is-better ratios (speedups), so the check
  is ``current >= baseline * (1 - tolerance)``.

Usage::

    python benchmarks/compare_artifacts.py \\
        [--artifacts benchmark-artifacts] [--baselines benchmarks/baselines] \\
        [--tolerance 0.30]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: artifact filename -> the higher-is-better metric keys gated in it.
GATED_METRICS: dict[str, tuple[str, ...]] = {
    "server-throughput.json": ("speedup",),
    "workspace-editloop.json": ("speedup",),
    "pool-throughput.json": ("speedup",),
    "remote-cache.json": ("speedup",),
    "cold-compile.json": ("speedup",),
    "sim-service.json": ("speedup",),
}


def load_json(path: pathlib.Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"FAIL  {path}: unreadable ({exc})")
        return None


def compare(artifacts_dir: pathlib.Path, baselines_dir: pathlib.Path, tolerance: float) -> int:
    failures = 0
    warnings = 0
    checked = 0

    baseline_files = sorted(baselines_dir.glob("*.json")) if baselines_dir.is_dir() else []
    if not baseline_files:
        print(f"FAIL  no baselines found under {baselines_dir}")
        return 1

    for baseline_path in baseline_files:
        name = baseline_path.name
        metrics = GATED_METRICS.get(name)
        if metrics is None:
            print(f"warn  {name}: baseline present but no gated metrics registered")
            warnings += 1
            continue
        baseline = load_json(baseline_path)
        current_path = artifacts_dir / name
        if not current_path.exists():
            print(
                f"FAIL  {name}: no current artifact in {artifacts_dir} "
                f"(did its benchmark stop running?)"
            )
            failures += 1
            continue
        current = load_json(current_path)
        if baseline is None or current is None:
            failures += 1
            continue
        # A parallelism benchmark recorded on a machine with fewer CPUs
        # than workers cannot meet a multi-core floor; report and skip
        # (CI runners always have enough, so CI stays strict).
        cpu_count = current.get("cpu_count")
        workers = current.get("workers")
        if (
            isinstance(cpu_count, int)
            and isinstance(workers, int)
            and cpu_count < workers
        ):
            print(
                f"warn  {name}: recorded on {cpu_count} CPU(s) for "
                f"{workers} workers; parallel floor not applicable, skipping"
            )
            warnings += 1
            continue
        for key in metrics:
            base_value = baseline.get(key)
            cur_value = current.get(key)
            if not isinstance(base_value, (int, float)):
                print(f"FAIL  {name}:{key}: baseline value missing or non-numeric")
                failures += 1
                continue
            if not isinstance(cur_value, (int, float)):
                print(f"FAIL  {name}:{key}: current value missing or non-numeric")
                failures += 1
                continue
            floor = base_value * (1.0 - tolerance)
            checked += 1
            if cur_value < floor:
                print(
                    f"FAIL  {name}:{key}: {cur_value:g} regressed below "
                    f"{floor:g} (baseline {base_value:g}, tolerance {tolerance:.0%})"
                )
                failures += 1
            else:
                print(
                    f"ok    {name}:{key}: {cur_value:g} "
                    f"(floor {floor:g}, baseline {base_value:g})"
                )

    for current_path in sorted(artifacts_dir.glob("*.json")) if artifacts_dir.is_dir() else []:
        if not (baselines_dir / current_path.name).exists():
            print(f"warn  {current_path.name}: artifact has no committed baseline yet")
            warnings += 1

    print(
        f"\n{checked} metric(s) checked, {failures} failure(s), {warnings} warning(s)"
    )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts", default="benchmark-artifacts", type=pathlib.Path,
        help="directory the benchmark run wrote (default: benchmark-artifacts)",
    )
    parser.add_argument(
        "--baselines", default="benchmarks/baselines", type=pathlib.Path,
        help="directory of committed baseline artifacts (default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--tolerance", default=0.30, type=float,
        help="allowed relative regression before failing (default: 0.30)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error("--tolerance must be in [0, 1)")
    return compare(args.artifacts, args.baselines, args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
