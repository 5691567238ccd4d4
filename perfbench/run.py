"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload fleet-cold --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program under test is the checkout's
``src/`` tree.  ``--trace 0`` measures the workload end to end with no
tracing; ``--trace 1`` runs the traced layer profile instead.  The named
figures are printed one per line, and the last line of standard output is
the JSON summary ``{"correct", "attempted", "failed", "metrics"}``.
Without a ``src/repro`` next to this directory the run exits with code 2
and prints no summary.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from common import BenchError, Context, Result
from layers import profile
from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ctx = Context(Path(__file__).resolve().parent.parent, args.seed, args.seconds)
    result = Result()
    try:
        ctx.open()
        if args.trace:
            profile(ctx, result)
        else:
            WORKLOADS[args.workload](ctx, result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        ctx.close()

    mode = "traced layer profile" if args.trace else "end to end"
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} ({mode})")
    for line in result.lines():
        print(line)
    print(result.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
