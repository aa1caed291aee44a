"""Compare two ``BENCH_backends.json`` reports and fail on regressions.

CI's ``backend-bench`` job downloads the previous successful run's
benchmark artifact and runs::

    python benchmarks/bench_diff.py previous/BENCH_backends.json BENCH_backends.json

The diff prints one readable row per algorithm entry (previous speedup,
current speedup, delta) and exits non-zero if any *gated* entry's speedup
regressed by more than the tolerance (default 20%).  Ungated entries —
e.g. the sharded cells measured on a single core — are reported but never
fail the diff, and entries present on only one side are reported as
added/removed.  Absolute wall-clock is deliberately not compared: runner
hardware varies between runs, but each report's speedups are ratios
measured on one machine, so their drift is meaningful.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: fraction of the previous speedup a gated entry may lose before failing
DEFAULT_TOLERANCE = 0.20


def diff_reports(
    previous: Dict, current: Dict, tolerance: float = DEFAULT_TOLERANCE
) -> Tuple[str, List[str]]:
    """Render the comparison table and collect regression messages."""
    prev_algos = previous.get("algorithms", {})
    curr_algos = current.get("algorithms", {})
    names = sorted(set(prev_algos) | set(curr_algos))
    width = max([len(n) for n in names] + [len("algorithm")])
    header = (
        f"{'algorithm':<{width}}  {'previous':>9}  {'current':>9}  "
        f"{'delta':>8}  status"
    )
    lines = [header, "-" * len(header)]
    regressions: List[str] = []
    for name in names:
        prev = prev_algos.get(name)
        curr = curr_algos.get(name)
        if prev is None:
            lines.append(
                f"{name:<{width}}  {'-':>9}  {curr['speedup']:>8.2f}x  "
                f"{'-':>8}  added"
            )
            continue
        if curr is None:
            lines.append(
                f"{name:<{width}}  {prev['speedup']:>8.2f}x  {'-':>9}  "
                f"{'-':>8}  removed"
            )
            continue
        before, after = prev["speedup"], curr["speedup"]
        delta = (after - before) / before if before else 0.0
        # Entries without an explicit flag (the per-algorithm vectorized
        # cells) are gated by the job-wide floor; sharded/serving entries
        # carry their own flag, false when measured on a single core.
        gated = bool(curr.get("gated", True))
        if gated and delta < -tolerance:
            status = f"REGRESSED (>{tolerance:.0%} loss)"
            regressions.append(
                f"{name}: speedup fell {before:.2f}x -> {after:.2f}x "
                f"({delta:+.1%}, tolerance -{tolerance:.0%})"
            )
        elif not gated:
            status = "ok (ungated)"
        else:
            status = "ok"
        lines.append(
            f"{name:<{width}}  {before:>8.2f}x  {after:>8.2f}x  "
            f"{delta:>+7.1%}  {status}"
        )
    return "\n".join(lines), regressions


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("previous", type=Path,
                        help="BENCH_backends.json from the previous run")
    parser.add_argument("current", type=Path,
                        help="BENCH_backends.json from this run")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional speedup loss for gated "
                             "entries (default %(default)s)")
    args = parser.parse_args(argv)
    previous = json.loads(args.previous.read_text())
    current = json.loads(args.current.read_text())
    table, regressions = diff_reports(previous, current, args.tolerance)
    print(table)
    if regressions:
        print("\nbenchmark regressions:", file=sys.stderr)
        for message in regressions:
            print(f"  {message}", file=sys.stderr)
        return 1
    print("\nno gated regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
