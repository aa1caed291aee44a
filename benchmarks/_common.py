"""Shared plumbing for the figure/table reproduction benchmarks.

Every benchmark prints the rows/series its paper counterpart reports and
appends the same text to ``benchmarks/out/<name>.txt`` so EXPERIMENTS.md can
quote results verbatim.  Scales are reduced relative to the paper (see
DESIGN.md section 4): pure Python is orders of magnitude slower than the
authors' Java, so ``n`` runs in the thousands and ``k`` tops out around 50;
the comparisons that matter (who wins, by what factor, where crossovers
fall) are preserved and cross-checked against hardware-independent counters.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Sequence

OUT_DIR = Path(__file__).parent / "out"

#: scaled-down stand-ins for the paper's k = {10, 100, 1000} sweeps
SMALL_K = 5
MID_K = 15
LARGE_K = 40

#: datasets exercised by the cross-dataset tables (kept small for speed)
BENCH_DATASETS = [
    ("BigCross", 1500),
    ("NYC-Taxi", 2000),
    ("KeggDirect", 1000),
    ("Covtype", 1200),
    ("Mnist", 300),
]


def report(name: str, text: str) -> None:
    """Print a benchmark report and persist it under ``benchmarks/out``."""
    banner = f"\n=== {name} ===\n{text}\n"
    print(banner)
    sys.stdout.flush()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(banner)


def fmt_ratio(value: float) -> str:
    return f"{value:.2f}x"


def fmt_pct(value: float) -> str:
    return f"{value:.0%}"


#: wall-clock guard per benchmark cell — the scaled-down cells finish in
#: seconds, so a cell still running after this is hung, not slow
CELL_TIMEOUT = 300.0


def guarded_compare(specs, X, k, **kwargs):
    """``compare_algorithms`` under the fault-tolerant runtime.

    Long campaign benchmarks route cells through here so one pathological
    (method, dataset, k) combination degrades into a recorded failure
    instead of hanging or killing the whole matrix; healthy cells are
    bit-identical to the serial harness (see docs/robustness.md).  Returns
    only the successful records; failures are reported to stderr by the
    runtime's warning path.
    """
    from repro.eval.parallel import parallel_compare
    from repro.eval.runtime import is_failed_record

    kwargs.setdefault("timeout", CELL_TIMEOUT)
    records = parallel_compare(specs, X, k, **kwargs)
    return [record for record in records if not is_failed_record(record)]
