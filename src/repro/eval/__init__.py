"""Evaluation framework: the harness behind every figure and table.

:mod:`repro.eval.harness` runs algorithms under shared initializations and
collects the paper's measurement set (time, pruning power, data/bound
accesses, footprint); :mod:`repro.eval.leaderboard` aggregates ranks
(Figure 12); :mod:`repro.eval.tables` renders the report tables;
:mod:`repro.eval.sweeps` drives parameter sweeps (Figures 14/17/18);
:mod:`repro.eval.runtime` supplies the fault-tolerant execution layer
(timeouts, crash containment, graceful degradation, checkpoint/resume
keys) — see ``docs/robustness.md``.
"""

from repro.eval.harness import RunRecord, compare_algorithms, run_algorithm, speedup_table
from repro.eval.leaderboard import Leaderboard
from repro.eval.logdb import EvaluationLog
from repro.eval.parallel import parallel_compare
from repro.eval.runtime import (
    FailedRun,
    RunKey,
    is_failed_record,
    supervised_map,
)
from repro.eval.summary import rate_algorithms, render_circles
from repro.eval.sweeps import sweep_parameter
from repro.eval.tables import format_table

__all__ = [
    "RunRecord",
    "run_algorithm",
    "compare_algorithms",
    "speedup_table",
    "Leaderboard",
    "EvaluationLog",
    "parallel_compare",
    "rate_algorithms",
    "render_circles",
    "sweep_parameter",
    "format_table",
    "FailedRun",
    "RunKey",
    "is_failed_record",
    "supervised_map",
]
