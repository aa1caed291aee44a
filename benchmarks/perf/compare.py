"""Compare perf result files of a parent commit and a change.

Usage, from the repository root::

    python benchmarks/perf/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...

Each file is one ``run.py --out`` result.  Give both sides in run order:
the i-th parent run and the i-th change run form pair i.  One row per
(workload, metric) shows both sides' medians and quartiles over the runs,
the change's share of pair wins, and a verdict:

* ``improved`` -- the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the distance
  between the parent's quartiles;
* ``worse`` -- the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json`` (per-layer metrics have no
  bound: the mirror image of ``improved``);
* ``unresolved`` -- the parent's own spread is wider than the bound, and
  not every change run beats every parent run;
* ``unchanged`` -- otherwise.

Each workload also gets a ``failed`` row: a change that fails more
operations than the parent is ``worse`` there.  The exit code is 1 when
any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: Sequence[float], change: Sequence[float], lower_is_better: bool,
            bound: Optional[float]) -> Tuple[str, float]:
    """The verdict for one (workload, metric) and the change's pair-win share."""
    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    losses = sum(better(p, c) for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    separated = abs(cm - pm) > p3 - p1
    if pairs and wins >= 0.9 * len(pairs) and better(cm, pm) and separated:
        return "improved", share
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and better(pm, cm) and separated:
            return "worse", share
        return "unchanged", share
    if pm == 0:
        worse_by = float("inf") if better(pm, cm) else 0.0
    else:
        worse_by = (cm - pm) / abs(pm) if lower_is_better else (pm - cm) / abs(pm)
    if worse_by > bound:
        return "worse", share
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    if spread > bound and not all(better(c, p) for c in change for p in parent):
        return "unresolved", share
    return "unchanged", share


def load(paths: Sequence[str]) -> List[Dict[str, Any]]:
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle)["workloads"])
    return results


def compare(parent: List[Dict[str, Any]], change: List[Dict[str, Any]],
            bench: Dict[str, Any]) -> List[Dict[str, Any]]:
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    rows = []
    for workload in parent[0]:
        if not all(workload in run for run in parent + change):
            continue
        for metric in parent[0][workload]["metrics"]:
            if metric not in spec or not all(metric in run[workload]["metrics"]
                                             for run in parent + change):
                continue
            p = [run[workload]["metrics"][metric]["value"] for run in parent]
            c = [run[workload]["metrics"][metric]["value"] for run in change]
            result, share = verdict(p, c, spec[metric]["better"] == "lower",
                                    spec[metric].get("bound"))
            rows.append({"workload": workload, "metric": metric, "unit": spec[metric]["unit"],
                         "parent": quartiles(p), "change": quartiles(c),
                         "win_share": share, "verdict": result})
        p_failed = sum(run[workload]["failed"] for run in parent)
        c_failed = sum(run[workload]["failed"] for run in change)
        rows.append({"workload": workload, "metric": "failed", "unit": "count",
                     "parent": (p_failed,) * 3, "change": (c_failed,) * 3, "win_share": 0.0,
                     "verdict": "worse" if c_failed > p_failed else "unchanged"})
    return rows


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="parent result files")
    parser.add_argument("--change", nargs="+", required=True, help="change result files")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    rows = compare(load(args.parent), load(args.change), bench)
    print(f"{'workload':12} {'metric':36} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>5}  verdict")
    for row in rows:
        def cell(q: Tuple[float, float, float]) -> str:
            return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

        print(f"{row['workload']:12} {row['metric'] + ' ' + row['unit']:36} "
              f"{cell(row['parent']):>34} {cell(row['change']):>34} "
              f"{row['win_share']:5.2f}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
