"""Perf benchmark runner: every workload in a fresh process, every metric by name.

Usage, from the repository root::

    python benchmarks/perf/run.py --seed 5 --out results.json      # all workloads
    python benchmarks/perf/run.py --workloads fit-dense,serve-open  # a subset
    python benchmarks/perf/run.py --workload fit-pruned --seed 5 --seconds 15 --trace 1
    python benchmarks/perf/run.py --seed 5 --trace trace.jsonl      # traced, spans to a file

Untraced runs report the end-to-end metrics of ``BENCHMARK.json``; traced
runs (``--trace 1`` or ``--trace FILE``) report its per-layer metrics.  Each
metric prints as ``workload metric value unit``, followed by its quartiles
and sample count; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (keys prefixed ``workload/`` when
several workloads ran).  The exit code is 0 when every correctness check
passed, 1 when one failed, and 2 when the program could not be run at all,
in which case no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

from measure import summarize
from workloads import OPTIONAL_LAYERS, WORKLOADS, modules_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
IMPORT_PROBES = 8
WORKER_TIMEOUT = 170.0
IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "import numpy\n"
    "start = time.perf_counter()\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - start)\n"
)
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(RuntimeError):
    """The program under test could not be run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in BLAS_VARIABLES:
        env[name] = str(nproc())
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: Sequence[str], timeout: float) -> str:
    """Run a child Python process to completion; return its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{argv[0]} did not finish within {timeout:.0f}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"{' '.join(argv[:3])} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    """Hardware and software the numbers were measured on."""
    import numpy

    def command(*argv: str) -> Any:
        try:
            out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    l3 = command("getconf", "LEVEL3_CACHE_SIZE")
    env = child_env()
    return {
        "nproc": nproc(),
        "blas_threads": {name: env[name] for name in BLAS_VARIABLES},
        "numpy": numpy.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "l3_bytes": int(l3) if l3 and l3.isdigit() else None,
        "git_revision": command("git", "rev-parse", "HEAD") if (ROOT / ".git").exists() else None,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "traced": args.trace != "0",
    }


def run_workload(name: str, args: argparse.Namespace, bench: Dict[str, Any]) -> Dict[str, Any]:
    """Import probes around one worker process; returns the workload's record.

    Half the import probes run before the worker and half after, so that
    their median spans the run rather than one moment of it.
    """
    def probe_imports(count: int) -> List[float]:
        return [float(run_child(["-c", IMPORT_PROBE, *modules_for(name)], 60))
                for _ in range(count)]

    imports = probe_imports(IMPORT_PROBES // 2)
    traced = args.trace != "0"
    worker = json.loads(run_child(
        [str(HERE / "workloads.py"), "--workload", name, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--scale", str(args.scale),
         "--trace", "1" if traced else "0",
         *(["--trace-out", args.trace] if traced and args.trace != "1" else []),
         *(["--plant-wrong-label"] if args.plant_wrong_label else [])],
        WORKER_TIMEOUT,
    ))
    imports += probe_imports(IMPORT_PROBES - len(imports))
    prep = statistics.median(worker["samples"]["setup.prep_s"])
    samples = dict(worker["samples"], setup_s=[imp + prep for imp in imports])
    metrics: Dict[str, Dict[str, Any]] = {}
    if not traced:
        for metric in bench["end_to_end"]:
            metrics[metric["name"]] = {**summarize(samples[metric["name"]]), "unit": metric["unit"]}
    else:
        layer = dict(worker["layer"], **{"setup.import_s": statistics.median(imports),
                                         "setup.prep_s": prep})
        for metric in bench["per_layer"]:
            key = metric["name"]
            if key not in layer:
                if key.split(".", 1)[0] not in OPTIONAL_LAYERS:
                    raise RunError(f"workload {name} did not report {key}")
                layer[key] = 0
            metrics[key] = {"value": layer[key], "unit": metric["unit"]}
    failed = len(worker["failures"])
    return {
        "metrics": metrics,
        "attempted": worker["attempted"],
        "failed": failed,
        "failed_frac": failed / max(worker["attempted"], 1),
        "failures": worker["failures"][:20],
        "trace_self_s": worker["trace"]["layers"],
    }


def report(results: Dict[str, Dict[str, Any]]) -> List[str]:
    lines = []
    for name, record in results.items():
        for metric, entry in record["metrics"].items():
            line = f"{name} {metric} {entry['value']:.6g} {entry['unit']}"
            if "n" in entry:
                line += f"  q1={entry['q1']:.6g} q3={entry['q3']:.6g} n={entry['n']}"
            lines.append(line)
        lines.append(f"{name} failed_frac {record['failed_frac']:.6g} fraction"
                     f"  failed={record['failed']} attempted={record['attempted']}")
        for layer, seconds in sorted(record["trace_self_s"].items()):
            lines.append(f"{name} trace.self_s.{layer} {seconds:.6g} s")
        lines.extend(f"{name} FAILED {failure}" for failure in record["failures"])
    return lines


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", "--workload", default=",".join(WORKLOADS),
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", default="0",
                        help="0: untraced; 1: traced; any other value: traced, spans "
                             "written to that JSONL file")
    parser.add_argument("--out", default=None, help="write the full result file here")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input size (tiny values for self-tests)")
    parser.add_argument("--plant-wrong-label", action="store_true",
                        help="corrupt one output label, to test the checks")
    args = parser.parse_args(argv)
    args.workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown or not args.workloads:
        parser.error(f"unknown workloads {unknown}; known: {', '.join(WORKLOADS)}")
    return args


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise RunError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            bench = json.load(handle)
        if args.seconds is None:
            args.seconds = float(bench["run_seconds"])
        if args.trace not in ("0", "1"):
            args.trace = str(Path(args.trace).resolve())  # workers run from ROOT
            open(args.trace, "w").close()
        results = {name: run_workload(name, args, bench) for name in args.workloads}
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    for line in report(results):
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"env": environment(args), "workloads": results}, handle, indent=1)
    single = len(results) == 1
    metrics = {
        (metric if single else f"{name}/{metric}"): {"value": entry["value"], "unit": entry["unit"]}
        for name, record in results.items() for metric, entry in record["metrics"].items()
    }
    failed = sum(record["failed"] for record in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(record["attempted"] for record in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
