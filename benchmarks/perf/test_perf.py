"""Self-test of the perf benchmark at a tiny input scale.

Run from the repository root with ``python -m pytest benchmarks/perf``; it
is outside tier-1's ``testpaths``.  It runs the real runner end to end, so
it checks the benchmark's contract, not the program's speed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import verdict
from measure import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = ["--seed", "3", "--seconds", "0.5", "--scale", "0.02"]


def run(directory: Path, *extra: str):
    out = directory / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *TINY, "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc, last, json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return run(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    directory = tmp_path_factory.mktemp("traced")
    spans = directory / "trace.jsonl"
    return run(directory, "--trace", str(spans)), spans


def check_emitted(proc, last, result, metrics):
    assert proc.returncode == 0, proc.stderr
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    printed = {}
    for line in proc.stdout.splitlines()[:-1]:
        workload, metric, value, unit = line.split()[:4]
        printed[workload, metric] = (float(value), unit)
    for workload in WORKLOADS:
        record = result["workloads"][workload]
        assert record["failed_frac"] == 0, record["failures"]
        assert set(record["metrics"]) == {m["name"] for m in metrics}
        for metric in metrics:
            entry = record["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert last["metrics"][f"{workload}/{metric['name']}"]["unit"] == metric["unit"]
            assert printed[workload, metric["name"]][1] == metric["unit"]


def test_every_end_to_end_metric_emitted_with_unit(untraced):
    proc, last, result = untraced
    check_emitted(proc, last, result, BENCH["end_to_end"])
    for record in result["workloads"].values():
        assert all(entry["value"] > 0 for entry in record["metrics"].values())


def test_every_per_layer_metric_emitted_with_unit(traced):
    (proc, last, result), _ = traced
    check_emitted(proc, last, result, BENCH["per_layer"])


def test_result_file_has_environment_block(untraced):
    env = untraced[2]["env"]
    for key in ("nproc", "blas_threads", "numpy", "blas", "python", "l3_bytes",
                "git_revision", "seed"):
        assert key in env
    assert env["seed"] == 3
    counts = [entry["n"] for record in untraced[2]["workloads"].values()
              for entry in record["metrics"].values()]
    assert counts and all(n >= 1 for n in counts)


def test_names_are_well_formed():
    names = WORKLOADS + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" for m in BENCH["end_to_end"])


def test_planted_wrong_label_fails(tmp_path):
    proc, last, result = run(tmp_path, "--workloads", "fit-dense,serve-open",
                             "--plant-wrong-label")
    assert proc.returncode == 1
    assert not last["correct"] and last["failed"] > 0
    for record in result["workloads"].values():
        assert record["failed_frac"] > 0


def test_spans_nest_and_self_times_are_nonnegative(traced):
    _, path = traced
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert {span["workload"] for span in spans} == set(WORKLOADS)
    layers = {m["name"].split(".", 1)[0] for m in BENCH["per_layer"]} | {"bench", "serve"}
    for workload in WORKLOADS:
        own = {span["id"]: span for span in spans if span["workload"] == workload}
        for span in own.values():
            assert span["name"].split(".", 1)[0] in layers
            assert span["start"] <= span["end"]
            if span["parent"] is not None:
                parent = own[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        assert all(value >= 0 for value in self_times(list(own.values())).values())


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    assert verdict(parent, [v * 0.8 for v in parent], True, 0.1)[0] == "improved"
    assert verdict(parent, [v * 1.3 for v in parent], True, 0.1)[0] == "worse"
    assert verdict(parent, list(parent), True, 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, [v * 1.05 for v in noisy], True, 0.1)[0] == "unresolved"
    assert verdict(parent, [v * 1.3 for v in parent], False, None)[0] == "improved"


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", WORKLOADS[0]],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
