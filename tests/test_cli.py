"""Tests for the command-line interface."""

import json
from multiprocessing import get_all_start_methods

import numpy as np
import pytest

import repro.eval.parallel as parallel
from repro.cli import build_parser, main
from repro.core import ALGORITHMS
from repro.datasets.loaders import read_jsonl, save_points_csv

needs_fork = pytest.mark.skipif(
    "fork" not in get_all_start_methods(),
    reason="failures are planted by patching run_algorithm in the parent, "
           "which only forked bench workers inherit",
)


class PlantedFault(RuntimeError):
    """The exception a planted bench cell raises."""


def _plant_failure(monkeypatch, algorithm):
    """Make every bench cell of ``algorithm`` raise :class:`PlantedFault`."""
    real = parallel.run_algorithm

    def run_algorithm(spec, *args, **kwargs):
        if spec == algorithm:
            raise PlantedFault(f"planted failure for {spec}")
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_algorithm", run_algorithm)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.algorithm == "unik"
        assert args.k == 10

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--algorithm", "nope"])


class TestDatasetsCommand:
    def test_lists_registry(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "BigCross" in out and "NYC-Taxi" in out


class TestClusterCommand:
    def test_table_output(self, capsys):
        code = main(["cluster", "--dataset", "Skin", "--n", "300",
                     "--k", "4", "--max-iter", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sse" in out and "pruning_ratio" in out

    def test_json_output(self, capsys):
        code = main(["cluster", "--dataset", "Skin", "--n", "200", "--k", "3",
                     "--max-iter", "2", "--json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["algorithm"] == "unik"
        assert record["k"] == 3

    def test_log_written(self, tmp_path, capsys):
        log = tmp_path / "runs.jsonl"
        main(["cluster", "--dataset", "Skin", "--n", "200", "--k", "3",
              "--max-iter", "2", "--log", str(log)])
        capsys.readouterr()
        assert len(read_jsonl(log)) == 1

    @pytest.mark.parametrize(
        "shard_args",
        (["--shards", "0"], ["--shards", "-2"]),
        ids=("zero", "negative"),
    )
    def test_rejects_nonpositive_shards(self, shard_args, capsys):
        code = main(["cluster", "--algorithm", "lloyd", "--backend", "vectorized",
                     "--dataset", "Skin", "--n", "200", "--k", "3",
                     "--max-iter", "2", *shard_args])
        assert code == 2
        assert "shards must be >= 1" in capsys.readouterr().err

    def test_csv_input(self, tmp_path, capsys):
        X = np.random.default_rng(0).normal(size=(120, 3))
        path = tmp_path / "points.csv"
        save_points_csv(path, X)
        code = main(["cluster", "--dataset", str(path), "--csv",
                     "--k", "3", "--max-iter", "2"])
        assert code == 0
        assert "sse" in capsys.readouterr().out


class TestCompareCommand:
    def test_inserts_lloyd_baseline(self, capsys):
        code = main(["compare", "--dataset", "Skin", "--n", "250", "--k", "4",
                     "--algorithms", "hamerly", "--max-iter", "3",
                     "--repeats", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lloyd" in out and "hamerly" in out

    def test_unknown_algorithm_fails(self, capsys):
        code = main(["compare", "--dataset", "Skin", "--n", "200", "--k", "3",
                     "--algorithms", "quantum-means"])
        assert code == 2
        assert "unknown algorithm 'quantum-means'" in capsys.readouterr().err

    def test_vectorized_backend_keeps_reference_lloyd_baseline(self, capsys):
        code = main(["compare", "--dataset", "Skin", "--n", "250", "--k", "4",
                     "--algorithms", "yinyang", "--max-iter", "3",
                     "--repeats", "1", "--backend", "vectorized"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lloyd" in out and "yinyang" in out

    def test_vectorized_backend_rejects_unsupported_algorithm(self, capsys):
        for name in ("drake", "index", "elkan", "hamerly"):
            code = main(["compare", "--dataset", "Skin", "--n", "200", "--k", "3",
                         "--algorithms", f"{name},yinyang", "--backend", "vectorized"])
            assert code == 2
            err = capsys.readouterr().err
            assert f"algorithm {name!r} has no vectorized implementation" in err

    @pytest.mark.parametrize(
        "backend_args, ran",
        (
            (["--backend", "vectorized"], {"lloyd", "yinyang"}),
            (["--backend", "vectorized", "--shards", "2"], {"lloyd"}),
        ),
        ids=("vectorized", "sharded"),
    )
    def test_default_algorithms_follow_backend(self, backend_args, ran, capsys):
        code = main(["compare", "--dataset", "Skin", "--n", "200", "--k", "3",
                     "--max-iter", "2", "--repeats", "1", *backend_args])
        assert code == 0
        rows = {line.split()[0] for line in capsys.readouterr().out.splitlines()
                if line.split() and line.split()[0] in ALGORITHMS}
        assert rows == ran

    def test_vectorized_backend_runs_lloyd_baseline(self, capsys):
        # Lloyd is vectorized now: the implicit baseline runs on the
        # selected backend, and the header names that backend.
        code = main(["compare", "--dataset", "Skin", "--n", "200", "--k", "3",
                     "--algorithms", "yinyang", "--backend", "vectorized",
                     "--max-iter", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend=vectorized" in out and "lloyd" in out


class TestTuneCommand:
    def test_end_to_end(self, tmp_path, capsys):
        log = tmp_path / "gt.jsonl"
        code = main([
            "tune", "--datasets", "Skin,Covtype", "--ks", "4", "--n", "250",
            "--max-iter", "3", "--log", str(log),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Bound@MRR" in out and "BDT" in out
        assert len(read_jsonl(log)) == 2

    def test_ranker_backend_and_cost_metric(self, capsys):
        code = main([
            "tune", "--datasets", "Skin,NYC-Taxi", "--ks", "4,8",
            "--n", "250", "--max-iter", "3",
            "--model", "ranker", "--metric", "modeled_cost",
        ])
        assert code == 0
        assert "ranker" in capsys.readouterr().out

    def test_full_running_mode(self, capsys):
        code = main([
            "tune", "--datasets", "Skin", "--ks", "4", "--n", "200",
            "--max-iter", "3", "--full",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "selective=False" in out


class TestBenchCommand:
    BASE = ["bench", "--datasets", "Skin", "--n", "200", "--ks", "4",
            "--repeats", "1", "--max-iter", "2", "--timeout", "60"]

    def test_healthy_run_exits_zero(self, capsys):
        code = main(self.BASE + ["--algorithms", "lloyd,hamerly"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 ok" in out and "0 failed" in out

    @pytest.mark.parametrize(
        "backend_args, ran",
        (
            (["--backend", "vectorized"], 2),
            (["--backend", "vectorized", "--shards", "2"], 1),
        ),
        ids=("vectorized", "sharded"),
    )
    def test_default_algorithms_follow_backend(self, backend_args, ran, capsys):
        code = main(self.BASE + backend_args)
        assert code == 0
        assert f"{ran} ok" in capsys.readouterr().out

    def test_unknown_algorithm_exits_two(self, capsys):
        code = main(self.BASE + ["--algorithms", "lloyd,nope"])
        assert code == 2
        assert "unknown algorithm 'nope'" in capsys.readouterr().err

    def test_resume_without_log_exits_two(self, capsys):
        code = main(self.BASE + ["--resume"])
        assert code == 2
        assert "--resume requires --log" in capsys.readouterr().err

    @needs_fork
    def test_chaos_records_failures_but_exits_zero(self, tmp_path, capsys,
                                                   monkeypatch):
        _plant_failure(monkeypatch, "lloyd")
        log = tmp_path / "chaos.jsonl"
        with pytest.warns(RuntimeWarning):
            code = main(self.BASE + [
                "--algorithms", "lloyd,hamerly", "--log", str(log),
            ])
        assert code == 0
        captured = capsys.readouterr()
        assert "1 ok" in captured.out and "1 failed" in captured.out
        assert "FAILED" in captured.out and "PlantedFault" in captured.out
        assert "--resume" in captured.err  # hint to re-run failed cells
        records = read_jsonl(log)
        statuses = {r["algorithm"]: r.get("status", "ok") for r in records}
        assert statuses == {"hamerly": "ok", "lloyd": "failed"}

    @needs_fork
    def test_strict_turns_failures_into_exit_one(self, capsys, monkeypatch):
        _plant_failure(monkeypatch, "lloyd")
        with pytest.warns(RuntimeWarning):
            code = main(self.BASE + ["--algorithms", "lloyd", "--strict"])
        assert code == 1
        assert "1 failed" in capsys.readouterr().out

    @needs_fork
    def test_resume_reruns_only_failures(self, tmp_path, capsys, monkeypatch):
        log = tmp_path / "campaign.jsonl"
        with monkeypatch.context() as patch:
            _plant_failure(patch, "lloyd")
            with pytest.warns(RuntimeWarning):
                main(self.BASE + [
                    "--algorithms", "lloyd,hamerly", "--log", str(log),
                ])
        capsys.readouterr()
        code = main(self.BASE + [
            "--algorithms", "lloyd,hamerly", "--log", str(log), "--resume",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 ok (1 resumed)" in out and "0 failed" in out
        statuses = [r.get("status", "ok") for r in read_jsonl(log)]
        assert statuses.count("ok") == 2 and statuses.count("failed") == 1

    def test_resume_of_a_complete_log_runs_nothing(self, tmp_path, capsys):
        log = tmp_path / "campaign.jsonl"
        argv = self.BASE + ["--algorithms", "lloyd,hamerly", "--log", str(log)]
        assert main(argv) == 0
        lines = log.read_text()
        capsys.readouterr()
        assert main(argv + ["--resume", "--strict"]) == 0
        assert "2 ok (2 resumed), 0 failed" in capsys.readouterr().out
        assert log.read_text() == lines


def _exit_code(argv):
    """``main``'s return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestNumericFlags:
    """Out-of-range numbers exit 2 ("bad arguments"), never 1, the code
    ``--strict`` gives a failed cell or request."""

    @pytest.mark.parametrize(
        "argv, flag",
        (
            (["bench", "--timeout", "0"], "--timeout"),
            (["bench", "--repeats", "0"], "--repeats"),
            (["bench", "--ks", "4,0"], "--ks"),
            (["bench", "--n", "0"], "--n"),
            (["bench", "--max-workers", "0"], "--max-workers"),
            (["bench", "--max-workers", "-3"], "--max-workers"),
            (["cluster", "--k", "0"], "--k"),
            (["cluster", "--max-iter", "0"], "--max-iter"),
            (["serve", "reg", "--request-size", "0"], "--request-size"),
            (["serve", "reg", "--batch", "0"], "--batch"),
            (["serve", "reg", "--deadline", "0"], "--deadline"),
            (["bench", "--ks", "x"], "--ks"),
            (["tune", "--ks", "0"], "--ks"),
            (["tune", "--ks", "5,x"], "--ks"),
        ),
        ids=(
            "bench-timeout", "bench-repeats", "bench-ks", "bench-n",
            "bench-max-workers-zero", "bench-max-workers-negative",
            "cluster-k", "cluster-max-iter", "serve-request-size",
            "serve-batch", "serve-deadline", "bench-ks-text", "tune-ks",
            "tune-ks-text",
        ),
    )
    def test_out_of_range_exits_two(self, argv, flag, tmp_path, capsys):
        if argv[0] == "serve":
            argv = ["serve", str(tmp_path / "reg"), *argv[2:]]
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        (
            ["cluster", "--dataset", "Skin", "--n", "300", "--k", "500"],
            ["compare", "--dataset", "Skin", "--n", "300", "--k", "500"],
            ["registry", "save", "reg", "--dataset", "Skin", "--n", "300",
             "--k", "500"],
            ["bench", "--n", "300", "--ks", "4,500"],
            ["tune", "--n", "300", "--ks", "500"],
        ),
        ids=("cluster", "compare", "registry-save", "bench", "tune"),
    )
    def test_k_above_point_count_exits_two(self, argv, tmp_path, capsys):
        if argv[0] == "registry":
            argv = ["registry", "save", str(tmp_path / "reg"), *argv[3:]]
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "k=500 exceeds the 300 points" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def model_registry(tmp_path_factory):
    """A registry holding one small saved model, for ``repro serve``."""
    root = str(tmp_path_factory.mktemp("served") / "reg")
    assert main(["registry", "save", root, "--dataset", "Skin", "--n", "100",
                 "--k", "2", "--max-iter", "2"]) == 0
    return root


def _bad_input(kind, tmp_path):
    """The ``--dataset`` (or CSV path) value of one kind of unloadable data."""
    if kind == "unknown-name":
        return "Nope"
    path = tmp_path / "points.csv"
    if kind == "empty-csv":
        path.write_text("")
    elif kind == "nan-csv":
        path.write_text("1.0,2.0\nnan,3.0\n")
    return str(path)


#: every command that loads data, with the bad inputs it can be handed
_LOAD_CASES = [
    (command, kind)
    for command in ("cluster", "compare", "registry-save", "serve")
    for kind in ("unknown-name", "missing-csv", "empty-csv", "nan-csv")
] + [("bench", "unknown-name"), ("tune", "unknown-name")]


class TestBadInputData:
    """Data that cannot be loaded exits 2 with one stderr line, never 1
    (the code ``--strict`` gives a failed cell) or a traceback."""

    @pytest.mark.parametrize(
        "command, kind", _LOAD_CASES, ids=[f"{c}-{k}" for c, k in _LOAD_CASES]
    )
    def test_unloadable_data_exits_two(self, command, kind, tmp_path, capsys,
                                       request):
        value = _bad_input(kind, tmp_path)
        data = ["--dataset", value] + ([] if kind == "unknown-name" else ["--csv"])
        if command == "serve":
            flag = "--dataset" if kind == "unknown-name" else "--points"
            argv = ["serve", request.getfixturevalue("model_registry"), flag, value]
        else:
            argv = {
                "cluster": ["cluster", *data, "--k", "2"],
                "compare": ["compare", *data, "--k", "2"],
                "registry-save": ["registry", "save", str(tmp_path / "reg"),
                                  *data, "--k", "2"],
                "bench": ["bench", "--datasets", value, "--ks", "2"],
                "tune": ["tune", "--datasets", value, "--ks", "2"],
            }[command]
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot load data: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
