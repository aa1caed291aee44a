"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import ALGORITHMS
from repro.datasets.loaders import read_jsonl, save_points_csv


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

    def test_malformed_fault_spec_exits_two(self, capsys):
        code = main(self.BASE + ["--inject-faults", "meteor:lloyd"])
        assert code == 2
        assert "bad arguments" in capsys.readouterr().err

    def test_key_value_fault_fields_exit_two(self, capsys):
        code = main(self.BASE + [
            "--algorithms", "lloyd", "--backend", "vectorized", "--shards", "2",
            "--inject-faults", "raise:lloyd:shard=1:iter=1", "--strict",
        ])
        assert code == 2
        assert "bad arguments" in capsys.readouterr().err

    def test_chaos_records_failures_but_exits_zero(self, tmp_path, capsys):
        log = tmp_path / "chaos.jsonl"
        with pytest.warns(RuntimeWarning):
            code = main(self.BASE + [
                "--algorithms", "lloyd,hamerly",
                "--inject-faults", "transient:hamerly:1,raise:lloyd",
                "--retries", "2", "--log", str(log),
            ])
        assert code == 0
        captured = capsys.readouterr()
        assert "1 ok" in captured.out and "1 failed" in captured.out
        assert "FAILED" in captured.out
        assert "--resume" in captured.err  # hint to retry failed cells
        records = read_jsonl(log)
        statuses = {r["algorithm"]: r.get("status", "ok") for r in records}
        assert statuses == {"hamerly": "ok", "lloyd": "failed"}

    def test_strict_turns_failures_into_exit_one(self, capsys):
        with pytest.warns(RuntimeWarning):
            code = main(self.BASE + [
                "--algorithms", "lloyd",
                "--inject-faults", "raise:lloyd", "--strict",
            ])
        assert code == 1
        assert "1 failed" in capsys.readouterr().out

    def test_resume_reruns_only_failures(self, tmp_path, capsys):
        log = tmp_path / "campaign.jsonl"
        with pytest.warns(RuntimeWarning):
            main(self.BASE + [
                "--algorithms", "lloyd,hamerly",
                "--inject-faults", "raise:lloyd", "--log", str(log),
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
