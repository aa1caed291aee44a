"""Tests for the CI benchmark-regression diff (benchmarks/bench_diff.py)."""

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

from bench_diff import diff_reports, main  # noqa: E402


def _report(**speedups):
    algorithms = {}
    for name, spec in speedups.items():
        entry = {"speedup": spec} if isinstance(spec, (int, float)) else dict(spec)
        algorithms[name] = entry
    return {"algorithms": algorithms}


class TestDiffReports:
    def test_within_tolerance_passes(self):
        table, regressions = diff_reports(
            _report(lloyd=2.6), _report(lloyd=2.2)
        )
        assert regressions == []
        assert "lloyd" in table and "ok" in table

    def test_gated_regression_detected(self):
        table, regressions = diff_reports(
            _report(lloyd=3.0), _report(lloyd=2.0)
        )
        assert len(regressions) == 1
        assert "lloyd" in regressions[0]
        assert "3.00x -> 2.00x" in regressions[0]
        assert "REGRESSED" in table

    def test_ungated_regression_reported_not_failed(self):
        previous = _report(sharded_lloyd={"speedup": 2.0, "gated": False})
        current = _report(sharded_lloyd={"speedup": 0.3, "gated": False})
        table, regressions = diff_reports(previous, current)
        assert regressions == []
        assert "ok (ungated)" in table

    def test_explicitly_gated_entry_enforced(self):
        previous = _report(
            serve_predict={"speedup": 11.0, "min_speedup": 5.0, "gated": True}
        )
        current = _report(
            serve_predict={"speedup": 6.0, "min_speedup": 5.0, "gated": True}
        )
        _, regressions = diff_reports(previous, current)
        assert len(regressions) == 1

    def test_added_and_removed_entries_reported(self):
        table, regressions = diff_reports(
            _report(lloyd=2.5, old_entry=4.0), _report(lloyd=2.5, new_entry=3.0)
        )
        assert regressions == []
        assert "added" in table and "removed" in table

    def test_custom_tolerance(self):
        previous, current = _report(lloyd=2.0), _report(lloyd=1.8)
        assert diff_reports(previous, current, tolerance=0.2)[1] == []
        assert len(diff_reports(previous, current, tolerance=0.05)[1]) == 1

    def test_improvement_never_regresses(self):
        _, regressions = diff_reports(_report(lloyd=2.0), _report(lloyd=9.0))
        assert regressions == []


class TestMain:
    def _write(self, tmp_path, name, report):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return str(path)

    def test_exit_zero_on_clean_diff(self, tmp_path, capsys):
        prev = self._write(tmp_path, "prev.json", _report(lloyd=2.5))
        curr = self._write(tmp_path, "curr.json", _report(lloyd=2.6))
        assert main([prev, curr]) == 0
        assert "no gated regressions" in capsys.readouterr().out

    def test_exit_one_with_readable_table(self, tmp_path, capsys):
        prev = self._write(tmp_path, "prev.json", _report(lloyd=4.0))
        curr = self._write(tmp_path, "curr.json", _report(lloyd=2.0))
        assert main([prev, curr]) == 1
        captured = capsys.readouterr()
        assert "algorithm" in captured.out  # the table header
        assert "benchmark regressions" in captured.err

    def test_current_repo_report_self_diff_is_clean(self, capsys):
        bench = BENCHMARKS.parent / "BENCH_backends.json"
        assert main([str(bench), str(bench)]) == 0
        assert "serve_predict" in capsys.readouterr().out
