"""Unit tests for CSV/JSONL persistence."""

import os

import numpy as np
import pytest

from repro.common.exceptions import DatasetError
from repro.datasets.loaders import (
    append_jsonl,
    load_points_csv,
    read_jsonl,
    save_points_csv,
)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        X = np.random.default_rng(0).normal(size=(20, 4))
        path = tmp_path / "points.csv"
        save_points_csv(path, X)
        np.testing.assert_array_equal(load_points_csv(path), X)

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "points.csv"
        save_points_csv(path, np.ones((2, 2)))
        assert path.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="no such dataset"):
            load_points_csv(tmp_path / "missing.csv")

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nx,3.0\n")
        with pytest.raises(DatasetError, match="malformed row"):
            load_points_csv(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DatasetError, match="ragged"):
            load_points_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetError, match="no data rows"):
            load_points_csv(path)

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blanks.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n")
        assert load_points_csv(path).shape == (2, 2)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        records = [{"a": 1}, {"b": [1, 2]}]
        assert append_jsonl(path, records) == 2
        assert read_jsonl(path) == records

    def test_append_accumulates(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl(path, [{"x": 1}])
        append_jsonl(path, [{"x": 2}])
        assert len(read_jsonl(path)) == 2

    def test_missing_file_returns_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "nope.jsonl") == []

    def test_malformed_midfile_raises(self, tmp_path):
        # A bad line *followed by valid records* is corruption, not a
        # crash-truncated tail — recovery must not silently eat it.
        path = tmp_path / "bad.jsonl"
        path.write_text('{broken\n{"ok": 1}\n')
        with pytest.raises(DatasetError, match="malformed JSON"):
            read_jsonl(path)

    def test_truncated_tail_skipped_with_warning(self, tmp_path):
        path = tmp_path / "crashed.jsonl"
        path.write_text('{"ok": 1}\n{"partial": tru')
        with pytest.warns(RuntimeWarning, match="truncated trailing"):
            records = read_jsonl(path)
        assert records == [{"ok": 1}]

    def test_truncated_tail_quarantined(self, tmp_path):
        path = tmp_path / "crashed.jsonl"
        path.write_text('{"ok": 1}\n{"partial": tru')
        with pytest.warns(RuntimeWarning, match="quarantined"):
            records = read_jsonl(path, truncated="quarantine")
        assert records == [{"ok": 1}]
        quarantine = tmp_path / "crashed.jsonl.quarantine"
        assert quarantine.read_text() == '{"partial": tru\n'

    def test_truncated_tail_strict_mode_raises(self, tmp_path):
        path = tmp_path / "crashed.jsonl"
        path.write_text('{"partial": tru')
        with pytest.raises(DatasetError, match="malformed JSON"):
            read_jsonl(path, truncated="raise")

    def test_unknown_truncated_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="truncated"):
            read_jsonl(tmp_path / "x.jsonl", truncated="explode")

    def test_append_then_recover_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl(path, [{"x": 1}, {"x": 2}])
        os.truncate(path, path.stat().st_size - 4)
        with pytest.warns(RuntimeWarning):
            records = read_jsonl(path)
        assert records == [{"x": 1}]
