"""Crash-recovery tests for the sharded engine's per-iteration checkpoints.

The acceptance scenario: a fit interrupted mid-flight resumes from its
fsync'd JSONL checkpoint to the *identical* final model — and the store
survives the same abuse as the evaluation log (truncated tails, stale
records from other fits, hand-tampered trajectories fail loudly instead
of silently producing a wrong model).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.common.exceptions import CheckpointError, ShardFailedError
from repro.core import VECTORIZED_ALGORITHMS, make_algorithm
from repro.datasets import make_blobs
from repro.eval.faults import FaultPlan, corrupt_jsonl_tail
from repro.exec.checkpoint import (
    ShardCheckpoint,
    array_crc,
    decode_labels,
    encode_labels,
)
from repro.exec.sharded import SHARDED_ALGORITHMS

from tests.trace_utils import golden_task

INTERRUPT = FaultPlan.parse("raise:*:shard=1:iter=3")


def _fit(name, task, **kwargs):
    X, k, C0, max_iter = task
    algorithm = SHARDED_ALGORITHMS[name](shards=3, **kwargs)
    return algorithm.fit(X, k, initial_centroids=C0, max_iter=max_iter)


@pytest.fixture(scope="module")
def task():
    return golden_task(0)


class TestEncoding:
    def test_labels_roundtrip(self):
        labels = np.array([0, 5, -1, 3], dtype=np.intp)
        assert np.array_equal(decode_labels(encode_labels(labels), 4), labels)

    def test_decode_rejects_wrong_length(self):
        blob = encode_labels(np.zeros(4, dtype=np.intp))
        with pytest.raises(CheckpointError):
            decode_labels(blob, 5)

    def test_array_crc_tracks_contents(self):
        a = np.arange(6, dtype=np.float64)
        assert array_crc(a) == array_crc(a.copy())
        b = a.copy()
        b[3] += 1e-9
        assert array_crc(a) != array_crc(b)


class TestLoad:
    def _record(self, fit_key, iteration, tag=0):
        return {
            "fit_key": fit_key,
            "iteration": iteration,
            "labels": encode_labels(np.full(4, tag, dtype=np.intp)),
            "centroid_crc": 1,
        }

    def test_returns_contiguous_prefix_only(self, tmp_path):
        cp = ShardCheckpoint(tmp_path / "ck.jsonl")
        for iteration in (0, 1, 3):
            cp.append(self._record("fit", iteration))
        loaded = cp.load("fit")
        # Iteration 3 sits after a hole: the fit cannot reach it by replay.
        assert sorted(loaded) == [0, 1]

    def test_last_record_per_iteration_wins(self, tmp_path):
        cp = ShardCheckpoint(tmp_path / "ck.jsonl")
        cp.append(self._record("fit", 0, tag=1))
        cp.append(self._record("fit", 0, tag=2))
        labels = decode_labels(cp.load("fit")[0]["labels"], 4)
        assert labels.tolist() == [2, 2, 2, 2]

    def test_other_fit_keys_ignored(self, tmp_path):
        cp = ShardCheckpoint(tmp_path / "ck.jsonl")
        cp.append(self._record("other", 0))
        assert cp.load("fit") == {}

    def test_missing_file_is_empty(self, tmp_path):
        assert ShardCheckpoint(tmp_path / "absent.jsonl").load("fit") == {}


class TestResume:
    def test_lloyd_resumes_to_bit_identical_model(self, tmp_path, task):
        path = tmp_path / "ck.jsonl"
        want = _fit("lloyd", task)
        with pytest.raises(ShardFailedError) as excinfo:
            _fit("lloyd", task, checkpoint=path, fault_plan=INTERRUPT)
        assert excinfo.value.iteration == 3
        resumed = _fit("lloyd", task, checkpoint=path)
        # Lloyd keeps no bound state, so the resumed run is bit-identical
        # in *every* observable — labels, centroids, counters.
        assert np.array_equal(resumed.labels, want.labels)
        assert resumed.centroids.tobytes() == want.centroids.tobytes()
        assert resumed.n_iter == want.n_iter
        assert resumed.sse == want.sse
        assert resumed.counters == want.counters
        assert resumed.extras["resumed_iterations"] == 3

    def test_elkan_resumes_to_identical_model(self, tmp_path, task):
        # Bounds are reseeded conservatively on resume: the model (labels,
        # centroids, iteration count) is exact; only post-resume pruning
        # counters may differ (docs/sharding.md).
        path = tmp_path / "ck.jsonl"
        want = _fit("elkan", task)
        with pytest.raises(ShardFailedError):
            _fit("elkan", task, checkpoint=path, fault_plan=INTERRUPT)
        resumed = _fit("elkan", task, checkpoint=path)
        assert np.array_equal(resumed.labels, want.labels)
        assert resumed.centroids.tobytes() == want.centroids.tobytes()
        assert resumed.n_iter == want.n_iter
        assert resumed.sse == want.sse
        assert resumed.extras["resumed_iterations"] == 3

    def test_resume_through_make_algorithm(self, tmp_path, task):
        X, k, C0, max_iter = task
        path = tmp_path / "ck.jsonl"
        want = _fit("lloyd", task)
        interrupted = make_algorithm(
            "lloyd", backend="vectorized", shards=3,
            checkpoint=path, fault_plan=INTERRUPT,
        )
        with pytest.raises(ShardFailedError):
            interrupted.fit(X, k, initial_centroids=C0, max_iter=max_iter)
        resumed = make_algorithm(
            "lloyd", backend="vectorized", shards=3,
            checkpoint=path,
        ).fit(X, k, initial_centroids=C0, max_iter=max_iter)
        assert resumed.centroids.tobytes() == want.centroids.tobytes()
        assert resumed.extras["resumed_iterations"] == 3

    def test_corrupt_tail_then_resume_still_identical(self, tmp_path, task):
        path = tmp_path / "ck.jsonl"
        want = _fit("lloyd", task)
        with pytest.raises(ShardFailedError):
            _fit("lloyd", task, checkpoint=path, fault_plan=INTERRUPT)
        # Crash mid-append: the truncated final line is quarantined and the
        # fit replays one iteration less — same final model.
        corrupt_jsonl_tail(path, drop_bytes=9)
        resumed = _fit("lloyd", task, checkpoint=path)
        assert np.array_equal(resumed.labels, want.labels)
        assert resumed.centroids.tobytes() == want.centroids.tobytes()
        assert resumed.counters == want.counters
        assert resumed.extras["resumed_iterations"] == 2

    def test_tampered_labels_fail_loudly(self, tmp_path, task):
        X, _, _, _ = task
        path = tmp_path / "ck.jsonl"
        with pytest.raises(ShardFailedError):
            _fit("lloyd", task, checkpoint=path, fault_plan=INTERRUPT)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        tampered = records[1]  # iteration 1: mid-trajectory
        labels = decode_labels(tampered["labels"], len(X)).copy()
        labels[:10] = (labels[:10] + 1) % 6
        tampered["labels"] = encode_labels(labels)
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        # Iteration 1 replays the tampered labels (its entry digest still
        # matches), but iteration 2's centroids then diverge from the
        # stored trajectory — replay must refuse, not produce a wrong model.
        with pytest.raises(CheckpointError, match="different centroids"):
            _fit("lloyd", task, checkpoint=path)

    def test_different_data_does_not_replay(self, tmp_path, task):
        path = tmp_path / "ck.jsonl"
        with pytest.raises(ShardFailedError):
            _fit("lloyd", task, checkpoint=path, fault_plan=INTERRUPT)
        X, _ = make_blobs(90, 4, 3, seed=11)
        fresh = SHARDED_ALGORITHMS["lloyd"](
            shards=3, checkpoint=path
        ).fit(X, 3, max_iter=10, seed=0)
        assert "resumed_iterations" not in fresh.extras
        want = VECTORIZED_ALGORITHMS["lloyd"]().fit(X, 3, max_iter=10, seed=0)
        assert np.array_equal(fresh.labels, want.labels)
        assert fresh.centroids.tobytes() == want.centroids.tobytes()
