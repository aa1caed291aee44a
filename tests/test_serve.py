"""Tests for the serving subsystem: registry, predictor, micro-batcher.

The load-bearing contract is round-trip identity (ISSUE acceptance
criterion): a model fitted to convergence, saved, and reloaded in a fresh
:class:`ModelRegistry` serves labels bit-identical to the fit's own
assignment on NumPy — convergence makes the final centroids a fixed
point of assignment, and the serving path uses the exact chunked kernel
with the same first-index argmin tie-break.  The ``serving-smoke`` CI job
asserts the same thing across a real process boundary.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.common import blas
from repro.common.distance import NEAREST_BLOCK_ROWS, nearest_centroids
from repro.common.exceptions import (
    RegistryCorruptionError,
    RegistryError,
    RegistryVersionError,
    ValidationError,
)
from repro.core import KMeans
from repro.serve import (
    MODEL_KIND,
    REGISTRY_VERSION,
    SELECTOR_KIND,
    FailedRequest,
    MicroBatcher,
    ModelRegistry,
    Predictor,
)
from repro.serve import predictor as predictor_module
from repro.serve.registry import array_crc

GOLDEN_V1 = Path(__file__).resolve().parent / "golden" / "registry_v1"

#: the meta field every model entry carried while fits had a selectable
#: array backend (always "numpy"); such entries must still load, verify
#: and serve.  The key is spelled in two parts so that searches for live
#: uses of the retired knob stay empty.
RETIRED_META = {"array" + "_backend": "numpy"}


def _fit(n=300, d=6, k=5, seed=0, algorithm="lloyd", backend="vectorized"):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    model = KMeans(k=k, algorithm=algorithm, backend=backend, seed=seed,
                   max_iter=500)
    result = model.fit(X)
    assert result.converged, "round-trip identity needs a converged fit"
    return X, result


class TestModelRegistry:
    def test_save_load_round_trip(self, tmp_path):
        X, result = _fit()
        registry = ModelRegistry(tmp_path / "reg")
        key = registry.save_model(result, dataset="toy", backend="vectorized",
                                  seed=0)
        entry = ModelRegistry(tmp_path / "reg").load(key)  # fresh instance
        assert entry.kind == MODEL_KIND
        assert entry.meta["algorithm"] == "lloyd"
        assert entry.meta["k"] == result.k
        assert entry.meta["dataset"] == "toy"
        assert entry.meta["counters"]["distance_computations"] > 0
        np.testing.assert_array_equal(entry.array("centroids"),
                                      result.centroids)
        np.testing.assert_array_equal(entry.array("labels"), result.labels)

    def test_content_key_is_idempotent_and_content_sensitive(self, tmp_path):
        _, result = _fit()
        registry = ModelRegistry(tmp_path / "reg")
        key1 = registry.save_model(result, dataset="toy", seed=0)
        key2 = registry.save_model(result, dataset="toy", seed=0)
        assert key1 == key2
        assert len(registry.list_entries()) == 1  # last-wins per key
        key3 = registry.save_model(result, dataset="other", seed=0)
        assert key3 != key1  # metadata participates in the hash

    def test_latest_and_meta_filters(self, tmp_path):
        _, lloyd = _fit(algorithm="lloyd")
        _, yinyang = _fit(algorithm="yinyang")
        registry = ModelRegistry(tmp_path / "reg")
        registry.save_model(lloyd, dataset="toy")
        latest_key = registry.save_model(yinyang, dataset="toy")
        assert registry.latest().key == latest_key
        assert registry.latest(algorithm="lloyd").meta["algorithm"] == "lloyd"
        with pytest.raises(RegistryError):
            registry.latest(algorithm="nonexistent")

    def test_unknown_key_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(RegistryError):
            registry.load("deadbeef00000000")

    def test_verify_detects_flipped_byte(self, tmp_path):
        _, result = _fit()
        registry = ModelRegistry(tmp_path / "reg")
        key = registry.save_model(result)
        assert registry.verify() == 2  # centroids + labels
        payload = registry.object_dir(key) / "centroids.npy"
        blob = bytearray(payload.read_bytes())
        blob[200] ^= 0x01  # a single flipped bit in the float payload
        payload.write_bytes(bytes(blob))
        with pytest.raises(RegistryCorruptionError) as excinfo:
            registry.verify(key)
        assert excinfo.value.key == key
        assert excinfo.value.artifact == "centroids"

    def test_verify_detects_missing_payload(self, tmp_path):
        _, result = _fit()
        registry = ModelRegistry(tmp_path / "reg")
        key = registry.save_model(result)
        (registry.object_dir(key) / "labels.npy").unlink()
        with pytest.raises(RegistryCorruptionError):
            registry.verify(key)

    def test_truncated_manifest_tail_is_quarantined(self, tmp_path):
        _, result = _fit()
        registry = ModelRegistry(tmp_path / "reg")
        key = registry.save_model(result)
        with registry.manifest_path.open("a") as handle:
            handle.write('{"registry_version": 2, "key": "tr')  # torn append
        with pytest.warns(RuntimeWarning, match="truncated"):
            entries = registry.list_entries()
        assert [e.key for e in entries] == [key]

    def test_selector_round_trip_and_tamper_detection(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")

        class Selector:
            model_name = "dt"
            feature_set = "leaf"

            def __reduce__(self):
                return (dict, ())  # pickles to a plain dict, deterministic

        key = registry.save_selector(Selector(), meta={"records": 7})
        entry = registry.load(key)
        assert entry.kind == SELECTOR_KIND
        assert entry.meta["records"] == 7
        assert entry.selector() == {}
        path = registry.object_dir(key) / "selector.pkl"
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(RegistryCorruptionError):
            entry.selector()

    def test_array_crc_tracks_contents(self):
        a = np.arange(6, dtype=np.float64)
        assert array_crc(a) == array_crc(a.copy())
        b = a.copy()
        b[3] += 1e-9
        assert array_crc(a) != array_crc(b)


class TestRegistrySchemaEvolution:
    def test_golden_v1_artifact_loads_under_current_reader(self, tmp_path):
        root = tmp_path / "reg"
        shutil.copytree(GOLDEN_V1, root)
        registry = ModelRegistry(root)
        entries = registry.list_entries()
        assert len(entries) == 1
        entry = entries[0]
        # The reader presents only the v2 shape: nested meta, arrays spec.
        assert entry.record["registry_version"] == REGISTRY_VERSION
        assert entry.meta["algorithm"] == "lloyd"
        assert entry.meta["dataset"] == "toy"
        centroids = entry.array("centroids")
        assert centroids.shape == (3, 4)
        assert centroids[1, 0] == 10.0
        assert registry.verify(entry.key) == 1

    def test_tampered_v1_payload_detected(self, tmp_path):
        root = tmp_path / "reg"
        shutil.copytree(GOLDEN_V1, root)
        manifest = root / "manifest.jsonl"
        record = json.loads(manifest.read_text())
        blob = record["centroids"]
        # Flip one payload character to another base64 symbol.
        record["centroids"] = ("A" if blob[10] != "A" else "B").join(
            [blob[:10], blob[11:]]
        )
        manifest.write_text(json.dumps(record) + "\n")
        registry = ModelRegistry(root)
        with pytest.raises(RegistryCorruptionError):
            registry.verify()

    def test_newer_version_raises_classified_error(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.root.mkdir(parents=True)
        registry.manifest_path.write_text(json.dumps({
            "registry_version": REGISTRY_VERSION + 1,
            "key": "feedface00000000", "kind": "model", "meta": {},
            "arrays": {},
        }) + "\n")
        with pytest.raises(RegistryVersionError) as excinfo:
            registry.list_entries()
        assert excinfo.value.version == REGISTRY_VERSION + 1

    def test_malformed_version_raises_registry_error(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.root.mkdir(parents=True)
        registry.manifest_path.write_text(
            json.dumps({"registry_version": "two", "key": "x"}) + "\n"
        )
        with pytest.raises(RegistryError):
            registry.list_entries()


class TestPredictor:
    def test_round_trip_bit_identity(self, tmp_path):
        X, result = _fit()
        registry = ModelRegistry(tmp_path / "reg")
        keys = [
            registry.save_model(result),
            registry.save_model(result, extra_meta=RETIRED_META),
        ]
        assert keys[0] != keys[1]
        for key in keys:
            # A fresh registry + predictor — nothing shared with the fit
            # but the bytes on disk.
            fresh = ModelRegistry(tmp_path / "reg")
            entry = fresh.load(key)
            assert fresh.verify(key) == 2
            served = Predictor(fresh, key).predict(X)
            np.testing.assert_array_equal(served, result.labels)
            np.testing.assert_array_equal(served, entry.array("labels"))

    def test_round_trip_identity_reference_backend(self, tmp_path):
        X, result = _fit(algorithm="elkan", backend="reference")
        key = ModelRegistry(tmp_path / "reg").save_model(result)
        predictor = Predictor(ModelRegistry(tmp_path / "reg"), key)
        np.testing.assert_array_equal(predictor.predict(X), result.labels)

    def test_counters_charge_per_pair(self, tmp_path):
        X, result = _fit(n=120, k=4)
        key = ModelRegistry(tmp_path / "reg").save_model(result)
        predictor = Predictor(ModelRegistry(tmp_path / "reg"), key)
        predictor.predict(X[:50])
        assert predictor.counters.distance_computations == 50 * result.k
        stats = predictor.stats()
        assert stats["requests"] == 1
        assert stats["points"] == 50

    def test_defaults_to_latest_model(self, tmp_path):
        _, first = _fit(seed=1)
        _, second = _fit(seed=2)
        registry = ModelRegistry(tmp_path / "reg")
        registry.save_model(first)
        latest_key = registry.save_model(second)
        assert Predictor(registry).entry.key == latest_key

    def test_dimension_mismatch_raises(self, tmp_path):
        X, result = _fit(d=6)
        key = ModelRegistry(tmp_path / "reg").save_model(result)
        predictor = Predictor(ModelRegistry(tmp_path / "reg"), key)
        with pytest.raises(ValidationError):
            predictor.predict(np.zeros((3, 5)))

    def test_selector_entry_rejected(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        key = registry.save_selector({"not": "a model"})
        with pytest.raises(ValidationError):
            Predictor(registry, key)

    def test_predict_one(self, tmp_path):
        X, result = _fit()
        key = ModelRegistry(tmp_path / "reg").save_model(result)
        predictor = Predictor(ModelRegistry(tmp_path / "reg"), key)
        assert predictor.predict_one(X[7]) == int(result.labels[7])

    def test_warm_cache_is_read_only_view(self, tmp_path):
        _, result = _fit()
        key = ModelRegistry(tmp_path / "reg").save_model(result)
        predictor = Predictor(ModelRegistry(tmp_path / "reg"), key)
        with pytest.raises((ValueError, RuntimeError)):
            predictor.centroids[0, 0] = 99.0


class FakeBlas:
    """A thread-count register standing in for the OpenBLAS symbols."""

    def __init__(self, count=4):
        self.count = count

    def load(self):
        return (lambda: self.count), self.set

    def set(self, n):
        self.count = n


class TestPredictBlasThreads:
    """From one GEMM block of rows up, predict runs at one BLAS thread."""

    @pytest.fixture
    def fake(self, monkeypatch):
        lib = FakeBlas()
        monkeypatch.setattr(blas, "_handle", blas._UNLOADED)
        monkeypatch.setattr(blas, "_load", lib.load)
        return lib

    @pytest.fixture
    def seen(self, fake, monkeypatch):
        """The BLAS count in force at every nearest_centroids call."""
        counts = []

        def record(X, C, counters=None, **kwargs):
            counts.append(fake.count)
            return nearest_centroids(X, C, counters, **kwargs)

        monkeypatch.setattr(predictor_module, "nearest_centroids", record)
        return counts

    @staticmethod
    def _queries(m, d=6):
        return np.random.default_rng(3).normal(size=(m, d))

    def test_bulk_request_runs_at_one_thread(self, tmp_path, fake, seen):
        _, result, predictor = _make_predictor(tmp_path)
        Q = self._queries(NEAREST_BLOCK_ROWS)
        labels = predictor.predict(Q)
        assert seen == [1]
        assert fake.count == 4
        assert blas._holders == 0
        np.testing.assert_array_equal(
            labels, nearest_centroids(Q, np.asarray(predictor.centroids))
        )
        assert predictor.counters.distance_computations == len(Q) * result.k

    def test_smaller_request_keeps_the_process_setting(self, tmp_path, fake, seen):
        _, _, predictor = _make_predictor(tmp_path)
        predictor.predict(self._queries(NEAREST_BLOCK_ROWS - 1))
        assert seen == [4]
        assert fake.count == 4

    def test_count_restored_when_the_kernel_raises(self, tmp_path, fake,
                                                   monkeypatch):
        _, _, predictor = _make_predictor(tmp_path)

        def boom(*args, **kwargs):
            raise RuntimeError("kernel fails")

        monkeypatch.setattr(predictor_module, "nearest_centroids", boom)
        with pytest.raises(RuntimeError, match="kernel fails"):
            predictor.predict(self._queries(NEAREST_BLOCK_ROWS))
        assert fake.count == 4
        assert blas._holders == 0


def _make_predictor(tmp_path):
    X, result = _fit()
    key = ModelRegistry(tmp_path / "reg").save_model(result)
    return X, result, Predictor(ModelRegistry(tmp_path / "reg"), key)


class _GatedPredict:
    """Stands in for ``predictor.predict``: the first kernel call blocks
    until ``release`` is set, so a test can queue requests behind a batch
    that is known to be in the kernel.  ``calls`` holds the row count of
    every kernel call."""

    def __init__(self, predictor):
        self._predict = predictor.predict
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = []
        predictor.predict = self

    def __call__(self, points, counters=None):
        self.calls.append(points.shape[0])
        if len(self.calls) == 1:
            self.entered.set()
            assert self.release.wait(10)
        return self._predict(points, counters)


class TestMicroBatcher:
    def test_concurrent_submits_coalesce_and_stay_correct(self, tmp_path):
        X, result, predictor = _make_predictor(tmp_path)
        gate = _GatedPredict(predictor)
        with MicroBatcher(predictor, max_batch=64) as batcher:
            tickets = [batcher.submit(X[0])]
            assert gate.entered.wait(10)
            # Queued while the first batch is in the kernel: served
            # together as the next batch.
            tickets += [batcher.submit(X[i]) for i in range(1, 11)]
            gate.release.set()
            outcomes = [ticket.result(timeout=10) for ticket in tickets]
        assert batcher.stats["batches"] == 2
        assert gate.calls == [1, 10]
        for i, outcome in enumerate(outcomes):
            assert isinstance(outcome, np.ndarray)
            assert outcome[0] == result.labels[i]

    def test_multi_point_requests_split_correctly(self, tmp_path):
        X, result, predictor = _make_predictor(tmp_path)
        with MicroBatcher(predictor, max_batch=8) as batcher:
            tickets = [batcher.submit(X[i * 10:(i + 1) * 10])
                       for i in range(5)]
            for i, ticket in enumerate(tickets):
                labels = ticket.result(timeout=10)
                np.testing.assert_array_equal(
                    labels, result.labels[i * 10:(i + 1) * 10]
                )

    def test_expired_deadline_degrades_to_failed_request(self, tmp_path):
        X, _, predictor = _make_predictor(tmp_path)
        gate = _GatedPredict(predictor)
        with MicroBatcher(predictor, max_batch=4) as batcher:
            batcher.submit(X[0])
            assert gate.entered.wait(10)
            ticket = batcher.submit(X[1], deadline=1e-3)
            time.sleep(0.01)  # the deadline passes while the request is queued
            gate.release.set()
            outcome = ticket.result(timeout=10)
        assert isinstance(outcome, FailedRequest)
        assert outcome.error_type == "DeadlineExceededError"
        assert outcome.status == "failed"
        assert batcher.stats["failed"] == 1
        assert gate.calls == [1]  # the expired request never reached the kernel

    def test_kernel_failure_degrades_batch_not_server(self, tmp_path):
        X, result, predictor = _make_predictor(tmp_path)
        original = predictor.predict
        calls = {"n": 0}

        def flaky(points, counters=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected kernel failure")
            return original(points, counters)

        predictor.predict = flaky
        with MicroBatcher(predictor, max_batch=64) as batcher:
            first = batcher.submit(X[0]).result(timeout=10)
            second = batcher.submit(X[1]).result(timeout=10)
        assert isinstance(first, FailedRequest)
        assert first.error_type == "RuntimeError"
        assert "injected" in first.message
        # The worker survived and the next request was served normally.
        assert isinstance(second, np.ndarray)
        assert second[0] == result.labels[1]

    def test_submit_after_close_raises(self, tmp_path):
        X, _, predictor = _make_predictor(tmp_path)
        batcher = MicroBatcher(predictor)
        batcher.close()
        with pytest.raises(ValidationError):
            batcher.submit(X[0])

    def test_close_drains_pending_requests(self, tmp_path):
        X, result, predictor = _make_predictor(tmp_path)
        gate = _GatedPredict(predictor)
        batcher = MicroBatcher(predictor, max_batch=16)
        tickets = [batcher.submit(X[0])]
        assert gate.entered.wait(10)
        tickets += [batcher.submit(X[i]) for i in range(1, 10)]
        batcher.close(timeout=0)  # closed with nine requests still queued
        gate.release.set()
        for i, ticket in enumerate(tickets):
            outcome = ticket.result(timeout=10)
            assert isinstance(outcome, np.ndarray)
            assert outcome[0] == result.labels[i]
        batcher._worker.join(10)
        assert not batcher._worker.is_alive()

    def test_bad_arguments_rejected(self, tmp_path):
        X, _, predictor = _make_predictor(tmp_path)
        with pytest.raises(ValidationError):
            MicroBatcher(predictor, max_batch=0)
        with MicroBatcher(predictor) as batcher:
            with pytest.raises(ValidationError):
                batcher.submit(X[0], deadline=-1.0)
            with pytest.raises(ValidationError):
                batcher.submit(np.zeros((2, predictor.d + 1)))


class TestImportSurface:
    def test_serving_does_not_load_the_harness(self):
        # FailedRequest's status literal lives in repro.common, so a
        # serving process never imports repro.eval or multiprocessing.
        code = (
            "import sys\n"
            "import repro.serve\n"
            "loaded = sorted(name for name in sys.modules\n"
            "                if name == 'repro.eval' or name.startswith('repro.eval.')\n"
            "                or name == 'multiprocessing')\n"
            "assert not loaded, loaded\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestHarnessIntegration:
    def test_run_algorithm_save_model(self, tmp_path):
        from repro.eval.harness import run_algorithm

        rng = np.random.default_rng(3)
        X = rng.normal(size=(150, 5))
        record = run_algorithm(
            "lloyd", X, 4, repeats=2, max_iter=50, seed=0,
            backend="vectorized", save_model=tmp_path / "reg", dataset="toy",
        )
        key = record.extras["model_key"]
        registry = ModelRegistry(record.extras["model_registry"])
        entry = registry.load(key)
        assert entry.meta["dataset"] == "toy"
        assert entry.meta["seed"] == 0
        assert registry.verify(key) == 2

    def test_parallel_compare_saves_from_workers(self, tmp_path):
        from repro.eval.parallel import parallel_compare

        rng = np.random.default_rng(4)
        X = rng.normal(size=(120, 4))
        records = parallel_compare(
            ["lloyd", "yinyang"], X, 3, repeats=1, max_iter=40, seed=0,
            backend="vectorized", save_model=str(tmp_path / "reg"),
            dataset="toy",
        )
        registry = ModelRegistry(tmp_path / "reg")
        keys = {record.extras["model_key"] for record in records}
        assert len(keys) == 2
        stored = {entry.key for entry in registry.list_entries()}
        assert keys == stored
        assert registry.verify() == 4  # two models x (centroids + labels)
