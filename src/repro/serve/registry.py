"""Versioned on-disk model registry for fitted models and selectors.

The ROADMAP's clustering-as-a-service item needs fitted centroids and
trained UTune selectors to outlive the fitting process.  This module is
the persistence half: an append-only, fsync'd JSONL *manifest* (the
``repro.eval.logdb`` idiom — crash mid-append leaves at worst one
truncated final line, quarantined and repaired on the next load) plus a
content-addressed *object store* of ``.npy`` payload files, one directory
per entry key.

Layout
------
::

    <root>/
        manifest.jsonl            # one record per save (fsync'd appends)
        manifest.lock             # flock guard for concurrent writers
        objects/<key>/
            centroids.npy         # array payloads (atomic tmp+rename)
            labels.npy
            selector.pkl          # pickled selector artifact (if any)

Keying and tamper detection
---------------------------
An entry's ``key`` is the first 16 hex digits of the SHA-256 of the
canonical JSON of its kind, metadata, and per-array CRC32 digests
(:func:`array_crc`) — a *content hash*, so saving
the bit-identical model twice lands on the same key and a different model
can never collide into it silently.  Every payload's CRC (arrays) or
SHA-256 (pickled artifacts) is recorded in the manifest at save time;
:meth:`ModelRegistry.verify` re-reads the bytes and raises a classified
:class:`~repro.common.exceptions.RegistryCorruptionError` on any
disagreement — a flipped byte in ``centroids.npy`` is caught.

Schema versioning
-----------------
The current writer emits ``registry_version`` 2 (payload files + an
``arrays`` spec dict).  Version 1 records — inline base64 centroids with
flat metadata fields — upgrade transparently on read; anything *newer*
than the current writer raises a classified
:class:`~repro.common.exceptions.RegistryVersionError` instead of
misreading the payload.  A committed v1 golden artifact pins the
migration (``tests/golden/registry_v1``).

Concurrency
-----------
``parallel_compare`` workers save from concurrent processes.  Payload
writes are naturally race-free (content-keyed paths, atomic
``os.replace``); manifest appends are serialized through ``flock`` on a
sidecar lock file where ``fcntl`` exists, and degrade to unguarded
appends elsewhere (JSONL appends of < PIPE_BUF bytes are atomic on POSIX
anyway).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.common.exceptions import (
    RegistryCorruptionError,
    RegistryError,
    RegistryVersionError,
)
from repro.datasets.loaders import append_jsonl, read_jsonl

try:  # POSIX-only; the registry degrades gracefully without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None  # type: ignore[assignment]

PathLike = Union[str, Path]

#: schema version the current writer emits
REGISTRY_VERSION = 2

#: entry kinds the registry stores
MODEL_KIND = "model"
SELECTOR_KIND = "selector"
KINDS = (MODEL_KIND, SELECTOR_KIND)

#: length (hex digits) of the content-hashed entry key
KEY_LENGTH = 16


def array_crc(arr: np.ndarray) -> int:
    """CRC32 digest of an array's contents (dtype-stable, deterministic)."""
    return zlib.crc32(np.ascontiguousarray(arr).tobytes()) & 0xFFFFFFFF


def content_key(kind: str, meta: Dict[str, Any], digests: Dict[str, int]) -> str:
    """Content-hashed entry key: SHA-256 over canonical kind+meta+digests.

    Equal fitted models (same metadata, same payload bytes) hash to the
    same key; any payload or metadata change produces a different key.
    """
    canonical = json.dumps(
        {"kind": kind, "meta": meta, "digests": digests}, sort_keys=True
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:KEY_LENGTH]


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class RegistryEntry:
    """One manifest record with lazy, optionally memory-mapped payloads."""

    def __init__(self, registry: "ModelRegistry", record: Dict[str, Any]) -> None:
        self._registry = registry
        self.record = record

    @property
    def key(self) -> str:
        return str(self.record.get("key", ""))

    @property
    def kind(self) -> str:
        return str(self.record.get("kind", ""))

    @property
    def meta(self) -> Dict[str, Any]:
        return dict(self.record.get("meta", {}))

    @property
    def array_names(self) -> List[str]:
        return sorted(self.record.get("arrays", {}))

    def array(self, name: str, *, mmap_mode: Optional[str] = "r") -> np.ndarray:
        """Load one payload array (memory-mapped by default).

        The hot path deliberately does *not* re-digest the payload — that
        would read every byte and defeat the mmap; run
        :meth:`ModelRegistry.verify` for the integrity check.  Inline
        (v1-migrated) payloads are decoded and CRC-checked in place since
        the bytes are already in memory.
        """
        spec = self.record.get("arrays", {}).get(name)
        if spec is None:
            known = ", ".join(self.array_names) or "<none>"
            raise RegistryError(
                f"entry {self.key} has no array {name!r}; known: {known}"
            )
        if "inline" in spec:
            raw = base64.b64decode(spec["inline"].encode("ascii"))
            arr = np.frombuffer(raw, dtype=spec["dtype"]).reshape(spec["shape"])
            if array_crc(arr) != int(spec["crc"]):
                raise RegistryCorruptionError(
                    f"inline payload {name!r} of entry {self.key} fails its "
                    "CRC32 digest",
                    key=self.key, artifact=name,
                )
            return arr
        path = self._registry.object_dir(self.key) / spec["file"]
        if not path.exists():
            raise RegistryError(
                f"entry {self.key} references missing payload file {path}"
            )
        return np.load(path, mmap_mode=mmap_mode)

    def selector(self) -> Any:
        """Unpickle the selector artifact (digest-checked before load)."""
        spec = self.record.get("artifacts", {}).get("selector")
        if spec is None:
            raise RegistryError(f"entry {self.key} stores no selector artifact")
        path = self._registry.object_dir(self.key) / spec["file"]
        if not path.exists():
            raise RegistryError(
                f"entry {self.key} references missing artifact file {path}"
            )
        # Pickle runs code on load, so unlike the array hot path the digest
        # is always checked first.
        actual = _sha256_file(path)
        if actual != spec["sha256"]:
            raise RegistryCorruptionError(
                f"selector artifact of entry {self.key} fails its SHA-256 "
                f"digest ({actual[:12]}… != {spec['sha256'][:12]}…)",
                key=self.key, artifact="selector",
            )
        with path.open("rb") as handle:
            return pickle.load(handle)


class ModelRegistry:
    """Versioned, fsync'd store of fitted models and selector artifacts."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.jsonl"

    def object_dir(self, key: str) -> Path:
        return self.root / "objects" / key

    # ------------------------------------------------------------------
    # Saving.
    # ------------------------------------------------------------------

    def save_model(
        self,
        result: Any,
        *,
        dataset: str = "",
        backend: str = "reference",
        shards: int = 1,
        seed: Optional[int] = None,
        extra_meta: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Persist a fitted :class:`~repro.core.result.KMeansResult`.

        Stores the centroids and the fit's label vector (so a fresh
        process can assert served-vs-fit identity without refitting) plus
        the fit metadata the paper's evaluation reports: algorithm,
        backends, shards, seed, iteration count, convergence, SSE, and the
        counter totals.  Returns the content-hashed entry key.
        """
        meta: Dict[str, Any] = {
            "algorithm": result.algorithm,
            "n": int(result.n),
            "d": int(result.d),
            "k": int(result.k),
            "n_iter": int(result.n_iter),
            "converged": bool(result.converged),
            "sse": float(result.sse),
            "dataset": dataset,
            "backend": backend,
            "shards": int(shards),
            "seed": seed,
            "counters": dict(result.counters.as_dict()),
        }
        if extra_meta:
            meta.update(extra_meta)
        arrays = {
            "centroids": np.ascontiguousarray(result.centroids, dtype=np.float64),
            "labels": np.ascontiguousarray(result.labels, dtype=np.int64),
        }
        return self._save_entry(MODEL_KIND, meta, arrays, artifacts={})

    def save_selector(
        self,
        selector: Any,
        *,
        meta: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Persist a trained selector (e.g. :class:`repro.tuning.UTune`).

        The artifact is pickled; its SHA-256 lands in the manifest and is
        re-checked before every unpickle (code runs on load, so unlike
        arrays the digest check is not optional).
        """
        blob = pickle.dumps(selector, protocol=pickle.HIGHEST_PROTOCOL)
        selector_meta: Dict[str, Any] = {
            "class": type(selector).__name__,
            "model": getattr(selector, "model_name", None),
            "feature_set": getattr(selector, "feature_set", None),
        }
        if meta:
            selector_meta.update(meta)
        digest = hashlib.sha256(blob).hexdigest()
        key = content_key(
            SELECTOR_KIND, selector_meta, {"selector": int(digest[:8], 16)}
        )
        obj_dir = self.object_dir(key)
        obj_dir.mkdir(parents=True, exist_ok=True)
        self._write_bytes(obj_dir / "selector.pkl", blob)
        record = {
            "registry_version": REGISTRY_VERSION,
            "key": key,
            "kind": SELECTOR_KIND,
            "created": time.time(),
            "meta": selector_meta,
            "arrays": {},
            "artifacts": {
                "selector": {
                    "file": "selector.pkl",
                    "sha256": digest,
                    "size": len(blob),
                }
            },
        }
        self._append_record(record)
        return key

    def _save_entry(
        self,
        kind: str,
        meta: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
        *,
        artifacts: Dict[str, Dict[str, Any]],
    ) -> str:
        digests = {name: array_crc(arr) for name, arr in sorted(arrays.items())}
        key = content_key(kind, meta, digests)
        obj_dir = self.object_dir(key)
        obj_dir.mkdir(parents=True, exist_ok=True)
        specs: Dict[str, Dict[str, Any]] = {}
        for name, arr in arrays.items():
            filename = f"{name}.npy"
            self._write_npy(obj_dir / filename, arr)
            specs[name] = {
                "file": filename,
                "crc": digests[name],
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
            }
        record = {
            "registry_version": REGISTRY_VERSION,
            "key": key,
            "kind": kind,
            "created": time.time(),
            "meta": meta,
            "arrays": specs,
            "artifacts": artifacts,
        }
        self._append_record(record)
        return key

    @staticmethod
    def _write_npy(path: Path, arr: np.ndarray) -> None:
        """Durable, atomic ``.npy`` write: tmp file + fsync + rename.

        Content-keyed paths make concurrent writers race only against
        bit-identical bytes, so the last rename winning is harmless.
        """
        tmp = path.with_suffix(".npy.tmp")
        with tmp.open("wb") as handle:
            np.save(handle, arr)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    @staticmethod
    def _write_bytes(path: Path, blob: bytes) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        with tmp.open("wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _append_record(self, record: Dict[str, Any]) -> None:
        """Manifest append serialized across processes via flock."""
        self.root.mkdir(parents=True, exist_ok=True)
        lock_path = self.root / "manifest.lock"
        if fcntl is None:  # pragma: no cover - non-POSIX hosts
            append_jsonl(self.manifest_path, [record])
            return
        with lock_path.open("a") as lock:
            fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
            try:
                append_jsonl(self.manifest_path, [record])
            finally:
                fcntl.flock(lock.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------
    # Schema migration.
    # ------------------------------------------------------------------

    @staticmethod
    def _normalize(record: Dict[str, Any]) -> Dict[str, Any]:
        """Bring a manifest record to the current schema, or refuse.

        Version 1 upgrades transparently; an unknown or newer version
        raises :class:`RegistryVersionError` (carrying the version).
        """
        try:
            version = int(record.get("registry_version", 0))
        except (TypeError, ValueError):
            raise RegistryError(
                f"manifest record {record.get('key', '?')} has a malformed "
                f"registry_version {record.get('registry_version')!r}"
            ) from None
        if version == REGISTRY_VERSION:
            return record
        if version == 1:
            return ModelRegistry._upgrade_v1(record)
        raise RegistryVersionError(
            f"manifest record {record.get('key', '?')} has registry_version "
            f"{version}; this reader understands 1..{REGISTRY_VERSION}",
            version=version,
        )

    @staticmethod
    def _upgrade_v1(record: Dict[str, Any]) -> Dict[str, Any]:
        """v1 → v2: inline base64 centroids with flat metadata fields.

        Version 1 stored the centroid payload inline (base64 of the raw
        little-endian float64 bytes) and its metadata flat on the record.
        The upgraded record keeps the payload inline — v1 entries have no
        object directory to point at — and nests the metadata, so every
        downstream consumer sees only the v2 shape.
        """
        payload_fields = {
            "registry_version", "key", "kind", "created",
            "centroids", "centroids_crc", "centroids_shape",
        }
        meta = {
            name: value for name, value in record.items()
            if name not in payload_fields
        }
        try:
            arrays = {
                "centroids": {
                    "inline": record["centroids"],
                    "crc": int(record["centroids_crc"]),
                    "dtype": "<f8",
                    "shape": list(record["centroids_shape"]),
                }
            }
        except KeyError as exc:
            raise RegistryError(
                f"v1 manifest record {record.get('key', '?')} is missing "
                f"field {exc}"
            ) from exc
        return {
            "registry_version": REGISTRY_VERSION,
            "key": record.get("key", ""),
            "kind": record.get("kind", MODEL_KIND),
            "created": record.get("created", 0.0),
            "meta": meta,
            "arrays": arrays,
            "artifacts": {},
        }

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------

    def _manifest_records(self) -> List[Dict[str, Any]]:
        """Current manifest records, newest-save-wins per key.

        Reads with the quarantine+repair truncation policy (the logdb
        contract: appenders must repair), normalizes every record to the
        current schema, and keeps the *last* record per key — re-saving
        identical content is idempotent, and a hypothetical metadata
        amendment wins over its predecessor.
        """
        by_key: Dict[str, Dict[str, Any]] = {}
        for raw in read_jsonl(self.manifest_path, truncated="quarantine",
                              repair=True):
            record = self._normalize(raw)
            key = str(record.get("key", ""))
            if not key:
                raise RegistryError("manifest record without a key")
            by_key[key] = record
        return list(by_key.values())

    def list_entries(self, *, kind: Optional[str] = None) -> List[RegistryEntry]:
        """All entries (optionally one kind), oldest save first."""
        records = self._manifest_records()
        records.sort(key=lambda r: (r.get("created", 0.0), r.get("key", "")))
        return [
            RegistryEntry(self, record) for record in records
            if kind is None or record.get("kind") == kind
        ]

    def load(self, key: str) -> RegistryEntry:
        """The entry stored under ``key`` (exact match)."""
        for record in self._manifest_records():
            if record.get("key") == key:
                return RegistryEntry(self, record)
        known = ", ".join(sorted(r["key"] for r in self._manifest_records()))
        raise RegistryError(
            f"no registry entry with key {key!r}; known keys: {known or '<none>'}"
        )

    def latest(self, *, kind: str = MODEL_KIND,
               **meta_filters: Any) -> RegistryEntry:
        """The most recently saved entry of ``kind`` matching the filters.

        Filters compare against metadata fields:
        ``registry.latest(algorithm="elkan")``.  Like the (fixed)
        :meth:`EvaluationLog.query` semantics, ``field=None`` matches an
        explicit null, not a missing field.
        """
        sentinel = object()
        candidates = [
            entry for entry in self.list_entries(kind=kind)
            if all(
                entry.meta.get(name, sentinel) == expected
                for name, expected in meta_filters.items()
            )
        ]
        if not candidates:
            raise RegistryError(
                f"registry at {self.root} holds no {kind!r} entry matching "
                f"{meta_filters or '{}'}"
            )
        return candidates[-1]

    # ------------------------------------------------------------------
    # Verification.
    # ------------------------------------------------------------------

    def verify(self, key: Optional[str] = None) -> int:
        """Re-digest every payload of one entry (or all) against the manifest.

        Returns the number of payloads checked; raises
        :class:`RegistryCorruptionError` on the first disagreement — the
        byte-flipped-centroid detector the serving-smoke CI job drives.
        """
        entries = [self.load(key)] if key is not None else self.list_entries()
        checked = 0
        for entry in entries:
            for name, spec in sorted(entry.record.get("arrays", {}).items()):
                if "inline" in spec:
                    entry.array(name)  # decodes + CRC-checks in place
                    checked += 1
                    continue
                path = self.object_dir(entry.key) / spec["file"]
                if not path.exists():
                    raise RegistryCorruptionError(
                        f"entry {entry.key}: payload file {spec['file']} is "
                        "missing",
                        key=entry.key, artifact=name,
                    )
                arr = np.load(path, mmap_mode=None)
                actual = array_crc(arr)
                if actual != int(spec["crc"]):
                    raise RegistryCorruptionError(
                        f"entry {entry.key}: payload {name!r} fails its CRC32 "
                        f"digest ({actual:#010x} != {int(spec['crc']):#010x}) "
                        "— the bytes on disk are not the bytes that were "
                        "saved",
                        key=entry.key, artifact=name,
                    )
                if list(arr.shape) != list(spec["shape"]) or str(arr.dtype) != spec["dtype"]:
                    raise RegistryCorruptionError(
                        f"entry {entry.key}: payload {name!r} shape/dtype "
                        f"disagrees with the manifest",
                        key=entry.key, artifact=name,
                    )
                checked += 1
            for name, spec in sorted(entry.record.get("artifacts", {}).items()):
                path = self.object_dir(entry.key) / spec["file"]
                if not path.exists():
                    raise RegistryCorruptionError(
                        f"entry {entry.key}: artifact file {spec['file']} is "
                        "missing",
                        key=entry.key, artifact=name,
                    )
                actual = _sha256_file(path)
                if actual != spec["sha256"]:
                    raise RegistryCorruptionError(
                        f"entry {entry.key}: artifact {name!r} fails its "
                        "SHA-256 digest",
                        key=entry.key, artifact=name,
                    )
                checked += 1
        return checked


__all__ = [
    "KEY_LENGTH",
    "KINDS",
    "MODEL_KIND",
    "REGISTRY_VERSION",
    "SELECTOR_KIND",
    "ModelRegistry",
    "RegistryEntry",
    "array_crc",
    "content_key",
]
