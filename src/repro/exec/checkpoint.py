"""Per-iteration shard-state checkpointing for the sharded engine.

Follows the ``repro.eval.logdb`` pattern: an append-only JSONL file whose
records are flushed and fsynced per append (:func:`append_jsonl`), so a
crash after an iteration's record landed never loses it, and a crash
mid-append leaves at worst one truncated final line that
:func:`read_jsonl` quarantines and repairs on the next load.

Resume keying
-------------
A checkpoint record belongs to one *fit*, identified by
:meth:`ShardCheckpoint.fit_key`: algorithm name, shard count, failure
policy mode, the data shape, and CRC32 digests of the data matrix and the
initial centroids.  Equal keys imply the bit-identical trajectory, so
replaying a record's labels is exact.  Each record additionally carries a
CRC32 digest of the centroids the assignment ran against; a digest
mismatch during replay means the stored trajectory diverged from the
running fit (e.g. a hand-edited file) and raises
:class:`~repro.common.exceptions.CheckpointError` instead of silently
producing a wrong model.

What a record stores — and what it deliberately does not
--------------------------------------------------------
One record per completed fit iteration: the full post-assignment label
vector, the absolute post-assignment counter snapshot, the per-shard
recovery state, and any degraded-iteration annotation.  Bound arrays
(Elkan's ``(n, k)`` lower-bound matrix) are *not* stored: on resume the
engine replays labels and counters and then reseeds bounds to the sound
conservative state (``ub = inf``, ``lb = 0``) — the bound-based
algorithms stay exact under any sound bounds, so the resumed fit
reproduces the identical final model (labels, centroids, iteration
count) while only the post-resume *pruning-counter* trace may differ
from the uninterrupted run (see docs/sharding.md).
"""

from __future__ import annotations

import base64
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.common.exceptions import CheckpointError
from repro.datasets.loaders import append_jsonl, read_jsonl

PathLike = Union[str, Path]


def array_crc(arr: np.ndarray) -> int:
    """CRC32 digest of an array's contents (dtype-stable, deterministic)."""
    return zlib.crc32(np.ascontiguousarray(arr).tobytes()) & 0xFFFFFFFF


def fit_token(
    algorithm: str,
    shards: int,
    policy_mode: str,
    X: np.ndarray,
    initial_centroids: np.ndarray,
) -> str:
    """Identity of one sharded fit; equal tokens replay bit-identically.

    A pure content digest of the fit's inputs — never RNG or time — so an
    interrupted fit re-run with the same inputs finds its checkpoint.
    """
    n, d = X.shape
    k = len(initial_centroids)
    return (
        f"{algorithm}:shards{shards}:{policy_mode}:n{n}:d{d}:k{k}"
        f":x{array_crc(X):08x}:c{array_crc(initial_centroids):08x}"
    )


def encode_labels(labels: np.ndarray) -> str:
    """Compact ASCII encoding of a label vector (int64 little-endian)."""
    return base64.b64encode(
        labels.astype("<i8", copy=False).tobytes()
    ).decode("ascii")


def decode_labels(blob: str, n: int) -> np.ndarray:
    raw = base64.b64decode(blob.encode("ascii"))
    labels = np.frombuffer(raw, dtype="<i8")
    if len(labels) != n:
        raise CheckpointError(
            f"checkpointed label vector has {len(labels)} entries, fit has {n}"
        )
    return labels.astype(np.intp)


class ShardCheckpoint:
    """Fsync'd JSONL store of per-iteration shard-fit state."""

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)

    # ------------------------------------------------------------------
    # Keying.
    # ------------------------------------------------------------------

    #: identity of one sharded fit (module-level :func:`fit_token`), kept
    #: as a static method for the established checkpoint-record schema
    fit_key = staticmethod(fit_token)

    # ------------------------------------------------------------------
    # I/O.
    # ------------------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one iteration record (flush + fsync)."""
        append_jsonl(self.path, [record])

    def load(self, fit_key: str) -> Dict[int, Dict[str, Any]]:
        """Replayable records for ``fit_key``: the contiguous prefix.

        Reads with the quarantine-and-repair truncation policy (a crash
        mid-append must not poison later appends), keeps the *last* record
        per iteration (a resumed fit re-appends its live iterations), and
        returns only the contiguous run ``0..r`` — a hole means the
        records after it belong to a trajectory this fit cannot reach by
        replay, so they are ignored rather than trusted.
        """
        by_iteration: Dict[int, Dict[str, Any]] = {}
        for record in read_jsonl(self.path, truncated="quarantine", repair=True):
            if record.get("fit_key") != fit_key:
                continue
            try:
                iteration = int(record["iteration"])
            except (KeyError, TypeError, ValueError):
                continue
            by_iteration[iteration] = record
        contiguous: Dict[int, Dict[str, Any]] = {}
        t = 0
        while t in by_iteration:
            contiguous[t] = by_iteration[t]
            t += 1
        return contiguous


def validate_record(
    record: Dict[str, Any], *, n: int, centroid_digest: int
) -> np.ndarray:
    """Check one replay record against the running fit; return its labels.

    The digest is taken over the centroids the current fit is about to
    assign against; a mismatch means the stored trajectory and the live
    one disagree and replay must stop loudly.
    """
    stored = record.get("centroid_crc")
    if stored != centroid_digest:
        raise CheckpointError(
            f"checkpoint record for iteration {record.get('iteration')} was "
            f"taken against different centroids (digest {stored} != "
            f"{centroid_digest}); refusing to replay a diverged trajectory"
        )
    return decode_labels(record["labels"], n)


def shard_state_from_record(record: Dict[str, Any]) -> Optional[List[bool]]:
    raw = record.get("has_state")
    if raw is None:
        return None
    return [bool(flag) for flag in raw]
