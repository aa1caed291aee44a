"""Regenerate the committed registry-v1 golden artifact.

Version 1 of the model registry stored the centroid payload *inline*
(base64 of the raw little-endian float64 bytes) with flat metadata fields
on the manifest record.  The current reader must keep loading such
records transparently (mirroring the analysis baseline's v1→v2
migration); ``tests/test_serve.py::TestRegistrySchemaEvolution`` pins
that against this artifact.

Run from the repo root::

    PYTHONPATH=src python tests/golden/generate_registry_v1.py
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from repro.serve.registry import array_crc

OUT_DIR = Path(__file__).resolve().parent / "registry_v1"

#: the deterministic toy model the artifact freezes (k=3, d=4)
CENTROIDS = np.array(
    [
        [0.0, 1.0, 2.0, 3.0],
        [10.0, 11.0, 12.0, 13.0],
        [-5.0, 0.5, 0.25, 8.0],
    ],
    dtype=np.float64,
)


def main() -> None:
    payload = base64.b64encode(
        np.ascontiguousarray(CENTROIDS).astype("<f8").tobytes()
    ).decode("ascii")
    record = {
        "registry_version": 1,
        "key": "v1golden00000001",
        "kind": "model",
        "created": 1700000000.0,
        "algorithm": "lloyd",
        "n": 60,
        "d": 4,
        "k": 3,
        "seed": 0,
        "sse": 42.5,
        "dataset": "toy",
        "centroids": payload,
        "centroids_crc": array_crc(CENTROIDS),
        "centroids_shape": [3, 4],
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    manifest = OUT_DIR / "manifest.jsonl"
    manifest.write_text(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {manifest}")


if __name__ == "__main__":
    main()
