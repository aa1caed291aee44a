"""Execution engines layered above the core algorithms.

``repro.exec.sharded`` runs vectorized Lloyd's row work — k-means++
D² updates, assignment and the ``rescan`` scatter-add — concurrently on
shard threads against the fitting process's own arrays, split so the fit
stays bit-identical; a failing shard fails the fit exactly as the
single-process fit would.  See docs/sharding.md.
"""

from repro.exec.sharded import (
    SHARDED_ALGORITHMS,
    ShardedLloydKMeans,
    shard_bounds,
)

__all__ = [
    "SHARDED_ALGORITHMS",
    "ShardedLloydKMeans",
    "shard_bounds",
]
