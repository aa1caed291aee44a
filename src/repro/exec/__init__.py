"""Execution engines layered above the core algorithms.

``repro.exec.sharded`` runs vectorized Lloyd's assignment phase
concurrently on shard threads against the fitting process's own arrays,
with deterministic bit-identical merging; a failing shard fails the fit
exactly as the single-process fit would.  See docs/sharding.md.
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
