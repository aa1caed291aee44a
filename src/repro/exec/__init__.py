"""Execution engines layered above the core algorithms.

``repro.exec.sharded`` runs the assignment phase of the vectorized
algorithms concurrently on shard threads against the fitting process's
own arrays, with deterministic bit-identical merging; a failing shard
fails the fit exactly as the single-process fit would.  See
docs/sharding.md.
"""

from repro.exec.sharded import (
    SHARDED_ALGORITHMS,
    ShardedElkanKMeans,
    ShardedHamerlyKMeans,
    ShardedLloydKMeans,
    make_sharded_algorithm,
    shard_bounds,
)

__all__ = [
    "SHARDED_ALGORITHMS",
    "ShardedElkanKMeans",
    "ShardedHamerlyKMeans",
    "ShardedLloydKMeans",
    "make_sharded_algorithm",
    "shard_bounds",
]
