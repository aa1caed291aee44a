"""Execution engines layered above the core algorithms.

``repro.exec.sharded`` runs the assignment phase of the vectorized
algorithms concurrently on shard threads against the fitting process's
own arrays, with deterministic bit-identical merging and configurable
failure policies; ``repro.exec.checkpoint`` persists per-iteration shard
state so interrupted fits resume.  See docs/sharding.md.
"""

from repro.exec.checkpoint import ShardCheckpoint, fit_token
from repro.exec.sharded import (
    SHARD_POLICY_MODES,
    SHARDED_ALGORITHMS,
    DegradedIteration,
    ShardFailurePolicy,
    ShardedElkanKMeans,
    ShardedHamerlyKMeans,
    ShardedLloydKMeans,
    make_sharded_algorithm,
    shard_bounds,
)

__all__ = [
    "DegradedIteration",
    "SHARDED_ALGORITHMS",
    "SHARD_POLICY_MODES",
    "ShardCheckpoint",
    "ShardFailurePolicy",
    "ShardedElkanKMeans",
    "ShardedHamerlyKMeans",
    "ShardedLloydKMeans",
    "fit_token",
    "make_sharded_algorithm",
    "shard_bounds",
]
