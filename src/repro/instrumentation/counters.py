"""Counters for the performance metrics evaluated in the paper.

The conventions follow Section 7.1 ("Measurement") and Table 3:

``distance_computations``
    Number of full ``d``-dimensional Euclidean distance evaluations,
    counting point-to-centroid, pivot-to-centroid, and centroid-to-centroid
    distances alike.
``point_accesses``
    Number of times a stored data-point vector is read (assignment scans and
    non-incremental refinement both read points).
``node_accesses``
    Number of index nodes polled or traversed.
``bound_accesses``
    Number of stored bounds read for a pruning test.
``bound_updates``
    Number of stored bounds written (tightened or drift-corrected).

Counters are plain integers on purpose: the inner loops of the sequential
algorithms bump them millions of times, so anything heavier (locks, getattr
indirection) would distort the very measurements the framework exists to
take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class CounterSnapshot:
    """Immutable copy of counter values at a point in time."""

    distance_computations: int = 0
    point_accesses: int = 0
    node_accesses: int = 0
    bound_accesses: int = 0
    bound_updates: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "distance_computations": self.distance_computations,
            "point_accesses": self.point_accesses,
            "node_accesses": self.node_accesses,
            "bound_accesses": self.bound_accesses,
            "bound_updates": self.bound_updates,
        }

    def __sub__(self, other: "CounterSnapshot") -> "CounterSnapshot":
        return CounterSnapshot(
            self.distance_computations - other.distance_computations,
            self.point_accesses - other.point_accesses,
            self.node_accesses - other.node_accesses,
            self.bound_accesses - other.bound_accesses,
            self.bound_updates - other.bound_updates,
        )


@dataclass
class OpCounters:
    """Mutable operation counters threaded through algorithm inner loops."""

    distance_computations: int = 0
    point_accesses: int = 0
    node_accesses: int = 0
    bound_accesses: int = 0
    bound_updates: int = 0
    footprint_floats: int = 0

    def add_distances(self, count: int = 1) -> None:
        self.distance_computations += count

    def add_point_accesses(self, count: int = 1) -> None:
        self.point_accesses += count

    def add_node_accesses(self, count: int = 1) -> None:
        self.node_accesses += count

    def add_bound_accesses(self, count: int = 1) -> None:
        self.bound_accesses += count

    def add_bound_updates(self, count: int = 1) -> None:
        self.bound_updates += count

    def record_footprint(self, floats: int) -> None:
        """Record the peak auxiliary memory (in float64 slots) of a method.

        The paper's Figure 10 compares the *extra* memory each method needs
        on top of the dataset itself: bound arrays for sequential methods,
        node storage for index-based methods.
        """
        self.footprint_floats = max(self.footprint_floats, int(floats))

    def reset(self) -> None:
        self.distance_computations = 0
        self.point_accesses = 0
        self.node_accesses = 0
        self.bound_accesses = 0
        self.bound_updates = 0
        self.footprint_floats = 0

    def snapshot(self) -> CounterSnapshot:
        return CounterSnapshot(
            self.distance_computations,
            self.point_accesses,
            self.node_accesses,
            self.bound_accesses,
            self.bound_updates,
        )

    def as_dict(self) -> Dict[str, int]:
        d = self.snapshot().as_dict()
        d["footprint_floats"] = self.footprint_floats
        return d

    def merge(self, other: "OpCounters") -> None:
        """Accumulate another counter set into this one."""
        self.distance_computations += other.distance_computations
        self.point_accesses += other.point_accesses
        self.node_accesses += other.node_accesses
        self.bound_accesses += other.bound_accesses
        self.bound_updates += other.bound_updates
        self.footprint_floats = max(self.footprint_floats, other.footprint_floats)
