"""Operation counting and phase timing.

The paper's central methodological point is that *distance computations alone
do not predict running time* — data accesses, bound accesses, and bound
updates matter just as much (Section 7.2.2, Figure 11, Table 3).  Every
algorithm in this package therefore threads an :class:`OpCounters` instance
through its inner loops, and the harness reports the full breakdown.
"""

from repro.instrumentation.counters import CounterSnapshot, OpCounters
from repro.instrumentation.timers import PhaseTimer

__all__ = ["OpCounters", "CounterSnapshot", "PhaseTimer"]
