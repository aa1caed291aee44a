"""Repo-specific static analysis: the instrumentation/determinism linter.

The paper's evaluation is only as trustworthy as its counters (Section 7.1 /
Table 3), and the counters are only as trustworthy as the discipline that
every hot path computes distances through the instrumented kernels in
:mod:`repro.common.distance` and draws randomness through
:mod:`repro.common.rng`.  This package enforces those contracts with a small
AST-visitor framework plus a rule set encoding the repo's conventions:

========  ============================  ==================================
rule id   name                          contract enforced
========  ============================  ==================================
R001      uninstrumented-distance       distances go through counted kernels
R002      global-rng                    randomness is explicitly seeded
R003      counter-discipline            counter-taking code charges accesses
R004      float-equality                pruning never compares floats with ==
R005      mutable-default-arg           no shared mutable default arguments
R006      no-swallowed-exception        failures are recorded, never eaten
R007      parallel-safety               callables shipped to a worker
                                        process pickle; no dispatched
                                        callable mutates module globals
R008      transitive-uncounted-distance instrumented code never reaches
                                        uncounted distances via helpers
R009      rng-provenance                RNG use derives from seeded Generator
                                        parameters, never acquired mid-call
R010      transitive-counter-discipline counter-taking code never calls
                                        helpers with uncharged array reads
========  ============================  ==================================

R001–R006 are per-module rules; R007–R010 are *project rules* that run
over the whole-tree conservative call graph and direct-effect table
(:mod:`repro.analysis.graph`, :mod:`repro.analysis.effects`,
:mod:`repro.analysis.interprocedural`).

Findings are silenced inline with ``# repro: ignore[R001]`` (with an
explanatory comment); a suppression that silences nothing fails the run.
See ``docs/static_analysis.md`` for the full workflow.
"""

from repro.analysis.findings import Finding, statement_content_hash
from repro.analysis.reporters import (
    format_findings_json,
    format_findings_sarif,
    format_findings_text,
)
from repro.analysis.rules import Rule, all_rule_ids, get_rules

# Importing the interprocedural module registers R007–R010 as a side
# effect; ALL_RULE_IDS must therefore be computed afterwards.
import repro.analysis.interprocedural  # noqa: F401  (registration import)

from repro.analysis.runner import (
    AnalysisReport,
    UnusedSuppression,
    analyze_paths,
    analyze_source,
    load_project_from_paths,
)

#: every registered rule id, per-module and project rules alike
ALL_RULE_IDS = all_rule_ids()

__all__ = [
    "ALL_RULE_IDS",
    "AnalysisReport",
    "Finding",
    "Rule",
    "UnusedSuppression",
    "analyze_paths",
    "analyze_source",
    "format_findings_json",
    "format_findings_sarif",
    "format_findings_text",
    "get_rules",
    "load_project_from_paths",
    "statement_content_hash",
]
