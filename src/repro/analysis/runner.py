"""Walk files, run rules (per-module and whole-project), apply
suppressions, and audit suppression usage.

Per-module rules (R001–R006) run file by file.  When any
:class:`~repro.analysis.rules.ProjectRule` (R007–R010) is active, the
parsed modules are additionally assembled into a
:class:`~repro.analysis.graph.Project`, the conservative call graph and
direct-effect table are built once, and each project rule runs over them.
Project-rule findings carry ordinary (path, line) locations, so the same
inline suppressions apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import RULES, ParsedModule, ProjectRule, Rule, get_rules
from repro.analysis.suppressions import (
    ALL_RULES,
    is_suppressed,
    parse_suppression_records,
    parse_suppressions,
)

#: directory names never descended into
_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "build", "dist", ".eggs"}


@dataclass(frozen=True)
class UnusedSuppression:
    """A ``# repro: ignore[...]`` comment that silenced nothing."""

    path: str
    comment_line: int
    target_line: int
    rule_ids: Tuple[str, ...]  # ("*",) for a bare ignore

    def format(self) -> str:
        listed = ", ".join(self.rule_ids)
        return (
            f"{self.path}:{self.comment_line}: unused suppression [{listed}] "
            f"(no such finding on line {self.target_line})"
        )


@dataclass
class AnalysisReport:
    """Outcome of one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    parse_errors: List[str] = field(default_factory=list)
    unused_suppressions: List[UnusedSuppression] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No findings, no parse errors and no unused suppressions."""
        return not (self.findings or self.parse_errors or self.unused_suppressions)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files pass through)."""
    for path in paths:
        path = Path(path)
        if path.is_file():
            if path.suffix == ".py":
                yield path
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    yield candidate


def _relative_posix(path: Path, root: Optional[Path]) -> str:
    path = Path(path)
    if root is not None:
        try:
            path = path.resolve().relative_to(Path(root).resolve())
        except ValueError:
            pass
    return path.as_posix()


def _split_rules(
    rules: Optional[Sequence[Rule]],
) -> Tuple[List[Rule], List[ProjectRule]]:
    active = list(rules) if rules is not None else get_rules()
    per_module = [rule for rule in active if not isinstance(rule, ProjectRule)]
    project = [rule for rule in active if isinstance(rule, ProjectRule)]
    return per_module, project


def _run_project_rules(
    rules: Sequence[ProjectRule],
    modules: Dict[str, ParsedModule],
):
    """Build the project substrate and run every project rule over it."""
    from repro.analysis.effects import compute_direct_effects
    from repro.analysis.graph import build_call_graph, load_project

    project = load_project(modules)
    graph = build_call_graph(project)
    direct = compute_direct_effects(project)
    for rule in rules:
        for finding in rule.check_project(project, graph, direct):
            yield finding


def analyze_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Analyze one in-memory module; ``path`` drives rule scoping.

    Inline suppressions are honored.  Project rules (R007–R010) run
    against a single-module project, so only intra-module reachability is
    visible here — use :func:`analyze_paths` for cross-module analysis.
    Raises ``SyntaxError`` on unparsable source.
    """
    module = ParsedModule.parse(path, source)
    suppressions = parse_suppressions(source)
    per_module, project_rules = _split_rules(rules)
    findings: List[Finding] = []
    for rule in per_module:
        if not rule.applies_to(path):
            continue
        for finding in rule.check(module):
            if not is_suppressed(suppressions, finding.line, finding.rule_id):
                findings.append(finding)
    if project_rules:
        for finding in _run_project_rules(project_rules, {path: module}):
            if not is_suppressed(suppressions, finding.line, finding.rule_id):
                findings.append(finding)
    findings.sort()
    return findings


def analyze_paths(
    paths: Sequence[Path],
    *,
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> AnalysisReport:
    """Analyze every python file under ``paths`` and aggregate a report."""
    per_module, project_rules = _split_rules(rules)
    report = AnalysisReport()
    collected: List[Finding] = []
    modules: Dict[str, ParsedModule] = {}
    sources: Dict[str, str] = {}
    suppression_maps: Dict[str, Dict[int, FrozenSet[str]]] = {}
    #: (path, target_line, rule_id) triples that silenced a finding
    used: Set[Tuple[str, int, str]] = set()

    def mark_used(path: str, line: int, rule_id: str) -> None:
        rules_on_line = suppression_maps.get(path, {}).get(line, frozenset())
        if rules_on_line == ALL_RULES or "*" in rules_on_line:
            used.add((path, line, "*"))
        if rule_id.upper() in rules_on_line:
            used.add((path, line, rule_id.upper()))

    for file_path in iter_python_files(paths):
        relpath = _relative_posix(file_path, root)
        try:
            source = file_path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            report.parse_errors.append(f"{relpath}: unreadable ({exc})")
            continue
        report.files_scanned += 1
        try:
            module = ParsedModule.parse(relpath, source)
        except SyntaxError as exc:
            report.parse_errors.append(f"{relpath}:{exc.lineno}: {exc.msg}")
            continue
        modules[relpath] = module
        sources[relpath] = source
        suppression_maps[relpath] = parse_suppressions(source)
        for rule in per_module:
            if not rule.applies_to(relpath):
                continue
            for finding in rule.check(module):
                if is_suppressed(
                    suppression_maps[relpath], finding.line, finding.rule_id
                ):
                    report.suppressed += 1
                    mark_used(relpath, finding.line, finding.rule_id)
                else:
                    collected.append(finding)

    if project_rules and modules:
        for finding in _run_project_rules(project_rules, modules):
            suppressions = suppression_maps.get(finding.path, {})
            if is_suppressed(suppressions, finding.line, finding.rule_id):
                report.suppressed += 1
                mark_used(finding.path, finding.line, finding.rule_id)
            else:
                collected.append(finding)

    # Suppression audit: comments that silenced nothing are stale.  A
    # registered rule that did not run cannot show its suppression is used,
    # so its ids are not judged; unknown ids always are.
    skipped = set(RULES) - {rule.rule_id for rule in (*per_module, *project_rules)}
    for relpath in sorted(sources):
        for record in parse_suppression_records(sources[relpath]):
            if record.rules == ALL_RULES:
                if (relpath, record.target_line, "*") not in used:
                    report.unused_suppressions.append(
                        UnusedSuppression(
                            relpath, record.comment_line, record.target_line, ("*",)
                        )
                    )
                continue
            stale = tuple(
                sorted(
                    rule_id
                    for rule_id in record.rules - skipped
                    if (relpath, record.target_line, rule_id) not in used
                )
            )
            if stale:
                report.unused_suppressions.append(
                    UnusedSuppression(
                        relpath, record.comment_line, record.target_line, stale
                    )
                )

    collected.sort()
    report.findings = collected
    return report


def load_project_from_paths(
    paths: Sequence[Path], *, root: Optional[Path] = None
):
    """Parse ``paths`` into the (Project, CallGraph, DirectEffects)
    substrate the project rules run over."""
    from repro.analysis.effects import compute_direct_effects
    from repro.analysis.graph import build_call_graph, load_project

    modules: Dict[str, ParsedModule] = {}
    for file_path in iter_python_files(paths):
        relpath = _relative_posix(file_path, root)
        try:
            source = file_path.read_text()
            modules[relpath] = ParsedModule.parse(relpath, source)
        except (OSError, UnicodeDecodeError, SyntaxError):
            continue
    project = load_project(modules)
    graph = build_call_graph(project)
    return project, graph, compute_direct_effects(project)
