"""Project rules R007–R010: effects lifted through the call graph.

These rules consume the whole-project substrate (:mod:`.graph`,
:mod:`.effects`).  A worker that mutates module state or an uncounted
kernel behind a helper call cannot be seen one file at a time.

Reachability semantics (documented in docs/static_analysis.md):

* R007 traverses **direct + fuzzy** edges — a may-reach question must
  not miss a mutation behind duck-typed dispatch, so it accepts the
  fuzzy tier's over-approximation.
* R008 and R010 traverse **direct** edges only — they lift R001 and R003
  over code the author actually wired together; fuzzy edges would drown
  them in every same-named method in the project.
* R009 is intraprocedural dataflow (provenance inside one function); it
  lives here because it shares the project walk.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.effects import MUTATES_GLOBAL, DirectEffects, body_nodes, root_name
from repro.analysis.findings import Finding
from repro.analysis.graph import CallGraph, FunctionInfo, Project, resolve_call
from repro.analysis.rules import (
    CounterDisciplineRule,
    ParsedModule,
    ProjectRule,
    _in_instrumented_scope,
    register,
    resolve_name,
)
from repro.analysis.suppressions import is_suppressed, parse_suppressions

#: resolved-name suffixes recognized as pool-dispatch entry points
POOL_DISPATCH_SUFFIXES = ("supervised_map",)


def _module_finding(
    rule, module: ParsedModule, line: int, col: int, message: str
) -> Finding:
    return Finding(
        path=module.path,
        line=line,
        col=col + 1,
        rule_id=rule.rule_id,
        message=message,
        snippet=module.snippet(line),
    )


def _short(qualname: str) -> str:
    """Trim a dotted qualname for messages: keep the last three segments."""
    parts = qualname.split(".")
    return ".".join(parts[-3:]) if len(parts) > 3 else qualname


def _format_chain(chain: Sequence[str]) -> str:
    return " -> ".join(_short(q) for q in chain)


# ----------------------------------------------------------------------
# R007 — parallel-safety.
# ----------------------------------------------------------------------


@register
class ParallelSafetyRule(ProjectRule):
    """A callable shipped to a worker process must pickle, and nothing a
    dispatched callable reaches may mutate module-global state.

    Dispatch sites are the pool entry point (:data:`POOL_DISPATCH_SUFFIXES`,
    :func:`repro.eval.runtime.supervised_map`) and ``Process(target=...)``
    / ``Thread(target=...)`` constructions.  The first two ship the
    callable to another process: a lambda or nested closure cannot pickle
    by reference, and a module global mutated three frames down is lost
    when the worker exits (fork) or never shared (spawn).  A thread target
    pickles nothing, so it may be a lambda or a closure, but it shares the
    interpreter's memory and a reachable global mutation races (the
    serving micro-batcher's worker and the sharded engine's shard threads
    are thread targets).  Every dispatched callable is walked over the
    conservative call graph, direct **and** fuzzy edges; a lambda thread
    target is walked from the functions its body calls.
    """

    rule_id = "R007"
    name = "parallel-safety"
    description = (
        "pool-dispatched callable is unpicklable or transitively mutates "
        "module-global state"
    )

    def check_project(
        self, project: Project, graph: CallGraph, direct: DirectEffects
    ) -> Iterator[Finding]:
        reported: Set[Tuple[str, str]] = set()
        for site in _dispatch_sites(project):
            module = project.modules[site.module]
            if site.kind == "lambda":
                yield _module_finding(
                    self, module, site.line, site.col,
                    "lambda shipped to a worker process cannot pickle; "
                    "use a module-level function",
                )
                continue
            if site.kind == "nested":
                yield _module_finding(
                    self, module, site.line, site.col,
                    f"nested function {site.root_name!r} shipped to a worker "
                    "process is an unpicklable closure; hoist it to module "
                    "level",
                )
                # closures still get the reachability check below
            parents = graph.reachable([site.root], fuzzy=True)
            for reached in sorted(parents):
                if MUTATES_GLOBAL not in direct.get(reached):
                    continue
                if (site.root, reached) in reported:
                    continue
                reported.add((site.root, reached))
                info = project.functions[reached]
                chain = graph.chain(parents, reached)
                yield _module_finding(
                    self,
                    project.modules[info.module],
                    info.lineno,
                    0,
                    f"{info.name!r} mutates module-global state and is "
                    f"reachable from the dispatch at {site.where} "
                    f"(chain: {_format_chain(chain)}); a worker process "
                    "loses the mutation and a thread races on it",
                )


class _DispatchSite:
    def __init__(
        self,
        module: str,
        line: int,
        col: int,
        kind: str,
        root: Optional[str],
        root_name: str,
        where: str,
    ) -> None:
        self.module = module
        self.line = line
        self.col = col
        self.kind = kind  # "function" | "lambda" | "nested"
        self.root = root  # resolved qualname of the dispatched callable
        self.root_name = root_name
        self.where = where


def _dispatch_sites(project: Project) -> List[_DispatchSite]:
    """Every dispatch call site with its resolved callable.

    ``kind`` is "lambda" or "nested" only where the callable is shipped to
    another process and so must pickle; a thread target of either shape
    is a plain "function" site (a lambda yields one per function its body
    calls).
    """
    sites: List[_DispatchSite] = []
    for module_name in sorted(project.modules):
        module = project.modules[module_name]
        # Deepest containers first: a call inside a nested function must be
        # attributed to that function (so name resolution sees its locals),
        # not to the enclosing def or the module walk that also reaches it.
        containers: List[Tuple[Optional[FunctionInfo], ast.AST]] = [
            (info, info.node)
            for info in sorted(
                project.functions_in_module(module_name),
                key=lambda i: (-i.qualname.count(".<locals>."), i.qualname),
            )
        ]
        containers.append((None, module.tree))
        seen_calls: Set[int] = set()
        for info, tree in containers:
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call) or id(node) in seen_calls:
                    continue
                dispatched = _dispatched_callable(module, node)
                if dispatched is None:
                    continue
                seen_calls.add(id(node))
                target_expr, pickled = dispatched
                where = f"{module.path}:{node.lineno}"
                if isinstance(target_expr, ast.Lambda):
                    if pickled:
                        sites.append(
                            _DispatchSite(
                                module_name, node.lineno, node.col_offset,
                                "lambda", None, "<lambda>", where,
                            )
                        )
                        continue
                    for callee in _lambda_callees(
                        project, module_name, info, target_expr
                    ):
                        sites.append(
                            _DispatchSite(
                                module_name, node.lineno, node.col_offset,
                                "function", callee,
                                project.functions[callee].name, where,
                            )
                        )
                    continue
                root, kind, callable_name = _resolve_callable(
                    project, module_name, info, target_expr
                )
                if kind == "skip":
                    continue
                if not pickled:
                    kind = "function"
                sites.append(
                    _DispatchSite(
                        module_name, node.lineno, node.col_offset,
                        kind, root, callable_name, where,
                    )
                )
    return sites


def _dispatched_callable(
    module: ParsedModule, call: ast.Call
) -> Optional[Tuple[ast.AST, bool]]:
    """The callable a dispatch call hands over, and whether it is shipped
    to another process (and so must pickle); None for any other call."""
    resolved = resolve_name(module.aliases, call.func)
    name = None
    if resolved is not None:
        name = resolved.rsplit(".", 1)[-1]
    elif isinstance(call.func, ast.Attribute):
        name = call.func.attr
    elif isinstance(call.func, ast.Name):
        name = call.func.id
    if name in POOL_DISPATCH_SUFFIXES:
        if call.args:
            return call.args[0], True
        for keyword in call.keywords:
            if keyword.arg == "fn":
                return keyword.value, True
        return None
    if name in ("Process", "Thread"):
        for keyword in call.keywords:
            if keyword.arg == "target":
                return keyword.value, name == "Process"
    return None


def _lambda_callees(
    project: Project,
    module_name: str,
    enclosing: Optional[FunctionInfo],
    expr: ast.Lambda,
) -> List[str]:
    """Project functions a lambda's body calls (direct and fuzzy)."""
    callees: Set[str] = set()
    for node in ast.walk(expr.body):
        if isinstance(node, ast.Call):
            for callee, _tier in resolve_call(project, module_name, enclosing, node):
                callees.add(callee)
    return sorted(callees)


def _resolve_callable(
    project: Project,
    module_name: str,
    enclosing: Optional[FunctionInfo],
    expr: ast.AST,
) -> Tuple[Optional[str], str, str]:
    """Resolve a dispatched callable expression to (qualname, kind, name)."""
    module = project.modules[module_name]
    if isinstance(expr, ast.Name):
        if enclosing is not None:
            nested = f"{enclosing.qualname}.<locals>.{expr.id}"
            if nested in project.functions:
                return nested, "nested", expr.id
        dotted = resolve_name(module.aliases, expr)
        for candidate in filter(None, (dotted, f"{module_name}.{expr.id}")):
            resolved = project.resolve_dotted(candidate)
            if resolved is not None:
                kind = (
                    "nested" if project.functions[resolved].is_nested else "function"
                )
                return resolved, kind, expr.id
        return None, "skip", expr.id  # a parameter / external callable
    if isinstance(expr, ast.Attribute):
        dotted = resolve_name(module.aliases, expr)
        if dotted is not None:
            resolved = project.resolve_dotted(dotted)
            if resolved is not None:
                return resolved, "function", expr.attr
        return None, "skip", expr.attr
    return None, "skip", "<expr>"


# ----------------------------------------------------------------------
# R008 — transitive uncounted distance.
# ----------------------------------------------------------------------


@register
class TransitiveUncountedDistanceRule(ProjectRule):
    """R001 lifted through the call graph: a function in the instrumented
    scope must not reach distance arithmetic outside the counted kernels
    of :mod:`repro.common.distance` through a helper call.

    R001 reports raw distance arithmetic at its own line, but only inside
    the instrumented scope.  This rule walks each in-scope function's
    direct call edges (into any module) and flags the function when a
    callee carries the ``uncounted-distance`` effect — so a helper in
    ``repro/common/`` or one frame down in the same module cannot hide an
    uncounted kernel.  Only inherited sites are reported, at the caller's
    definition with a witness chain; direct sites are R001's findings.
    """

    rule_id = "R008"
    name = "transitive-uncounted-distance"
    description = (
        "instrumented function reaches raw distance arithmetic through a "
        "helper call, outside the counted kernels in repro.common.distance"
    )

    def check_project(
        self, project: Project, graph: CallGraph, direct: DirectEffects
    ) -> Iterator[Finding]:
        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            if not _in_instrumented_scope(info.path):
                continue
            if direct.distance_lines.get(qualname):
                continue  # R001 reports these at the arithmetic itself
            parents = graph.reachable([qualname], fuzzy=False)
            witnesses = [
                reached
                for reached in sorted(parents)
                if direct.distance_lines.get(reached)
            ]
            if not witnesses:
                continue
            witness = witnesses[0]
            line = direct.distance_lines[witness][0]
            chain = graph.chain(parents, witness)
            yield _module_finding(
                self, project.modules[info.module], info.lineno, 0,
                f"{info.name!r} reaches uncounted distance arithmetic "
                f"via {_format_chain(chain)} "
                f"({project.functions[witness].path}:{line}); "
                "route it through repro.common.distance",
            )


# ----------------------------------------------------------------------
# R009 — rng-provenance.
# ----------------------------------------------------------------------


#: numpy Generator drawing methods (the common surface)
RNG_METHODS = frozenset(
    {
        "integers", "random", "choice", "shuffle", "permutation", "normal",
        "uniform", "standard_normal", "exponential", "poisson", "geometric",
        "binomial", "multivariate_normal", "spawn",
    }
)

#: local/attribute names treated as generator-shaped receivers
_RNG_NAME_FRAGMENTS = ("rng", "random_state", "generator")


def is_rng_shaped_name(name: str) -> bool:
    lowered = name.lower()
    return any(fragment in lowered for fragment in _RNG_NAME_FRAGMENTS)


@register
class RngProvenanceRule(ProjectRule):
    """Every RNG use must trace back to an explicitly passed seed or
    Generator parameter.

    R002 bans the process-global RNG; R009 closes the remaining leaks:
    a generator seeded from a hard-coded constant (the caller can no
    longer control the stream), a generator acquired from *nothing*
    (``ensure_rng()`` with no argument), and draws from a module-level
    generator object.  Provenance is a small forward dataflow inside each
    function: parameters (and ``self``) are provenance-carrying roots;
    locals assigned from provenance-carrying expressions inherit it.
    """

    rule_id = "R009"
    name = "rng-provenance"
    description = (
        "RNG acquired or drawn from something other than an explicitly "
        "passed seed/Generator parameter"
    )

    _ACQUIRERS = ("ensure_rng", "spawn_rng", "default_rng")

    def check_project(
        self, project: Project, graph: CallGraph, direct: DirectEffects
    ) -> Iterator[Finding]:
        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            if info.path.endswith("repro/common/rng.py"):
                continue
            module = project.modules[info.module]
            yield from self._check_function(module, info)

    def _check_function(
        self, module: ParsedModule, info: FunctionInfo
    ) -> Iterator[Finding]:
        ok = _provenance_locals(module, info)
        for node in body_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            acquirer = self._acquisition_name(module, node)
            if acquirer is not None:
                yield from self._check_acquisition(module, info, node, acquirer, ok)
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in RNG_METHODS:
                receiver = func.value
                if not _is_rng_shaped(receiver):
                    continue
                root = root_name(receiver)
                if root is None or root in ok:
                    continue
                yield _module_finding(
                    self, module, node.lineno, node.col_offset,
                    f"RNG draw .{func.attr}() on {root!r}, which does not "
                    "derive from a passed seed/Generator parameter; thread "
                    "the generator through explicitly",
                )

    def _acquisition_name(
        self, module: ParsedModule, call: ast.Call
    ) -> Optional[str]:
        resolved = resolve_name(module.aliases, call.func)
        if resolved is not None:
            tail = resolved.rsplit(".", 1)[-1]
            if tail in self._ACQUIRERS and (
                tail != "default_rng" or resolved.startswith("numpy.random")
            ):
                return tail
        elif isinstance(call.func, ast.Name) and call.func.id in (
            "ensure_rng", "spawn_rng",
        ):
            return call.func.id
        return None

    def _check_acquisition(
        self,
        module: ParsedModule,
        info: FunctionInfo,
        call: ast.Call,
        acquirer: str,
        ok: Set[str],
    ) -> Iterator[Finding]:
        if not call.args and not call.keywords:
            if acquirer == "default_rng":
                return  # unseeded default_rng() is R002's finding already
            yield _module_finding(
                self, module, call.lineno, call.col_offset,
                f"{acquirer}() acquires a generator from nothing; accept and "
                "pass through an explicit seed/Generator parameter",
            )
            return
        seed_expr = call.args[0] if call.args else call.keywords[0].value
        if isinstance(seed_expr, ast.Constant) and seed_expr.value is not None:
            yield _module_finding(
                self, module, call.lineno, call.col_offset,
                f"{acquirer}({seed_expr.value!r}) hard-codes the seed; the "
                "stream is no longer caller-controlled — accept a seed "
                "parameter instead",
            )
            return
        roots = _name_roots(seed_expr)
        bad = sorted(root for root in roots if root not in ok)
        if bad:
            yield _module_finding(
                self, module, call.lineno, call.col_offset,
                f"{acquirer}(...) seeded from {', '.join(repr(b) for b in bad)}"
                ", which does not derive from a passed seed/Generator "
                "parameter",
            )


def _is_rng_shaped(receiver: ast.AST) -> bool:
    node = receiver
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and is_rng_shaped_name(node.attr):
            return True
        node = node.value
    return isinstance(node, ast.Name) and is_rng_shaped_name(node.id)


def _name_roots(expr: ast.AST) -> Set[str]:
    """Base names an expression's *data* depends on (call args, not the
    callee itself)."""
    roots: Set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            for arg in node.args:
                visit(arg)
            for keyword in node.keywords:
                visit(keyword.value)
            return
        if isinstance(node, ast.Name):
            roots.add(node.id)
            return
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            root = root_name(node)
            if root is not None:
                roots.add(root)
            if isinstance(node, ast.Subscript):
                visit(node.slice)
            return
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(expr)
    return roots


def _provenance_locals(module: ParsedModule, info: FunctionInfo) -> Set[str]:
    """Names carrying seed/Generator provenance inside one function:
    parameters, then locals derived from them (forward fixpoint)."""
    ok: Set[str] = set(info.param_names)
    changed = True
    passes = 0
    while changed and passes < 8:
        changed = False
        passes += 1
        for node in body_nodes(info.node):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets, value = [node.target], node.iter
            if value is None:
                continue
            roots = _name_roots(value)
            if not roots or not roots <= ok:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and leaf.id not in ok:
                        ok.add(leaf.id)
                        changed = True
    return ok


# ----------------------------------------------------------------------
# R010 — transitive counter discipline.
# ----------------------------------------------------------------------


@register
class TransitiveCounterDisciplineRule(ProjectRule):
    """R003 lifted through the call graph: a counter-accepting function
    must not delegate point/bound reads to helpers that neither charge
    accesses nor accept counters themselves.

    Per-file R003 sees a counter-accepting function's *own* reads; this
    rule walks its direct call edges (within the instrumented scope,
    stopping at callees that accept counters — those are R003's problem)
    and flags reachable helpers that read ``self.X`` / bound arrays
    without charging.  The finding lands on the counter-accepting
    function's definition line, naming the helper and the uncharged read.
    """

    rule_id = "R010"
    name = "transitive-counter-discipline"
    description = (
        "counter-accepting function delegates point/bound reads to a "
        "helper that neither charges accesses nor accepts counters"
    )

    def check_project(
        self, project: Project, graph: CallGraph, direct: DirectEffects
    ) -> Iterator[Finding]:
        suppressions_cache: Dict[str, Mapping[int, FrozenSet[str]]] = {}
        uncharged_cache: Dict[str, Optional[Tuple[str, int]]] = {}

        def uncharged_read(qualname: str) -> Optional[Tuple[str, int]]:
            """(kind, line) of the first uncharged read in a helper."""
            if qualname in uncharged_cache:
                return uncharged_cache[qualname]
            info = project.functions[qualname]
            module = project.modules[info.module]
            if info.module not in suppressions_cache:
                suppressions_cache[info.module] = parse_suppressions(module.source)
            suppressed = suppressions_cache[info.module]
            points, bounds, charges_p, charges_b = (
                CounterDisciplineRule.scan_reads(info.node)
            )
            result: Optional[Tuple[str, int]] = None
            if not charges_p:
                for read in points:
                    if not _read_suppressed(suppressed, read.lineno):
                        result = ("point", read.lineno)
                        break
            if result is None and not charges_b:
                for read in bounds:
                    if not _read_suppressed(suppressed, read.lineno):
                        result = ("bound", read.lineno)
                        break
            uncharged_cache[qualname] = result
            return result

        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            if not _in_instrumented_scope(info.path):
                continue
            node = info.node
            if not (
                CounterDisciplineRule.accepts_counters(node)
                or CounterDisciplineRule.uses_self_counters(node)
            ):
                continue
            module = project.modules[info.module]
            # BFS over direct edges, stopping at counter-accepting callees.
            parents: Dict[str, Optional[str]] = {qualname: None}
            frontier = [qualname]
            while frontier:
                nxt: List[str] = []
                for current in frontier:
                    for callee in graph.callees(current, fuzzy=False):
                        if callee in parents:
                            continue
                        callee_info = project.functions[callee]
                        if not _in_instrumented_scope(callee_info.path):
                            continue
                        parents[callee] = current
                        callee_node = callee_info.node
                        if CounterDisciplineRule.accepts_counters(
                            callee_node
                        ) or CounterDisciplineRule.uses_self_counters(callee_node):
                            continue  # R003's responsibility; don't descend
                        nxt.append(callee)
                frontier = nxt
            for reached in sorted(parents):
                if reached == qualname:
                    continue
                reached_node = project.functions[reached].node
                if CounterDisciplineRule.accepts_counters(
                    reached_node
                ) or CounterDisciplineRule.uses_self_counters(reached_node):
                    continue
                read = uncharged_read(reached)
                if read is None:
                    continue
                kind, line = read
                chain = graph.chain(
                    {k: v for k, v in parents.items()}, reached
                )
                yield _module_finding(
                    self, module, info.lineno, 0,
                    f"{info.name!r} accepts counters but delegates {kind} "
                    f"reads to {_short(reached)!r} "
                    f"({project.functions[reached].path}:{line}), which "
                    "neither charges accesses nor accepts counters "
                    f"(chain: {_format_chain(chain)})",
                )
                break  # one finding per counter-accepting function


def _read_suppressed(
    suppressed: Mapping[int, FrozenSet[str]], line: int
) -> bool:
    return is_suppressed(suppressed, line, "R003") or is_suppressed(
        suppressed, line, "R010"
    )
