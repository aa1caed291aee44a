"""Direct effects: the two per-function facts the project rules lift.

Every project function gets a subset of two labels:

``mutates-global``
    Writes module-level state — ``global`` declarations that are stored
    to, or in-place mutation (subscript/attribute store, mutator method
    call) of a module-level binding.  R007 walks the call graph from each
    dispatched callable looking for it: a worker process's mutation is
    silently lost, a thread's races.
``uncounted-distance``
    Contains distance arithmetic outside the counted kernels — exactly
    R001's detectors, but evaluated *everywhere* (R001 itself only scans
    the instrumented scope) so R008 can see an uncounted kernel behind a
    helper call.  Lines carrying an R001 suppression contribute no
    effect: a justified suppression is a declaration that the arithmetic
    is not a distance in the Table 3 sense.

Both come from one AST pass per function (:func:`compute_direct_effects`);
the rules that consume them do their own reachability walk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple

from repro.analysis.graph import FunctionInfo, Project
from repro.analysis.rules import ParsedModule, UninstrumentedDistanceRule
from repro.analysis.suppressions import is_suppressed, parse_suppressions

MUTATES_GLOBAL = "mutates-global"
UNCOUNTED_DISTANCE = "uncounted-distance"

#: container methods that mutate their receiver in place
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "add", "discard", "update", "setdefault", "sort", "reverse",
    }
)

#: the counted-kernel module: raw arithmetic there IS the instrumentation
DISTANCE_KERNEL_MODULE = "repro.common.distance"


@dataclass
class DirectEffects:
    """Per-function direct (intraprocedural) effect labels."""

    effects: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: per-function lines of uncounted distance arithmetic, for R008 reporting
    distance_lines: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    def get(self, qualname: str) -> FrozenSet[str]:
        return self.effects.get(qualname, frozenset())


def root_name(node: ast.AST) -> Optional[str]:
    """Peel attributes/subscripts down to the base ``Name``, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def module_level_names(tree: ast.AST) -> FrozenSet[str]:
    """Names bound at module top level (assignments, imports, defs)."""
    names: Set[str] = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for item in node.names:
                if item.name == "*":
                    continue
                names.add((item.asname or item.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return frozenset(names)


def body_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body, *excluding* nested function and lambda
    bodies (nested defs are separate graph nodes with their own effects)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _local_store_names(func: ast.AST) -> Set[str]:
    """Names the function binds locally (params, plain assignments, loops,
    with-targets, comprehension targets) — these shadow module globals."""
    names: Set[str] = set()
    args = func.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in body_nodes(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
    return names


def _function_direct_effects(
    module: ParsedModule,
    info: FunctionInfo,
    module_globals: FrozenSet[str],
    suppressions: Mapping[int, FrozenSet[str]],
) -> Tuple[Set[str], List[int]]:
    func = info.node
    effects: Set[str] = set()
    distance_lines: List[int] = []

    global_names: Set[str] = set()
    for node in body_nodes(func):
        if isinstance(node, ast.Global):
            global_names.update(node.names)
    locals_ = _local_store_names(func) - global_names

    def is_module_global(name: Optional[str]) -> bool:
        return name is not None and name in module_globals and name not in locals_

    for node in body_nodes(func):
        # --- mutates-global -------------------------------------------
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in global_names:
                    effects.add(MUTATES_GLOBAL)
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    if is_module_global(root_name(target)):
                        effects.add(MUTATES_GLOBAL)
        elif isinstance(node, ast.Call):
            func_expr = node.func
            # mutator method on a module-level container
            if (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr in _MUTATOR_METHODS
                and is_module_global(root_name(func_expr.value))
            ):
                effects.add(MUTATES_GLOBAL)

    # --- uncounted-distance -------------------------------------------
    if info.module != DISTANCE_KERNEL_MODULE:
        probe = UninstrumentedDistanceRule()
        scratch = ParsedModule(
            path=module.path,
            source=module.source,
            tree=info.node,
            lines=module.lines,
            aliases=module.aliases,
        )
        nested_ranges = [
            (child.lineno, child.end_lineno or child.lineno)
            for child in ast.walk(info.node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not info.node
        ]
        for finding in probe.check(scratch):
            if any(lo <= finding.line <= hi for lo, hi in nested_ranges):
                continue  # belongs to a nested def (its own graph node)
            if is_suppressed(suppressions, finding.line, "R001"):
                continue
            effects.add(UNCOUNTED_DISTANCE)
            distance_lines.append(finding.line)
    return effects, distance_lines


def compute_direct_effects(project: Project) -> DirectEffects:
    """One intraprocedural pass per project function."""
    out = DirectEffects()
    globals_cache: Dict[str, FrozenSet[str]] = {}
    suppressions_cache: Dict[str, Mapping[int, FrozenSet[str]]] = {}
    for qualname in sorted(project.functions):
        info = project.functions[qualname]
        module = project.modules[info.module]
        if info.module not in globals_cache:
            globals_cache[info.module] = module_level_names(module.tree)
            suppressions_cache[info.module] = parse_suppressions(module.source)
        effects, distance_lines = _function_direct_effects(
            module, info, globals_cache[info.module], suppressions_cache[info.module]
        )
        out.effects[qualname] = frozenset(effects)
        if distance_lines:
            out.distance_lines[qualname] = tuple(sorted(distance_lines))
    return out
