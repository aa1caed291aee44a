"""Whole-project model: symbol table and conservative call graph.

The per-file rules (R001–R006) see one module at a time; the project
rules (R007–R010, :mod:`repro.analysis.interprocedural`) need to reason
about *reachability* — an uncounted kernel three frames below a counted
function, or a global mutation below a dispatched worker, is invisible
per-file.  This module builds the shared substrate:

* :func:`load_project` parses a source tree into a :class:`Project` —
  every module keyed by its dotted import name, every function and method
  keyed by its dotted qualname (``repro.core.base.KMeansAlgorithm.fit``).
* :func:`build_call_graph` derives a conservative static call graph.
  Edges carry a confidence tier:

  - **direct** — the callee is resolved through imports, module-level
    names, ``self``-method dispatch (own class, then project base
    classes, then same module), or an explicit ``Class.method`` /
    ``Class(...)`` constructor reference;
  - **fuzzy** — an attribute call ``obj.m(...)`` on an object of unknown
    type resolves to *every* project method named ``m``; and a call
    ``p(...)`` on a parameter ``p`` resolves to every function any call
    site passes as ``p``, followed through parameters that pass it on
    (a callable argument, e.g. a per-rank ``work`` handed to a thread
    target).  Sound for may-reach questions (R007 must not miss a
    mutation behind duck-typed dispatch), far too coarse for must-style
    rules (R008/R010 stay on the direct tier; see
    docs/static_analysis.md).

Everything here is deterministic by construction: modules, functions and
edges are kept in sorted containers so two builds over the same sources
are equal object-for-object (pinned by ``tests/test_analysis_graph.py``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.analysis.rules import ParsedModule, resolve_name

#: edge confidence tiers (see module docstring)
DIRECT = "direct"
FUZZY = "fuzzy"


def module_name_for_path(path: str) -> str:
    """Dotted import name for a repo-relative posix path.

    ``src/repro/core/base.py`` -> ``repro.core.base``; a package
    ``__init__.py`` maps to the package itself.  Leading ``src``/``lib``
    segments and any segments before the last ``src`` are dropped so the
    name matches what ``import`` sees under the repo's layout.
    """
    parts = path.split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("src"):][1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


@dataclass
class FunctionInfo:
    """One function or method in the project symbol table."""

    qualname: str  # dotted: <module>.<Class>.<name> or <module>.<name>
    module: str  # dotted module name
    path: str  # repo-relative posix path
    name: str
    node: ast.AST  # FunctionDef / AsyncFunctionDef
    lineno: int
    class_name: Optional[str] = None  # enclosing class, if a method
    nested_in: Optional[str] = None  # enclosing function qualname, if nested
    param_names: Tuple[str, ...] = ()

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def is_nested(self) -> bool:
        return self.nested_in is not None


@dataclass
class ClassInfo:
    """One class: its methods and (textual) base-class names."""

    qualname: str
    module: str
    name: str
    bases: Tuple[str, ...] = ()  # resolved dotted names where possible
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qualname


@dataclass
class Project:
    """A parsed source tree plus its symbol tables."""

    modules: Dict[str, ParsedModule] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: bare method name -> sorted qualnames of every project method so named
    methods_by_name: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def functions_in_module(self, module: str) -> List[FunctionInfo]:
        return [
            info for info in self.functions.values() if info.module == module
        ]

    def resolve_dotted(self, dotted: str) -> Optional[str]:
        """Map a dotted reference to a project function qualname, following
        one level of class-constructor indirection (``pkg.Cls`` ->
        ``pkg.Cls.__init__``)."""
        if dotted in self.functions:
            return dotted
        if dotted in self.classes:
            init = self.classes[dotted].methods.get("__init__")
            return init
        return None


def _param_names(node: ast.AST) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    names += [a.arg for a in args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names)


def _index_module(project: Project, module_name: str, module: ParsedModule) -> None:
    """Populate function/class tables for one parsed module."""

    def visit(node: ast.AST, class_name: Optional[str], enclosing: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = f"{module_name}.{class_name}" if class_name else module_name
                qualname = f"{scope}.{child.name}"
                if enclosing is not None:
                    qualname = f"{enclosing}.<locals>.{child.name}"
                project.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=module_name,
                    path=module.path,
                    name=child.name,
                    node=child,
                    lineno=child.lineno,
                    class_name=class_name,
                    nested_in=enclosing,
                    param_names=_param_names(child),
                )
                if class_name is not None and enclosing is None:
                    cls = project.classes[f"{module_name}.{class_name}"]
                    cls.methods[child.name] = qualname
                visit(child, None, qualname)
            elif isinstance(child, ast.ClassDef) and enclosing is None and class_name is None:
                bases = []
                for base in child.bases:
                    dotted = resolve_name(module.aliases, base)
                    if dotted is None and isinstance(base, ast.Name):
                        dotted = f"{module_name}.{base.id}"
                    if dotted is not None:
                        bases.append(dotted)
                project.classes[f"{module_name}.{child.name}"] = ClassInfo(
                    qualname=f"{module_name}.{child.name}",
                    module=module_name,
                    name=child.name,
                    bases=tuple(bases),
                )
                visit(child, child.name, None)
            else:
                visit(child, class_name, enclosing)

    visit(module.tree, None, None)


def load_project(modules: Mapping[str, ParsedModule]) -> Project:
    """Build a :class:`Project` from parsed modules keyed by repo path.

    ``modules`` maps repo-relative posix paths to :class:`ParsedModule`;
    dotted module names are derived with :func:`module_name_for_path`.
    """
    project = Project()
    for path in sorted(modules):
        module = modules[path]
        project.modules[module_name_for_path(path)] = module
    for module_name in sorted(project.modules):
        _index_module(project, module_name, project.modules[module_name])
    by_name: Dict[str, List[str]] = {}
    for info in project.functions.values():
        if info.is_method:
            by_name.setdefault(info.name, []).append(info.qualname)
    project.methods_by_name = {
        name: tuple(sorted(quals)) for name, quals in sorted(by_name.items())
    }
    return project


# ----------------------------------------------------------------------
# Call graph construction.
# ----------------------------------------------------------------------


@dataclass
class CallGraph:
    """Conservative static call graph over project functions.

    ``edges`` maps caller qualname to ``(callee, tier)`` pairs, sorted.
    """

    edges: Dict[str, Tuple[Tuple[str, str], ...]] = field(default_factory=dict)

    def callees(self, qualname: str, *, fuzzy: bool = False) -> List[str]:
        return [
            callee
            for callee, tier in self.edges.get(qualname, ())
            if fuzzy or tier == DIRECT
        ]

    def reachable(
        self, roots: Iterable[str], *, fuzzy: bool = False
    ) -> Dict[str, Optional[str]]:
        """BFS closure from ``roots``; returns node -> predecessor (roots
        map to None) so callers can reconstruct a witness call chain."""
        parents: Dict[str, Optional[str]] = {}
        frontier: List[str] = []
        for root in sorted(set(roots)):
            if root not in parents:
                parents[root] = None
                frontier.append(root)
        while frontier:
            next_frontier: List[str] = []
            for node in frontier:
                for callee in self.callees(node, fuzzy=fuzzy):
                    if callee not in parents:
                        parents[callee] = node
                        next_frontier.append(callee)
            frontier = next_frontier
        return parents

    def chain(self, parents: Mapping[str, Optional[str]], node: str) -> List[str]:
        """Witness call chain root -> ... -> node from a BFS parent map."""
        out = [node]
        seen = {node}
        current: Optional[str] = node
        while current is not None:
            current = parents.get(current)
            if current is None or current in seen:
                break
            out.append(current)
            seen.add(current)
        return list(reversed(out))


def _mro_method(project: Project, class_qualname: str, method: str, depth: int = 0) -> Optional[str]:
    """Resolve ``method`` on a class or its project-resolvable bases."""
    if depth > 16 or class_qualname not in project.classes:
        return None
    cls = project.classes[class_qualname]
    if method in cls.methods:
        return cls.methods[method]
    for base in cls.bases:
        found = _mro_method(project, base, method, depth + 1)
        if found is not None:
            return found
    return None


def resolve_call(
    project: Project,
    module_name: str,
    caller: Optional[FunctionInfo],
    call: ast.Call,
) -> List[Tuple[str, str]]:
    """Resolve one call expression to ``(callee_qualname, tier)`` pairs;
    ``caller`` is None for a call at module level."""
    module = project.modules[module_name]
    func = call.func
    out: List[Tuple[str, str]] = []

    dotted = resolve_name(module.aliases, func)
    if dotted is not None:
        resolved = project.resolve_dotted(dotted)
        if resolved is not None:
            return [(resolved, DIRECT)]

    if isinstance(func, ast.Name):
        # Same-module function or class (not routed through an import).
        local = project.resolve_dotted(f"{module_name}.{func.id}")
        if local is not None:
            return [(local, DIRECT)]
        return []

    if isinstance(func, ast.Attribute):
        receiver = func.value
        method = func.attr
        if isinstance(receiver, ast.Name):
            if (
                receiver.id == "self"
                and caller is not None
                and caller.class_name is not None
            ):
                own = _mro_method(
                    project, f"{caller.module}.{caller.class_name}", method
                )
                if own is not None:
                    return [(own, DIRECT)]
            # Class-qualified call: Cls.method(...)
            receiver_dotted = resolve_name(module.aliases, receiver)
            candidates = [f"{module_name}.{receiver.id}"]
            if receiver_dotted is not None:
                candidates.append(receiver_dotted)
            for candidate in candidates:
                if candidate in project.classes:
                    found = _mro_method(project, candidate, method)
                    if found is not None:
                        return [(found, DIRECT)]
        # Unknown receiver: every project method of that name, fuzzily.
        for qualname in project.methods_by_name.get(method, ()):
            out.append((qualname, FUZZY))
    return out


def _own_calls(info: FunctionInfo) -> Iterable[ast.Call]:
    """The calls in ``info``'s body, nested defs excluded (their own nodes)."""
    for node in ast.walk(info.node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not info.node:
            continue
        if isinstance(node, ast.Call):
            yield node


def _bound_arguments(
    project: Project, module_name: str, caller: FunctionInfo, call: ast.Call
) -> Iterable[Tuple[str, str, ast.AST]]:
    """``(callee, parameter, argument)`` for each argument ``call`` binds.

    A ``Thread``/``Process(target=f, args=(...))`` binds its ``args``
    tuple to ``f``'s parameters; any other call binds its own arguments
    to those of every callee it resolves to.  A bound-method or
    constructor call skips the callee's ``self``; binding stops at a
    starred argument.
    """
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    keywords = {kw.arg: kw.value for kw in call.keywords if kw.arg is not None}
    if name in ("Thread", "Process") and "target" in keywords:
        dispatched = ast.Call(func=keywords["target"], args=[], keywords=[])
        args = keywords.get("args")
        positional = list(args.elts) if isinstance(args, ast.Tuple) else []
        callees = resolve_call(project, module_name, caller, dispatched)
        keywords = {}
    else:
        positional = list(call.args)
        callees = resolve_call(project, module_name, caller, call)
    for callee, _tier in callees:
        info = project.functions[callee]
        params = list(info.param_names)
        skip_self = info.is_method and (
            info.name == "__init__" or isinstance(func, ast.Attribute)
        )
        if skip_self and params and params[0] in ("self", "cls"):
            params = params[1:]
        for param, arg in zip(params, positional):
            if isinstance(arg, ast.Starred):
                break
            yield callee, param, arg
        for param, arg in keywords.items():
            if param in info.param_names:
                yield callee, param, arg


def _callable_targets(
    project: Project, module_name: str, caller: FunctionInfo, expr: ast.AST
) -> Set[str]:
    """Project functions an argument expression may refer to as a callable."""
    if isinstance(expr, ast.Lambda):
        return {
            callee
            for node in ast.walk(expr.body) if isinstance(node, ast.Call)
            for callee, _tier in resolve_call(project, module_name, caller, node)
        }
    if isinstance(expr, ast.Name):
        nested = f"{caller.qualname}.<locals>.{expr.id}"
        if nested in project.functions:
            return {nested}
    if not isinstance(expr, (ast.Name, ast.Attribute)):
        return set()
    reference = ast.Call(func=expr, args=[], keywords=[])
    return {callee for callee, _tier in resolve_call(project, module_name, caller, reference)}


def _parameter_call_edges(project: Project) -> Dict[str, Set[str]]:
    """Fuzzy edges for calls on parameters: caller -> functions passed in.

    Every argument a call site binds to a parameter contributes the
    functions it may refer to; a parameter passed on as another call's
    argument forwards what it receives, to a fixpoint.  Context-
    insensitive, like the fuzzy tier it feeds.
    """
    received: Dict[Tuple[str, str], Set[str]] = {}
    forwards: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
    called: Dict[str, Set[str]] = {}
    for qualname in sorted(project.functions):
        info = project.functions[qualname]
        for call in _own_calls(info):
            if isinstance(call.func, ast.Name) and call.func.id in info.param_names:
                called.setdefault(qualname, set()).add(call.func.id)
            for callee, param, arg in _bound_arguments(project, info.module, info, call):
                slot = (callee, param)
                if isinstance(arg, ast.Name) and arg.id in info.param_names:
                    forwards.setdefault((qualname, arg.id), set()).add(slot)
                else:
                    targets = _callable_targets(project, info.module, info, arg)
                    received.setdefault(slot, set()).update(targets)
    changed = True
    while changed:
        changed = False
        for source, slots in sorted(forwards.items()):
            passed = received.get(source, set())
            for slot in sorted(slots):
                have = received.setdefault(slot, set())
                if not passed <= have:
                    have.update(passed)
                    changed = True
    return {
        qualname: set().union(*(received.get((qualname, p), set()) for p in params))
        for qualname, params in called.items()
    }


def build_call_graph(project: Project) -> CallGraph:
    """Derive the conservative call graph for ``project``."""
    edges: Dict[str, Set[Tuple[str, str]]] = {}
    passed_in = _parameter_call_edges(project)
    for qualname in sorted(project.functions):
        info = project.functions[qualname]
        collected: Set[Tuple[str, str]] = {
            (callee, FUZZY) for callee in passed_in.get(qualname, ()) if callee != qualname
        }
        for node in _own_calls(info):
            for callee, tier in resolve_call(project, info.module, info, node):
                if callee != qualname:
                    collected.add((callee, tier))
        # A direct edge subsumes a fuzzy edge to the same callee.
        directs = {callee for callee, tier in collected if tier == DIRECT}
        collected = {
            (callee, tier)
            for callee, tier in collected
            if tier == DIRECT or callee not in directs
        }
        edges[qualname] = collected
    return CallGraph(
        edges={qual: tuple(sorted(pairs)) for qual, pairs in edges.items()}
    )
