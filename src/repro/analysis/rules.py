"""AST rule framework and the repo-contract rule set (R001–R006).

Each rule is a small class with an id, a path scope, and a ``check`` method
that walks a parsed module and yields :class:`Finding`\\ s.  Rules are
registered in :data:`RULES` at import time; the runner applies inline
suppressions afterwards, so rules themselves stay pure.

Scope conventions
-----------------
The *instrumented scope* is ``repro/core/``, ``repro/indexes/`` and
``repro/serve/`` — the code whose operation counts the paper reports
(Table 3), plus the serving path that reuses the same counted kernels.
R001/R003/R004 apply there; R002 applies everywhere except
:mod:`repro.common.rng` (the one blessed RNG chokepoint); R005 and R006
apply to the whole tree.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.analysis.findings import Finding

#: path fragments delimiting the instrumented scope (posix separators)
INSTRUMENTED_SCOPE = ("repro/core/", "repro/indexes/", "repro/serve/")

#: attribute names treated as stored bound arrays by R003
BOUND_ARRAY_ATTRS = frozenset(
    {"_ub", "_ub2", "_lb", "_lbs", "_glb", "_bounds", "_lb_shifted"}
)

#: einsum subscript signatures that compute a same-operand inner product,
#: i.e. a squared-distance evaluation
_DISTANCE_EINSUM_SIGS = frozenset({"i,i->", "ij,ij->", "ij,ij->i", "ijk,ijk->ij"})


# ----------------------------------------------------------------------
# Parsed-module container and name resolution.
# ----------------------------------------------------------------------


@dataclass
class ParsedModule:
    """One source file parsed for analysis."""

    path: str  # repo-relative, posix separators
    source: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)
    aliases: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "ParsedModule":
        tree = ast.parse(source)
        module = cls(path=path, source=source, tree=tree, lines=source.splitlines())
        module.aliases = _collect_aliases(tree)
        return module

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.path,
            line=lineno,
            col=col + 1,
            rule_id=rule.rule_id,
            message=message,
            snippet=self.snippet(lineno),
        )


def _collect_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the dotted module path they were imported as."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                if item.name != "*":
                    aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def resolve_name(aliases: Dict[str, str], node: ast.AST) -> Optional[str]:
    """Resolve an attribute chain / name to a dotted import path, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# Rule base class and registry.
# ----------------------------------------------------------------------


class Rule(abc.ABC):
    """One analysis rule: id, human name, path scope, and a checker."""

    rule_id: str = "R000"
    name: str = "abstract-rule"
    description: str = ""

    def applies_to(self, path: str) -> bool:
        return True

    @abc.abstractmethod
    def check(self, module: ParsedModule) -> Iterator[Finding]:
        """Yield findings for ``module`` (already known to be in scope)."""


class ProjectRule(Rule):
    """A rule that needs the whole-project view (call graph + effects).

    Per-module ``check`` is a no-op; the runner calls :meth:`check_project`
    once with the loaded :class:`~repro.analysis.graph.Project`, its
    :class:`~repro.analysis.graph.CallGraph`, and the
    :class:`~repro.analysis.effects.DirectEffects` table.  Findings still
    carry a (path, line) location, so inline suppressions apply exactly as
    they do for per-module rules.
    """

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        return iter(())

    @abc.abstractmethod
    def check_project(self, project, graph, direct) -> Iterator[Finding]:
        """Yield findings for the whole project."""


RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if cls.rule_id in RULES:  # pragma: no cover - programming error guard
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULES[cls.rule_id] = cls
    return cls


def get_rules(rule_ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the requested rules (default: all, in id order)."""
    if rule_ids is None:
        selected: Iterable[str] = sorted(RULES)
    else:
        unknown = [rid for rid in rule_ids if rid.upper() not in RULES]
        if unknown:
            raise KeyError(f"unknown rule ids {unknown}; known: {sorted(RULES)}")
        selected = [rid.upper() for rid in rule_ids]
    return [RULES[rid]() for rid in selected]


def _in_instrumented_scope(path: str) -> bool:
    return any(fragment in path for fragment in INSTRUMENTED_SCOPE)


# ----------------------------------------------------------------------
# R001 — uninstrumented-distance.
# ----------------------------------------------------------------------


@register
class UninstrumentedDistanceRule(Rule):
    """Distance arithmetic in the instrumented scope must go through the
    counted kernels of :mod:`repro.common.distance` (or carry a justified
    suppression), otherwise ``distance_computations`` silently undercounts
    and every Table 3-style measurement downstream is wrong.

    Besides ``np.linalg.norm``/scipy and the same-operand ``einsum`` /
    ``@`` idioms, this recognizes the batched squared-distance shapes a
    vectorized implementation (:mod:`repro.core.vectorized`) is most likely
    to hand-roll: the same-operand batched ``np.matmul`` row reduction
    (``np.matmul(diff[:, None, :], diff[:, :, None])`` — the kernel inside
    :func:`repro.common.distance._rowwise_sq_norms`), the same-operand
    ``np.dot``, and the summed squared difference in every spelling —
    ``((a - b) ** 2).sum()``, ``np.sum((a - b) ** 2)``,
    ``np.square(a - b).sum()``, ``((a - b) * (a - b)).sum()`` — the
    scatter-add and frontier batching idioms tempt exactly these.
    """

    rule_id = "R001"
    name = "uninstrumented-distance"
    description = (
        "distance computed outside the instrumented kernels in "
        "repro.common.distance"
    )

    def applies_to(self, path: str) -> bool:
        return _in_instrumented_scope(path)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                resolved = resolve_name(module.aliases, node.func)
                if resolved == "numpy.linalg.norm":
                    yield module.finding(
                        self,
                        node,
                        "np.linalg.norm computes an uncounted distance; use "
                        "repro.common.distance (euclidean / one_to_many_distances)",
                    )
                elif resolved is not None and resolved.startswith("scipy.spatial"):
                    yield module.finding(
                        self,
                        node,
                        f"{resolved} bypasses the instrumented kernels; use "
                        "repro.common.distance",
                    )
                elif resolved in ("numpy.einsum",) and self._is_distance_einsum(node):
                    yield module.finding(
                        self,
                        node,
                        "same-operand einsum is a squared-distance evaluation; "
                        "use repro.common.distance so it is counted",
                    )
                elif resolved == "numpy.matmul" and self._is_same_root_matmul(node):
                    yield module.finding(
                        self,
                        node,
                        "same-operand batched matmul is a squared-distance "
                        "evaluation; use repro.common.distance "
                        "(paired_sq_distances) so it is counted",
                    )
                elif resolved == "numpy.dot" and self._is_same_root_matmul(node):
                    yield module.finding(
                        self,
                        node,
                        "same-operand np.dot is a squared-distance "
                        "evaluation; use repro.common.distance "
                        "(sq_euclidean / paired_sq_distances) so it is counted",
                    )
                elif self._is_sq_diff_sum(module, node):
                    yield module.finding(
                        self,
                        node,
                        "a squared difference summed is a squared-distance "
                        "evaluation; use repro.common.distance so it is counted",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                if ast.dump(node.left) == ast.dump(node.right):
                    yield module.finding(
                        self,
                        node,
                        "diff @ diff inner product is a squared-distance "
                        "evaluation; use repro.common.distance so it is counted",
                    )

    @staticmethod
    def _is_distance_einsum(node: ast.Call) -> bool:
        if len(node.args) != 3:
            return False
        sig = node.args[0]
        if not (isinstance(sig, ast.Constant) and isinstance(sig.value, str)):
            return False
        signature = sig.value.replace(" ", "")
        if signature not in _DISTANCE_EINSUM_SIGS:
            return False
        return ast.dump(node.args[1]) == ast.dump(node.args[2])

    @staticmethod
    def _is_same_root_matmul(node: ast.Call) -> bool:
        """``np.matmul(x[...], x[...])`` (or plain ``np.matmul(x, x)``)."""
        if len(node.args) < 2:
            return False

        def strip_subscripts(expr: ast.AST) -> ast.AST:
            while isinstance(expr, ast.Subscript):
                expr = expr.value
            return expr

        left = strip_subscripts(node.args[0])
        right = strip_subscripts(node.args[1])
        return ast.dump(left) == ast.dump(right)

    @classmethod
    def _is_sq_diff_sum(cls, module: ParsedModule, node: ast.Call) -> bool:
        """A summed squared difference, in any of its spellings:
        ``((a - b) ** 2).sum(...)``, ``np.sum((a - b) ** 2, ...)``,
        ``np.square(a - b).sum()``, or ``((a - b) * (a - b)).sum()``."""
        func = node.func
        if resolve_name(module.aliases, func) == "numpy.sum" and node.args:
            return cls._is_sq_diff(module, node.args[0])
        if isinstance(func, ast.Attribute) and func.attr == "sum":
            return cls._is_sq_diff(module, func.value)
        return False

    @staticmethod
    def _is_sq_diff(module: ParsedModule, node: ast.AST) -> bool:
        """An ``(a - b) ** 2`` / ``np.square(a - b)`` / same-operand
        ``(a - b) * (a - b)`` expression (optionally parenthesized)."""
        if (
            isinstance(node, ast.Call)
            and resolve_name(module.aliases, node.func) == "numpy.square"
            and node.args
        ):
            inner = node.args[0]
            return isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Sub)
        if not isinstance(node, ast.BinOp):
            return False
        if isinstance(node.op, ast.Pow):
            power = node.right
            if not (isinstance(power, ast.Constant) and power.value == 2):
                return False
            return isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)
        if isinstance(node.op, ast.Mult):
            return (
                isinstance(node.left, ast.BinOp)
                and isinstance(node.left.op, ast.Sub)
                and ast.dump(node.left) == ast.dump(node.right)
            )
        return False


# ----------------------------------------------------------------------
# R002 — global-rng.
# ----------------------------------------------------------------------


@register
class GlobalRngRule(Rule):
    """All randomness flows through explicitly seeded generators.  The
    determinism contract (fixed seed => identical labels/centroids) breaks
    the moment any code touches the process-global numpy or stdlib RNG
    state, because test ordering then changes results."""

    rule_id = "R002"
    name = "global-rng"
    description = (
        "global / unseeded RNG use outside repro.common.rng; pass a seeded "
        "Generator (repro.common.rng.ensure_rng)"
    )

    def applies_to(self, path: str) -> bool:
        return not path.endswith("repro/common/rng.py")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_name(module.aliases, node.func)
            if resolved is None:
                continue
            if resolved == "numpy.random.default_rng":
                if not node.args or (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                ):
                    yield module.finding(
                        self,
                        node,
                        "unseeded default_rng() is nondeterministic; pass an "
                        "explicit seed or thread a Generator through",
                    )
            elif resolved.startswith("numpy.random."):
                yield module.finding(
                    self,
                    node,
                    f"{resolved} uses numpy's global RNG state; construct a "
                    "seeded Generator via repro.common.rng.ensure_rng",
                )
            elif resolved == "random" or resolved.startswith("random."):
                yield module.finding(
                    self,
                    node,
                    "stdlib random uses process-global state; use a seeded "
                    "numpy Generator via repro.common.rng.ensure_rng",
                )


# ----------------------------------------------------------------------
# R003 — counter-discipline.
# ----------------------------------------------------------------------


@register
class CounterDisciplineRule(Rule):
    """A function that accepts an :class:`OpCounters` parameter — or, in a
    method, touches ``self.counters`` — advertises that its work is
    measured; reading data-point rows or stored bound arrays inside it
    without charging ``point_accesses`` / ``bound_accesses`` breaks the
    Table 3 access accounting.

    Vectorized assignment passes (:mod:`repro.core.vectorized`) hoist
    ``self.X`` / bound arrays into locals before the batch operations
    (``lb = self._lb``), so reads through such single-assignment local
    aliases are tracked as bound/point reads too.
    """

    rule_id = "R003"
    name = "counter-discipline"
    description = (
        "counter-accepting function reads points/bounds without charging "
        "point_accesses/bound_accesses"
    )

    def applies_to(self, path: str) -> bool:
        return _in_instrumented_scope(path)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self.accepts_counters(node) or self.uses_self_counters(node):
                    yield from self._check_function(module, node)

    @staticmethod
    def accepts_counters(node: ast.AST) -> bool:
        args = node.args
        every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in every:
            if arg.arg == "counters":
                return True
            if arg.annotation is not None and "OpCounters" in ast.dump(arg.annotation):
                return True
        return False

    @staticmethod
    def uses_self_counters(func: ast.AST) -> bool:
        """A method touching ``self.counters`` claims its work is measured."""
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "counters"
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return True
        return False

    @staticmethod
    def _local_array_aliases(func: ast.AST) -> Dict[str, str]:
        """Local names bound to ``self.X`` / bound arrays: name -> kind."""
        aliases: Dict[str, str] = {}
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            value = node.value
            if not (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                continue
            if value.attr == "X":
                aliases[target.id] = "point"
            elif value.attr in BOUND_ARRAY_ATTRS:
                aliases[target.id] = "bound"
        return aliases

    @classmethod
    def scan_reads(
        cls, func: ast.AST
    ) -> Tuple[List[ast.AST], List[ast.AST], bool, bool]:
        """Scan one function for point/bound reads and access charges.

        Returns ``(point_reads, bound_reads, charges_points,
        charges_bounds)`` — shared with R010, which runs the same scan on
        *callees* of counter-accepting functions.
        """
        aliases = cls._local_array_aliases(func)
        point_reads: List[ast.AST] = []
        bound_reads: List[ast.AST] = []
        charges_points = False
        charges_bounds = False
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                target = node.value
                if isinstance(target, ast.Attribute):
                    if target.attr == "X":
                        point_reads.append(node)
                    elif target.attr in BOUND_ARRAY_ATTRS:
                        bound_reads.append(node)
                elif isinstance(target, ast.Name) and target.id in aliases:
                    if aliases[target.id] == "point":
                        point_reads.append(node)
                    else:
                        bound_reads.append(node)
            elif isinstance(node, ast.Attribute):
                if node.attr in ("add_point_accesses", "point_accesses"):
                    charges_points = True
                elif node.attr in ("add_bound_accesses", "bound_accesses"):
                    charges_bounds = True
        return point_reads, bound_reads, charges_points, charges_bounds

    def _check_function(
        self, module: ParsedModule, func: ast.AST
    ) -> Iterator[Finding]:
        point_reads, bound_reads, charges_points, charges_bounds = self.scan_reads(func)
        if point_reads and not charges_points:
            yield module.finding(
                self,
                point_reads[0],
                f"function {func.name!r} accepts counters but reads data "
                "points without charging point_accesses",
            )
        if bound_reads and not charges_bounds:
            yield module.finding(
                self,
                bound_reads[0],
                f"function {func.name!r} accepts counters but reads bound "
                "arrays without charging bound_accesses",
            )


# ----------------------------------------------------------------------
# R004 — float-equality.
# ----------------------------------------------------------------------


@register
class FloatEqualityRule(Rule):
    """Pruning code lives and dies by threshold tests; ``==``/``!=``
    against float expressions is almost always a latent tie-breaking or
    convergence bug (use <=/>= margins or math.isclose)."""

    rule_id = "R004"
    name = "float-equality"
    description = "== / != comparison against a float expression in pruning code"

    def applies_to(self, path: str) -> bool:
        return _in_instrumented_scope(path)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            if any(self._is_floatish(operand) for operand in operands):
                yield module.finding(
                    self,
                    node,
                    "float equality comparison; use an explicit tolerance or "
                    "an ordered comparison",
                )

    @classmethod
    def _is_floatish(cls, node: ast.AST, depth: int = 0) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp):
            return cls._is_floatish(node.operand, depth)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id == "float"
        if isinstance(node, ast.BinOp) and depth < 2:
            return cls._is_floatish(node.left, depth + 1) or cls._is_floatish(
                node.right, depth + 1
            )
        return False


# ----------------------------------------------------------------------
# R005 — mutable-default-arg.
# ----------------------------------------------------------------------


@register
class MutableDefaultArgRule(Rule):
    """Mutable default arguments are evaluated once and shared across
    calls — in a framework whose algorithms are re-run in loops by the
    harness, state leaking between runs corrupts measurements silently."""

    rule_id = "R005"
    name = "mutable-default-arg"
    description = "mutable default argument (list/dict/set) shared across calls"

    _MUTABLE_FACTORIES: FrozenSet[str] = frozenset({"list", "dict", "set", "bytearray"})

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield module.finding(
                        self,
                        default,
                        f"default argument of {name!r} is mutable and shared "
                        "across calls; default to None and construct inside",
                    )

    @classmethod
    def _is_mutable(cls, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                             ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in cls._MUTABLE_FACTORIES
        return False


# ----------------------------------------------------------------------
# R006 — no-swallowed-exception.
# ----------------------------------------------------------------------


@register
class SwallowedExceptionRule(Rule):
    """The fault-tolerant runtime turns failures into structured
    :class:`FailedRun` records; a bare/broad ``except`` that just ``pass``es
    instead silently deletes the evidence — a failed run looks identical to
    one that never happened, which poisons both the evaluation log and the
    UTune training corpus built from it."""

    rule_id = "R006"
    name = "no-swallowed-exception"
    description = (
        "bare or broad except whose body silently swallows the exception; "
        "handle, record, or re-raise"
    )

    _BROAD_NAMES = frozenset({"Exception", "BaseException"})

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._swallows(node.body):
                what = "bare except" if node.type is None else "broad except"
                yield module.finding(
                    self,
                    node,
                    f"{what} silently swallows the error; handle it, record "
                    "a FailedRun, or re-raise",
                )

    @classmethod
    def _is_broad(cls, type_node: Optional[ast.AST]) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Name):
            return type_node.id in cls._BROAD_NAMES
        if isinstance(type_node, ast.Attribute):
            return type_node.attr in cls._BROAD_NAMES
        if isinstance(type_node, ast.Tuple):
            return any(cls._is_broad(element) for element in type_node.elts)
        return False

    @staticmethod
    def _swallows(body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and (stmt.value.value is Ellipsis or isinstance(stmt.value.value, str))
            ):
                continue  # `...` or a docstring-style literal
            return False
        return True


def all_rule_ids() -> Tuple[str, ...]:
    """Every registered rule id, sorted.  The interprocedural rules
    (R007–R010) register when :mod:`repro.analysis.interprocedural` is
    imported, so the package ``__init__`` — which imports both modules —
    exposes the completed tuple as ``repro.analysis.ALL_RULE_IDS``."""
    return tuple(sorted(RULES))
