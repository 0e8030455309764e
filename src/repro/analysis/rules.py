"""The built-in reprolint rules (R001–R010).

Each rule targets a failure mode this reproduction has actually hit (or is
one refactor away from hitting): nondeterminism that breaks the
bit-reproducibility of the paper's 10-networks × 100-tasks evaluation, and
drift from the :class:`~repro.routing.base.RoutingProtocol` contract the
engine relies on.  See ``docs/ANALYSIS.md`` for the narrative rule guide.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type, Union

from repro.analysis.engine import ModuleContext, Rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import walk

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_TYPES = _FUNCTION_TYPES + (ast.ClassDef,)


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _name_parts(node: ast.expr) -> Tuple[str, ...]:
    name = dotted_name(node)
    return tuple(name.split(".")) if name else ()


def _scope_statements(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``scope`` excluding nested function/class scopes."""
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, _SCOPE_TYPES):
            continue
        yield child
        yield from _scope_statements(child)


def _scopes(tree: ast.AST) -> Iterator[ast.AST]:
    """The module scope and every (possibly nested) function scope."""
    yield tree
    for node in walk(tree):
        if isinstance(node, _FUNCTION_TYPES):
            yield node


class SeededRandomnessRule(Rule):
    """R001 — all randomness must flow through ``simkit.rng``."""

    rule_id = "R001"
    severity = Severity.ERROR
    summary = (
        "no stdlib random / numpy global RNG outside simkit.rng; "
        "derive seeds with derive_seed and named streams"
    )
    fix_hint = (
        "use RandomStreams(master_seed).stream(...) or "
        "np.random.default_rng(derive_seed(...))"
    )

    #: (second-to-last, last) dotted-name parts of global-RNG calls.
    _FORBIDDEN_CALLS = frozenset(
        ("random", tail)
        for tail in (
            "seed",
            "RandomState",
            "rand",
            "randn",
            "randint",
            "random",
            "random_sample",
            "choice",
            "shuffle",
            "permutation",
            "uniform",
            "normal",
        )
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_module(ctx.config.rng_modules):
            return
        for node in walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            ctx, node, "import of the global stdlib RNG module 'random'"
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield self.finding(
                        ctx, node, "import from the global stdlib RNG module 'random'"
                    )
            elif isinstance(node, ast.Call):
                parts = _name_parts(node.func)
                if len(parts) < 2:
                    continue
                tail = (parts[-2], parts[-1])
                if tail in self._FORBIDDEN_CALLS:
                    yield self.finding(
                        ctx,
                        node,
                        f"call to the global RNG API {'.'.join(parts)}()",
                    )
                elif tail == ("random", "default_rng") and not node.args and not node.keywords:
                    yield self.finding(
                        ctx,
                        node,
                        "default_rng() without a seed draws OS entropy; "
                        "runs become unreproducible",
                    )


class WallClockRule(Rule):
    """R002 — simulation code must not read the wall clock."""

    rule_id = "R002"
    severity = Severity.ERROR
    summary = "no wall-clock reads (time.time, datetime.now, ...) in simulation code"
    fix_hint = "thread simulated time (Simulator.now) or accept a timestamp parameter"

    _FORBIDDEN = frozenset(
        [
            ("time", "time"),
            ("time", "time_ns"),
            ("time", "monotonic"),
            ("time", "monotonic_ns"),
            ("time", "perf_counter"),
            ("time", "perf_counter_ns"),
            ("time", "process_time"),
            ("datetime", "now"),
            ("datetime", "utcnow"),
            ("datetime", "today"),
            ("date", "today"),
        ]
    )
    #: Forbidden only when called without an explicit time argument.
    _FORBIDDEN_NO_ARG = frozenset(
        [("time", "strftime"), ("time", "localtime"), ("time", "gmtime")]
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            parts = _name_parts(node.func)
            if len(parts) < 2:
                continue
            tail = (parts[-2], parts[-1])
            name = ".".join(parts)
            if tail in self._FORBIDDEN:
                yield self.finding(ctx, node, f"wall-clock read via {name}()")
            elif tail in self._FORBIDDEN_NO_ARG and len(node.args) < 2 and not node.keywords:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() without an explicit time argument reads the wall clock",
                )


class OrderedIterationRule(Rule):
    """R003 — decision-layer iteration over sets must be sorted."""

    rule_id = "R003"
    severity = Severity.ERROR
    summary = (
        "no iteration over set/dict.keys() in routing/steiner/engine code "
        "without an enclosing sorted(...)"
    )
    fix_hint = "wrap the iterable in sorted(...) to pin a hash-seed-independent order"

    _SET_BUILTINS = frozenset(["set", "frozenset"])
    _SET_METHODS = frozenset(
        ["union", "intersection", "difference", "symmetric_difference", "copy"]
    )
    _ORDERING_WRAPPERS = frozenset(["sorted"])
    _TRANSPARENT_WRAPPERS = frozenset(["enumerate", "reversed", "tuple", "list"])
    _SET_ANNOTATIONS = frozenset(["set", "Set", "frozenset", "FrozenSet", "AbstractSet"])

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_module(ctx.config.ordered_iteration_scopes):
            return
        for scope in _scopes(ctx.tree):
            yield from self._check_scope(ctx, scope)

    def _check_scope(self, ctx: ModuleContext, scope: ast.AST) -> Iterator[Finding]:
        statements = list(_scope_statements(scope))
        set_names = self._set_typed_names(statements)
        for node in statements:
            iters: List[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            for iter_expr in iters:
                reason = self._unordered_reason(iter_expr, set_names)
                if reason is not None:
                    yield self.finding(
                        ctx,
                        iter_expr,
                        f"iteration over {reason} has hash-seed-dependent order "
                        "in decision-making code",
                    )

    def _set_typed_names(self, statements: Sequence[ast.AST]) -> Set[str]:
        names: Set[str] = set()
        # Two passes so simple chains (a = set(); b = a | other) resolve.
        for _ in range(2):
            for node in statements:
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                    if self._is_set_annotation(node.annotation):
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                        continue
                elif isinstance(node, ast.AugAssign):
                    target, value = node.target, node.value
                if (
                    isinstance(target, ast.Name)
                    and value is not None
                    and self._is_set_expr(value, names)
                ):
                    names.add(target.id)
        return names

    def _is_set_annotation(self, annotation: ast.expr) -> bool:
        base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
        parts = _name_parts(base)
        return bool(parts) and parts[-1] in self._SET_ANNOTATIONS

    def _is_set_expr(self, node: ast.expr, known: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in known
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left, known) or self._is_set_expr(
                node.right, known
            )
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in self._SET_BUILTINS:
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in self._SET_METHODS:
                return self._is_set_expr(node.func.value, known)
        return False

    def _unordered_reason(self, iter_expr: ast.expr, known: Set[str]) -> Optional[str]:
        if isinstance(iter_expr, ast.Call) and isinstance(iter_expr.func, ast.Name):
            if iter_expr.func.id in self._ORDERING_WRAPPERS:
                return None
            if iter_expr.func.id in self._TRANSPARENT_WRAPPERS and iter_expr.args:
                return self._unordered_reason(iter_expr.args[0], known)
        if (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Attribute)
            and iter_expr.func.attr == "keys"
            and not iter_expr.args
        ):
            return "dict.keys()"
        if self._is_set_expr(iter_expr, known):
            if isinstance(iter_expr, ast.Name):
                return f"the set {iter_expr.id!r}"
            return "an unordered set expression"
        return None


class FloatEqualityRule(Rule):
    """R004 — distances compare with epsilon helpers, never ``==``."""

    rule_id = "R004"
    severity = Severity.ERROR
    summary = (
        "no ==/!= on float literals or distance-valued expressions outside "
        "the epsilon-helper modules"
    )
    fix_hint = "use repro.geometry.primitives.is_zero / points_coincide (or math.isclose)"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_module(ctx.config.epsilon_modules):
            return
        distance_calls = frozenset(ctx.config.distance_functions)
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                pair = (operands[index], operands[index + 1])
                reason = self._float_operand(pair, distance_calls)
                if reason is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"exact float comparison against {reason}",
                    )
                    break

    def _float_operand(
        self, pair: Tuple[ast.expr, ast.expr], distance_calls: frozenset
    ) -> Optional[str]:
        for side in pair:
            if isinstance(side, ast.UnaryOp) and isinstance(side.op, ast.USub):
                side = side.operand
            if isinstance(side, ast.Constant) and isinstance(side.value, float):
                return f"the float literal {side.value!r}"
            if isinstance(side, ast.Call):
                parts = _name_parts(side.func)
                if parts and parts[-1] in distance_calls:
                    return f"the distance expression {'.'.join(parts)}(...)"
        return None


class MutableDefaultRule(Rule):
    """R005 — no mutable default arguments."""

    rule_id = "R005"
    severity = Severity.ERROR
    summary = "no mutable default arguments (list/dict/set literals or constructors)"
    fix_hint = "default to None and create the container inside the function"

    _MUTABLE_CALLS = frozenset(["list", "dict", "set", "bytearray"])

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in walk(ctx.tree):
            if not isinstance(node, _FUNCTION_TYPES):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in {node.name}() is shared "
                        "across calls",
                    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CALLS
            and not node.args
            and not node.keywords
        )


def _protocol_classes(tree: ast.AST) -> Iterator[ast.ClassDef]:
    """Classes directly subclassing ``RoutingProtocol``."""
    for node in walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            _name_parts(base)[-1:] == ("RoutingProtocol",) for base in node.bases
        ):
            yield node


def _positional_args(fn: _FunctionNode) -> List[ast.arg]:
    return list(getattr(fn.args, "posonlyargs", [])) + list(fn.args.args)


def _is_abstract(class_def: ast.ClassDef) -> bool:
    for base in class_def.bases:
        if _name_parts(base)[-1:] in (("ABC",), ("ABCMeta",)):
            return True
    for node in class_def.body:
        if isinstance(node, _FUNCTION_TYPES):
            for decorator in node.decorator_list:
                if _name_parts(decorator)[-1:] == ("abstractmethod",):
                    return True
    return False


class ProtocolContractRule(Rule):
    """R006 — protocol subclasses implement the full engine contract."""

    rule_id = "R006"
    severity = Severity.ERROR
    summary = (
        "RoutingProtocol subclasses must define handle(self, view, packet), "
        "a name attribute, and a compatible prepare_task"
    )
    fix_hint = "match the RoutingProtocol signatures in repro/routing/base.py"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for class_def in _protocol_classes(ctx.tree):
            if _is_abstract(class_def):
                continue
            methods = {
                stmt.name: stmt
                for stmt in class_def.body
                if isinstance(stmt, _FUNCTION_TYPES)
            }
            yield from self._check_handle(ctx, class_def, methods.get("handle"))
            if "prepare_task" in methods:
                yield from self._check_prepare_task(ctx, methods["prepare_task"])
            if not self._defines_name(class_def, methods):
                yield self.finding(
                    ctx,
                    class_def,
                    f"protocol {class_def.name} never sets its 'name' attribute "
                    "(reports and figures key on it)",
                )

    def _check_handle(
        self,
        ctx: ModuleContext,
        class_def: ast.ClassDef,
        handle: Optional[_FunctionNode],
    ) -> Iterator[Finding]:
        if handle is None:
            yield self.finding(
                ctx,
                class_def,
                f"protocol {class_def.name} does not implement handle(self, view, packet)",
            )
            return
        positional = _positional_args(handle)
        required = len(positional) - len(handle.args.defaults)
        if required != 3 and handle.args.vararg is None:
            yield self.finding(
                ctx,
                handle,
                f"{class_def.name}.handle must take exactly (self, view, packet); "
                f"it requires {required} positional argument(s)",
            )

    def _check_prepare_task(
        self, ctx: ModuleContext, prepare: _FunctionNode
    ) -> Iterator[Finding]:
        positional = _positional_args(prepare)
        required = len(positional) - len(prepare.args.defaults)
        accepts_four = len(positional) >= 4 or prepare.args.vararg is not None
        if required > 4 or not accepts_four:
            yield self.finding(
                ctx,
                prepare,
                "prepare_task must accept (self, network, source_id, destination_ids)",
            )

    def _defines_name(
        self, class_def: ast.ClassDef, methods: Dict[str, _FunctionNode]
    ) -> bool:
        for stmt in class_def.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "name" for t in stmt.targets
            ):
                return True
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "name"
            ):
                return True
        init = methods.get("__init__")
        if init is None:
            return False
        for node in walk(init):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "name"
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        return True
        return False


class StatelessProtocolRule(Rule):
    """R007 — protocols never mutate the view or the packet."""

    rule_id = "R007"
    severity = Severity.ERROR
    summary = (
        "no mutation of NodeView/MulticastPacket arguments inside protocol "
        "methods (forwarding must be stateless)"
    )
    fix_hint = "use the packet's with_* copy helpers; never write through the view"

    _MUTATORS = frozenset(
        [
            "append",
            "extend",
            "insert",
            "add",
            "update",
            "remove",
            "discard",
            "pop",
            "popitem",
            "clear",
            "setdefault",
            "sort",
        ]
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for class_def in _protocol_classes(ctx.tree):
            for method in class_def.body:
                if not isinstance(method, _FUNCTION_TYPES) or method.name == "__init__":
                    continue
                params = {
                    arg.arg
                    for arg in _positional_args(method) + method.args.kwonlyargs
                    if arg.arg != "self"
                }
                if not params:
                    continue
                yield from self._check_method(ctx, class_def, method, params)

    def _check_method(
        self,
        ctx: ModuleContext,
        class_def: ast.ClassDef,
        method: _FunctionNode,
        params: Set[str],
    ) -> Iterator[Finding]:
        def param_attribute(node: ast.expr) -> Optional[str]:
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in params
            ):
                return f"{node.value.id}.{node.attr}"
            return None

        for node in walk(method):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in self._MUTATORS:
                    owner = param_attribute(node.func.value)
                    if owner is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"{class_def.name}.{method.name} mutates {owner} "
                            f"via .{node.func.attr}()",
                        )
                continue
            for target in targets:
                owner = param_attribute(target)
                if owner is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"{class_def.name}.{method.name} writes {owner}; protocol "
                        "arguments are read-only",
                    )


class InitExportsRule(Rule):
    """R008 — ``__init__.py`` re-exports and ``__all__`` stay in sync."""

    rule_id = "R008"
    severity = Severity.ERROR
    summary = "package __init__ re-exports must match __all__ exactly"
    fix_hint = "add the name to __all__ or drop the re-export"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.filename != "__init__.py":
            return
        assert isinstance(ctx.tree, ast.Module)
        imported: Dict[str, ast.stmt] = {}
        bound: Set[str] = set()
        all_node: Optional[ast.Assign] = None
        all_names: Optional[List[str]] = None
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.ImportFrom):
                internal = stmt.level > 0 or (stmt.module or "").split(".")[0] == "repro"
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name
                    bound.add(name)
                    if internal and not name.startswith("_"):
                        imported[name] = stmt
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(stmt, _FUNCTION_TYPES + (ast.ClassDef,)):
                bound.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
                        if target.id == "__all__":
                            all_node = stmt
                            all_names = self._string_list(stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                bound.add(stmt.target.id)

        if all_names is None:
            if imported:
                anchor = next(iter(imported.values()))
                yield self.finding(
                    ctx,
                    all_node or anchor,
                    "package __init__ re-exports names but defines no literal __all__",
                    fix_hint="add __all__ = [...] listing the public API",
                )
            return

        all_set = set(all_names)
        for name in sorted(set(all_names)):
            if all_names.count(name) > 1:
                yield self.finding(
                    ctx, all_node, f"__all__ lists {name!r} more than once"
                )
        for name, stmt in sorted(imported.items()):
            if name not in all_set:
                yield self.finding(
                    ctx,
                    stmt,
                    f"{name!r} is re-exported but missing from __all__",
                )
        for name in sorted(all_set - bound):
            yield self.finding(
                ctx,
                all_node,
                f"__all__ lists {name!r} but the module never binds it",
            )

    def _string_list(self, node: ast.expr) -> Optional[List[str]]:
        if not isinstance(node, (ast.List, ast.Tuple)):
            return None
        names: List[str] = []
        for element in node.elts:
            if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
                return None
            names.append(element.value)
        return names


class BareExceptRule(Rule):
    """R009 — no bare ``except:`` clauses."""

    rule_id = "R009"
    severity = Severity.ERROR
    summary = "no bare except: clauses (they swallow KeyboardInterrupt and bugs alike)"
    fix_hint = "catch a specific exception type (or Exception if truly broad)"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(ctx, node, "bare except: hides real failures")


class TypeIgnoreBudgetRule(Rule):
    """R010 — per-module budget for ``# type: ignore`` comments."""

    rule_id = "R010"
    severity = Severity.WARNING
    summary = "at most N '# type: ignore' comments per module (configurable budget)"
    fix_hint = "fix the type error, or tighten the annotation instead of ignoring it"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        budget = ctx.config.type_ignore_budget
        hits = [c for c in ctx.comments if "type: ignore" in c.text]
        if len(hits) <= budget:
            return
        overflow = hits[budget]
        yield Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=ctx.path,
            line=overflow.line,
            col=overflow.col,
            message=(
                f"{len(hits)} '# type: ignore' comments exceed the module "
                f"budget of {budget}"
            ),
            fix_hint=self.fix_hint,
        )


BUILTIN_RULES: Tuple[Type[Rule], ...] = (
    SeededRandomnessRule,
    WallClockRule,
    OrderedIterationRule,
    FloatEqualityRule,
    MutableDefaultRule,
    ProtocolContractRule,
    StatelessProtocolRule,
    InitExportsRule,
    BareExceptRule,
    TypeIgnoreBudgetRule,
)
