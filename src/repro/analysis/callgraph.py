"""Project-wide symbol table and approximate call graph.

Python call resolution without running the program is necessarily
approximate; this module implements the cheap four-step resolution that is
*good enough* for the contract rules and the taint pass, in one extra AST
walk over an already-parsed :class:`~repro.analysis.project.Project`:

1. **Bindings** — a plain name resolves through function-local imports,
   then the module's own top-level defs, then module-level import aliases
   (``from repro.perf.cache import clear_caches`` makes ``clear_caches()``
   an edge to ``repro.perf.cache.clear_caches``).
2. **Self/cls dispatch** — ``self.m()`` inside a method resolves in the
   enclosing class, then its project-internal bases, depth-first.
3. **Constructors** — a call that resolves to a class becomes an edge to
   its ``__init__`` when one is defined.
4. **Unique-method fallback** — ``obj.m()`` on an untyped receiver resolves
   iff exactly one class in the whole project defines method ``m``.  This
   is what connects ``self._grid.remove_point(...)`` to
   ``SpatialGrid.remove_point`` without type inference.

Nested functions and lambdas are *inlined* into their enclosing function:
their call sites belong to the outer def (a closure executes on behalf of
its owner, and findings need a stable anchor).  Module-level statements are
outside every function and contribute no edges — the syntactic rules
R001/R002 already cover direct violations there.

All tables are keyed by dotted qualname and iterated in sorted order, so
graph construction and every traversal is deterministic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.project import Project, ProjectModule, walk

#: A predicate over function qualnames, used to direct BFS searches.
CallerGoal = Callable[[str], bool]

_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def call_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """The attribute chain of a call target: ``a.b.c`` → ``("a","b","c")``.

    Returns ``None`` for computed targets (subscripts, calls, literals)
    that name-based resolution cannot follow.
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return tuple(reversed(parts))
    return None


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method, addressable by dotted qualname."""

    qualname: str
    name: str
    module_name: str
    module_path: str
    line: int
    node: ast.AST
    #: Qualname of the enclosing class, or ``None`` for module-level defs.
    class_qualname: Optional[str] = None


@dataclass
class ClassInfo:
    """One class: its methods and (resolved-where-possible) bases."""

    qualname: str
    name: str
    module_name: str
    #: Base classes resolved to project-internal class qualnames; external
    #: bases (``abc.ABC``, ``Protocol``) are dropped — they cannot carry
    #: project methods.
    bases: Tuple[str, ...] = ()
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallEdge:
    """A resolved call: ``caller`` invokes ``callee`` at ``line``."""

    caller: str
    callee: str
    line: int


class CallGraph:
    """Symbol table + call edges for one :class:`Project`."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.edges: List[CallEdge] = []
        self.out_edges: Dict[str, List[CallEdge]] = {}
        self.in_edges: Dict[str, List[CallEdge]] = {}
        #: method name → sorted qualnames of every definition project-wide.
        self.method_index: Dict[str, List[str]] = {}
        #: Every identifier mentioned anywhere: ``Name.id``, attribute
        #: names, import aliases and identifier-shaped or dotted-path string
        #: constants (each component of ``"pkg.mod.Class._helper"`` counts,
        #: as registries such as ``SCALAR_REFERENCES`` name functions that
        #: way).  The raw material for reachability-style dead-code checks.
        self.referenced_names: Set[str] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        graph = cls()
        modules = sorted(project.modules, key=lambda m: m.name)
        for module in modules:
            graph._collect_definitions(module)
        for module in modules:
            graph._collect_references(module)
        graph._index_methods()
        graph._resolve_bases(project)
        for module in modules:
            graph._collect_calls(module)
        graph._index_edges()
        return graph

    def _collect_definitions(self, module: ProjectModule) -> None:
        for stmt in module.tree.body:
            if isinstance(stmt, _FunctionNode):
                self._add_function(module, stmt, class_qualname=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(module, stmt)

    def _add_function(
        self,
        module: ProjectModule,
        node: ast.AST,
        class_qualname: Optional[str],
    ) -> None:
        name = getattr(node, "name", "<lambda>")
        owner = class_qualname or module.name
        info = FunctionInfo(
            qualname=f"{owner}.{name}",
            name=name,
            module_name=module.name,
            module_path=module.path,
            line=getattr(node, "lineno", 1),
            node=node,
            class_qualname=class_qualname,
        )
        self.functions.setdefault(info.qualname, info)

    def _add_class(self, module: ProjectModule, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        info = ClassInfo(qualname=qualname, name=node.name, module_name=module.name)
        raw_bases: List[str] = []
        for base in node.bases:
            chain = call_chain(base)
            if chain is not None:
                raw_bases.append(".".join(chain))
        info.bases = tuple(raw_bases)  # resolved against the project later
        for stmt in node.body:
            if isinstance(stmt, _FunctionNode):
                info.methods[stmt.name] = f"{qualname}.{stmt.name}"
                self._add_function(module, stmt, class_qualname=qualname)
        self.classes.setdefault(qualname, info)

    def _index_methods(self) -> None:
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            if info.class_qualname is not None:
                self.method_index.setdefault(info.name, []).append(qualname)

    def _resolve_bases(self, project: Project) -> None:
        for qualname in sorted(self.classes):
            info = self.classes[qualname]
            module = project.module_named(info.module_name)
            if module is None:
                continue
            resolved: List[str] = []
            for raw in info.bases:
                target = self._resolve_dotted(raw, module)
                if target is not None and target in self.classes:
                    resolved.append(target)
            info.bases = tuple(resolved)

    def _resolve_dotted(self, dotted: str, module: ProjectModule) -> Optional[str]:
        """Map a written name to a project qualname via module bindings."""
        parts = dotted.split(".")
        head = parts[0]
        local = f"{module.name}.{head}"
        if local in self.classes or local in self.functions:
            return ".".join([local] + parts[1:])
        bound = module.import_bindings.get(head)
        if bound is not None:
            return ".".join([bound] + parts[1:])
        return None

    def _collect_references(self, module: ProjectModule) -> None:
        for node in walk(module.tree):
            if isinstance(node, ast.Name):
                self.referenced_names.add(node.id)
            elif isinstance(node, ast.Attribute):
                self.referenced_names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    self.referenced_names.update(parts)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    self.referenced_names.add(alias.name.split(".")[-1])
                    if alias.asname:
                        self.referenced_names.add(alias.asname)

    # ------------------------------------------------------------------
    # Call extraction
    # ------------------------------------------------------------------

    def _collect_calls(self, module: ProjectModule) -> None:
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            if info.module_name != module.name or info.module_path != module.path:
                continue
            local_bindings = self._local_import_bindings(module, info.node)
            for call in self._iter_calls(info.node):
                chain = call_chain(call.func)
                if chain is None:
                    continue
                callee = self._resolve_call(chain, module, info, local_bindings)
                if callee is not None and callee != qualname:
                    self.edges.append(CallEdge(qualname, callee, call.lineno))

    @staticmethod
    def _local_import_bindings(
        module: ProjectModule, node: ast.AST
    ) -> Dict[str, str]:
        bindings: Dict[str, str] = {}
        for sub in walk(node):
            if isinstance(sub, ast.Import):
                for alias in sub.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bindings[name] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(sub, ast.ImportFrom):
                target = module._resolve_from(sub)
                if target is None:
                    continue
                for alias in sub.names:
                    if alias.name != "*":
                        bindings[alias.asname or alias.name] = f"{target}.{alias.name}"
        return bindings

    @staticmethod
    def _iter_calls(node: ast.AST) -> Iterator[ast.Call]:
        """All calls in a function, nested defs and lambdas included."""
        for sub in walk(node):
            if isinstance(sub, ast.Call):
                yield sub

    def _resolve_call(
        self,
        chain: Tuple[str, ...],
        module: ProjectModule,
        caller: FunctionInfo,
        local_bindings: Dict[str, str],
    ) -> Optional[str]:
        head = chain[0]
        # Step 2: self/cls dispatch through the project-internal MRO.
        if head in ("self", "cls") and caller.class_qualname is not None:
            if len(chain) == 2:
                target = self._lookup_method(caller.class_qualname, chain[1])
                if target is not None:
                    return target
            return self._unique_method(chain[-1])
        # Step 1: bindings — local imports shadow module defs shadow
        # module-level import aliases.
        prefix: Optional[str] = None
        if head in local_bindings:
            prefix = local_bindings[head]
        else:
            local = f"{module.name}.{head}"
            if local in self.functions or local in self.classes:
                prefix = local
            elif head in module.import_bindings:
                prefix = module.import_bindings[head]
        if prefix is not None:
            dotted = ".".join([prefix] + list(chain[1:]))
            resolved = self._lookup_qualname(dotted)
            if resolved is not None:
                return resolved
        # Step 4: unique-method fallback for attribute calls on untyped
        # receivers (the common ``self._grid.remove_point(...)`` shape).
        if len(chain) >= 2:
            return self._unique_method(chain[-1])
        return None

    def _lookup_qualname(self, dotted: str) -> Optional[str]:
        if dotted in self.functions:
            return dotted
        if dotted in self.classes:
            # Step 3: constructing a class calls its __init__.
            return self.classes[dotted].methods.get("__init__")
        # ``ClassName.method`` called unbound, or through a module alias.
        if "." in dotted:
            owner, attr = dotted.rsplit(".", 1)
            if owner in self.classes:
                target = self._lookup_method(owner, attr)
                if target is not None:
                    return target
        return None

    def _lookup_method(self, class_qualname: str, method: str) -> Optional[str]:
        seen: Set[str] = set()
        queue: List[str] = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            queue.extend(info.bases)
        return None

    def _unique_method(self, method: str) -> Optional[str]:
        candidates = self.method_index.get(method, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _index_edges(self) -> None:
        self.edges.sort(key=lambda e: (e.caller, e.callee, e.line))
        for edge in self.edges:
            self.out_edges.setdefault(edge.caller, []).append(edge)
            self.in_edges.setdefault(edge.callee, []).append(edge)

    # ------------------------------------------------------------------
    # Traversal helpers
    # ------------------------------------------------------------------

    def reachable_from(self, qualname: str) -> Set[str]:
        """Every function transitively callable from ``qualname``."""
        seen: Set[str] = set()
        queue: List[str] = [qualname]
        while queue:
            current = queue.pop(0)
            for edge in self.out_edges.get(current, []):
                if edge.callee not in seen:
                    seen.add(edge.callee)
                    queue.append(edge.callee)
        return seen

    def shortest_caller_path(
        self, target: str, is_goal: CallerGoal
    ) -> Optional[List[str]]:
        """BFS over *caller* edges from ``target`` to the nearest goal.

        Returns the path goal-first (``[goal, ..., target]``), which reads
        in call order: the goal invokes its way down to ``target``.  Ties
        break on sorted qualname, so reported chains are stable.
        """
        if is_goal(target):
            return [target]
        parents: Dict[str, str] = {}
        seen: Set[str] = {target}
        frontier: List[str] = [target]
        while frontier:
            next_frontier: List[str] = []
            for current in frontier:
                for edge in self.in_edges.get(current, []):
                    caller = edge.caller
                    if caller in seen:
                        continue
                    seen.add(caller)
                    parents[caller] = current
                    if is_goal(caller):
                        path = [caller]
                        while path[-1] != target:
                            path.append(parents[path[-1]])
                        return path
                    next_frontier.append(caller)
            frontier = sorted(next_frontier)
        return None
