"""The whole-program model: modules, dotted names, and the import graph.

PR 1's reprolint looked at one module at a time, which is enough for the
syntactic rules (R001–R010) but blind to anything that flows *across*
modules: a wall-clock read three calls away from a digest, a mutation whose
cache invalidation lives in a different class, an import cycle.  This module
builds the shared substrate the graph-aware rules stand on:

* :class:`ProjectModule` — one parsed file with its dotted module name,
  suppression index and decorated-def line aliases;
* :class:`Project` — every module of one lint run, loaded in a single
  deterministic parse pass, plus the *import graph* (module-level edges
  kept apart from lazy function-level / ``TYPE_CHECKING`` imports, which
  are the sanctioned cycle-breaking idiom and therefore never count as
  cycle edges).

The call graph and symbol table live in :mod:`repro.analysis.callgraph`
and are built lazily from a :class:`Project` (one extra walk, cached).

Everything here is deterministic: files are visited in sorted order,
dictionaries are keyed by path or dotted name (never object identity), and
no step depends on hash order.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.analysis.suppressions import (
    Comment,
    SuppressionIndex,
    scan_comments,
    suppression_index,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.callgraph import CallGraph


def _normalize(path: str) -> str:
    return path.replace(os.sep, "/").replace("\\", "/")


def module_name_for(path: str, root: str = "") -> str:
    """Dotted module name of ``path`` relative to ``root``.

    ``src/`` layout prefixes are dropped; a root directory that is itself a
    package (``tests/``, ``benchmarks/``) contributes its basename, so the
    computed names match the import system's view of the repo:
    ``src/repro/network/graph.py`` → ``repro.network.graph`` and
    ``tests/analysis/test_rules.py`` → ``tests.analysis.test_rules``.
    """
    norm = _normalize(path)
    if root:
        rel = _normalize(os.path.relpath(path, root))
        root_norm = _normalize(root).rstrip("/")
        if os.path.isdir(root) and os.path.exists(os.path.join(root, "__init__.py")):
            rel = f"{os.path.basename(root_norm)}/{rel}"
        norm = rel
    parts = [p for p in norm.split("/") if p not in ("", ".", "..")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    # Drop src-layout prefixes so names line up with import names.
    while parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "module"


#: Attribute under which :func:`walk` keeps a node's walk.
_WALK_ATTR = "_reprolint_walk"


def walk(node: ast.AST) -> List[ast.AST]:
    """``list(ast.walk(node))``, computed once per node and kept on it.

    The module rules, the call graph, taint and the contract checks all
    iterate the same module and function trees, and walking dominates lint
    time, so each tree is walked once and every later pass reuses the
    list.  Same breadth-first order as :func:`ast.walk`.
    """
    found: Optional[List[ast.AST]] = node.__dict__.get(_WALK_ATTR)
    if found is not None:
        return found
    nodes: List[ast.AST] = [node]
    index = 0
    while index < len(nodes):
        current = nodes[index]
        index += 1
        for name in current._fields:
            value = getattr(current, name, None)
            if isinstance(value, ast.AST):
                nodes.append(value)
            elif isinstance(value, list):
                nodes.extend(item for item in value if isinstance(item, ast.AST))
    setattr(node, _WALK_ATTR, nodes)
    return nodes


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, resolved to a dotted target module."""

    target: str
    line: int
    #: Lazy imports (inside a function body or a ``TYPE_CHECKING`` guard)
    #: never participate in cycle detection — deferring an import is the
    #: sanctioned way to break a cycle.
    lazy: bool


def _is_type_checking_guard(node: ast.If) -> bool:
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


class ProjectModule:
    """One parsed source file plus its per-module derived structures."""

    def __init__(self, path: str, name: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.name = name
        self.source = source
        self.tree = tree
        #: Tokenized once; the suppression index and the comment rules
        #: (via ``ModuleContext.comments``) share this list.
        self.comments: List[Comment] = scan_comments(source)
        self.suppressions: SuppressionIndex = suppression_index(self.comments)
        #: def/class line → decorator lines, so a suppression comment on a
        #: decorator line also covers findings anchored at the decorated def.
        self.line_aliases: Dict[int, Tuple[int, ...]] = self._build_line_aliases(tree)
        self.import_edges: Tuple[ImportEdge, ...] = tuple(
            self._collect_imports(tree, lazy=False)
        )
        #: Module-level name bindings from imports: alias → dotted target.
        self.import_bindings: Dict[str, str] = self._build_bindings(tree)

    @staticmethod
    def _build_line_aliases(tree: ast.Module) -> Dict[int, Tuple[int, ...]]:
        aliases: Dict[int, Tuple[int, ...]] = {}
        for node in walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and node.decorator_list:
                aliases[node.lineno] = tuple(
                    sorted({d.lineno for d in node.decorator_list})
                )
        return aliases

    def _package(self) -> str:
        """The package this module lives in (itself, for ``__init__``)."""
        if self.path.replace("\\", "/").endswith("/__init__.py"):
            return self.name
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""

    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        base = self._package()
        for _ in range(node.level - 1):
            if "." not in base:
                base = ""
                break
            base = base.rsplit(".", 1)[0]
        if node.module:
            return f"{base}.{node.module}" if base else node.module
        return base or None

    def _collect_imports(self, node: ast.AST, lazy: bool) -> Iterable[ImportEdge]:
        for child in ast.iter_child_nodes(node):
            child_lazy = lazy
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                child_lazy = True
            elif isinstance(child, ast.If) and _is_type_checking_guard(child):
                child_lazy = True
            if isinstance(child, ast.Import):
                for alias in child.names:
                    yield ImportEdge(alias.name, child.lineno, lazy)
            elif isinstance(child, ast.ImportFrom):
                target = self._resolve_from(child)
                if target:
                    yield ImportEdge(target, child.lineno, lazy)
            else:
                yield from self._collect_imports(child, child_lazy)

    def _build_bindings(self, tree: ast.Module) -> Dict[str, str]:
        bindings: Dict[str, str] = {}
        collect_import_bindings(tree.body, self, bindings)
        return bindings


def collect_import_bindings(
    statements: Iterable[ast.stmt],
    module: "ProjectModule",
    bindings: Dict[str, str],
) -> None:
    """Record alias → dotted-target bindings from import statements.

    Walks compound statements (``if``/``try``) but not into nested function
    or class scopes; used both for module-level bindings and, by the call
    graph, for function-local lazy imports.
    """
    for stmt in statements:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                bindings[name] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(stmt, ast.ImportFrom):
            target = module._resolve_from(stmt)
            if target is None:
                continue
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                bindings[alias.asname or alias.name] = f"{target}.{alias.name}"
        elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    collect_import_bindings([sub], module, bindings)


@dataclass
class Project:
    """Every module of one lint run, plus lazily built whole-program views."""

    modules: List[ProjectModule] = field(default_factory=list)
    #: Files that failed to parse: path → (line, col, message).
    parse_errors: Dict[str, Tuple[int, int, str]] = field(default_factory=dict)
    _by_name: Dict[str, ProjectModule] = field(default_factory=dict)
    _by_path: Dict[str, ProjectModule] = field(default_factory=dict)
    _callgraph: Optional["CallGraph"] = None

    def add_source(self, path: str, source: str, root: str = "") -> Optional[ProjectModule]:
        """Parse and register one module; record a parse error on failure."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.parse_errors[path] = (
                exc.lineno or 1,
                (exc.offset or 1) - 1,
                exc.msg or "invalid syntax",
            )
            return None
        module = ProjectModule(path, module_name_for(path, root), source, tree)
        self.modules.append(module)
        self._by_name.setdefault(module.name, module)
        self._by_path[path] = module
        self._callgraph = None
        return module

    @classmethod
    def from_sources(
        cls, sources: Mapping[str, str], root: str = ""
    ) -> "Project":
        """Build a project from an in-memory ``{path: source}`` mapping."""
        project = cls()
        for path in sorted(sources):
            project.add_source(path, sources[path], root)
        return project

    def module_named(self, name: str) -> Optional[ProjectModule]:
        return self._by_name.get(name)

    def module_at(self, path: str) -> Optional[ProjectModule]:
        return self._by_path.get(path)

    @property
    def callgraph(self) -> "CallGraph":
        """The symbol table + approximate call graph (built once, cached)."""
        if self._callgraph is None:
            from repro.analysis.callgraph import CallGraph

            self._callgraph = CallGraph.build(self)
        return self._callgraph

    # ------------------------------------------------------------------
    # Import graph
    # ------------------------------------------------------------------

    def internal_import_graph(self, include_lazy: bool = False) -> Dict[str, List[str]]:
        """Adjacency of project-internal imports, sorted for determinism.

        An edge ``a → b`` means module ``a`` imports module ``b`` (or a
        symbol from it) at module level; lazy edges are included only on
        request.  Targets naming a symbol inside a module (``from m import
        f``) resolve to the defining module ``m``.
        """
        graph: Dict[str, List[str]] = {}
        for module in sorted(self.modules, key=lambda m: m.name):
            targets: List[str] = []
            for edge in module.import_edges:
                if edge.lazy and not include_lazy:
                    continue
                resolved = self._resolve_to_module(edge.target)
                if resolved is not None and resolved != module.name:
                    targets.append(resolved)
            graph[module.name] = sorted(set(targets))
        return graph

    def _resolve_to_module(self, dotted: str) -> Optional[str]:
        """The project module a dotted import target lands in, if any."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self._by_name:
                return candidate
        return None

    def import_cycles(self) -> List[Tuple[str, ...]]:
        """Strongly connected components with ≥ 2 modules (or a self-loop).

        Iterative Tarjan over the sorted eager import graph; each cycle is
        returned as the tuple of its member module names, sorted, and the
        cycle list itself is sorted — byte-stable output for the ratchet.
        """
        graph = self.internal_import_graph()
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Dict[str, bool] = {}
        stack: List[str] = []
        counter = [0]
        sccs: List[Tuple[str, ...]] = []

        def strongconnect(root: str) -> None:
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                node, child_index = work.pop()
                if child_index == 0:
                    index[node] = counter[0]
                    lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack[node] = True
                recurse = False
                children = graph.get(node, [])
                for position in range(child_index, len(children)):
                    child = children[position]
                    if child not in index:
                        work.append((node, position + 1))
                        work.append((child, 0))
                        recurse = True
                        break
                    if on_stack.get(child, False):
                        lowlink[node] = min(lowlink[node], index[child])
                if recurse:
                    continue
                if lowlink[node] == index[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1 or node in graph.get(node, []):
                        sccs.append(tuple(sorted(component)))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])

        for name in sorted(graph):
            if name not in index:
                strongconnect(name)
        return sorted(sccs)
