"""Contract rules R012–R017: the cross-file invariants PRs 2–4 introduced.

These rules pin promises that live in *pairs of files*: a mutator here must
invalidate a cache there; a batch kernel here must have a scalar reference
and a parity test there; a record field here must be classified by the
digest policy there.  None of them is expressible per-module, which is why
they ride on the :class:`~repro.analysis.project.Project` call graph.

* **R012** — a method that mutates guarded network/grid state must reach a
  cache-invalidation call, or queries against the mutated object silently
  answer from stale caches.
* **R013** — every public batch kernel must appear in the kernels module's
  ``SCALAR_REFERENCES`` registry with a resolvable scalar reference, and be
  exercised by a parity test module.
* **R014** — every field of the digest-relevant record dataclasses must be
  declared digest-included or digest-excluded in the digest policy module;
  adding a field without deciding its digest fate is how silent
  reproducibility holes appear.
* **R015** — no module-level import cycles (lazy/``TYPE_CHECKING`` imports
  are the sanctioned break and do not count).
* **R016** — private functions never referenced anywhere in the project are
  dead code (warning; reference tracking is name-based and conservative —
  any mention by name anywhere keeps a function alive).
* **R017** — methods mutating state that may alias read-only shared-memory
  plane segments (:mod:`repro.perf.shm`) must reach a copy-on-write call,
  so pool workers' mutations stay worker-local instead of crashing on (or
  silently diverging from) the shared buffers.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Type

from repro.analysis.callgraph import CallGraph, call_chain
from repro.analysis.engine import LintConfig, ProjectRule, path_matches
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project, ProjectModule, walk

_FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
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


def _guarded_attr(node: ast.expr, guarded: frozenset) -> Optional[str]:
    """The guarded ``self.X`` attribute a target expression touches, if any.

    Handles ``self.X``, ``self.X[...]`` and nested subscripts.
    """
    current = node
    while isinstance(current, ast.Subscript):
        current = current.value
    if (
        isinstance(current, ast.Attribute)
        and isinstance(current.value, ast.Name)
        and current.value.id == "self"
        and current.attr in guarded
    ):
        return current.attr
    return None


class CacheInvalidationRule(ProjectRule):
    """R012 — guarded-state mutators must reach a cache invalidation.

    The structural skeleton — "a method mutating guarded ``self`` state
    must reach one of a set of sanctioned calls" — is shared with R017
    (:class:`SharedMutationRule`) through the ``_scopes`` / ``_guarded`` /
    ``_required`` / ``_message`` hooks; only the config fields and the
    story differ.
    """

    rule_id = "R012"
    severity = Severity.ERROR
    summary = (
        "methods mutating guarded network/grid state must reach a "
        "cache-invalidation call on some path"
    )
    fix_hint = (
        "call the owning class's invalidator (_invalidate_node / "
        "_refresh_cell / clear_caches) after the mutation"
    )

    def _scopes(self, config: LintConfig) -> Tuple[str, ...]:
        return config.mutation_scopes

    def _guarded(self, config: LintConfig) -> Tuple[str, ...]:
        return config.mutation_guarded_attrs

    def _required(self, config: LintConfig) -> Tuple[str, ...]:
        return config.invalidation_calls

    def _exempt(self, config: LintConfig) -> Tuple[str, ...]:
        # The copy-on-write hooks (R017's sanctioned calls) replace guarded
        # arrays with value-identical copies: no query answer can change,
        # so no cache can go stale and R012 does not apply to them.
        return config.cow_calls

    def _message(self, qualname: str, attrs: str) -> str:
        return (
            f"{qualname} mutates guarded state ({attrs}) without "
            "reaching a cache-invalidation call"
        )

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        guarded = frozenset(self._guarded(config))
        required = frozenset(self._required(config))
        exempt = frozenset(self._exempt(config))
        graph = project.callgraph
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            if info.class_qualname is None:
                continue
            if not path_matches(info.module_path, self._scopes(config)):
                continue
            if info.name == "__init__" or info.name in required:
                continue
            if info.name in exempt:
                continue
            mutated = self._mutated_attrs(info.node, guarded)
            if not mutated:
                continue
            if self._reaches_invalidation(graph, qualname, info.node, required):
                continue
            attrs = ", ".join(repr(a) for a in sorted(mutated))
            yield self.project_finding(
                path=info.module_path,
                line=info.line,
                col=0,
                message=self._message(qualname, attrs),
            )

    def _mutated_attrs(self, node: ast.AST, guarded: frozenset) -> Set[str]:
        mutated: Set[str] = set()
        for sub in walk(node):
            targets: List[ast.expr] = []
            if isinstance(sub, ast.Assign):
                targets = list(sub.targets)
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                targets = [sub.target]
            elif isinstance(sub, ast.Delete):
                targets = list(sub.targets)
            elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                if sub.func.attr in _MUTATOR_METHODS:
                    attr = _guarded_attr(sub.func.value, guarded)
                    if attr is not None:
                        mutated.add(attr)
                continue
            for target in targets:
                attr = _guarded_attr(target, guarded)
                if attr is not None:
                    mutated.add(attr)
        return mutated

    def _reaches_invalidation(
        self,
        graph: CallGraph,
        qualname: str,
        node: ast.AST,
        invalidators: frozenset,
    ) -> bool:
        # Direct call by name — robust even when graph resolution fails.
        for sub in walk(node):
            if isinstance(sub, ast.Call):
                chain = call_chain(sub.func)
                if chain is not None and chain[-1] in invalidators:
                    return True
        # Transitive: some reachable callee is an invalidator.
        for callee in graph.reachable_from(qualname):
            info = graph.functions.get(callee)
            if info is not None and info.name in invalidators:
                return True
        return False


class SharedMutationRule(CacheInvalidationRule):
    """R017 — shared-plane-backed state is only mutated behind a CoW call.

    Networks attached from the shared-memory plane
    (:mod:`repro.perf.shm`) alias read-only segments mapped into every
    worker; a method that writes those attributes without first going
    through the copy-on-write API either crashes (the buffers are
    read-only) or — worse, on a privately rebuilt network — silently
    diverges from pooled runs.  Same skeleton as R012, different config
    fields and required calls.
    """

    rule_id = "R017"
    severity = Severity.ERROR
    summary = (
        "methods mutating shared-plane-backed network state must reach "
        "a copy-on-write call on some path"
    )
    fix_hint = (
        "call the copy-on-write hook (_ensure_private_node_state / "
        "_ensure_private_points) before the mutation"
    )

    def _scopes(self, config: LintConfig) -> Tuple[str, ...]:
        return config.shared_mutation_scopes

    def _guarded(self, config: LintConfig) -> Tuple[str, ...]:
        return config.shared_guarded_attrs

    def _required(self, config: LintConfig) -> Tuple[str, ...]:
        return config.cow_calls

    def _message(self, qualname: str, attrs: str) -> str:
        return (
            f"{qualname} mutates shared-plane-backed state ({attrs}) "
            "without reaching a copy-on-write call"
        )


def _literal_str_dict(node: ast.expr) -> Optional[Dict[str, Tuple[ast.expr, int]]]:
    """Parse ``{"key": value}`` with string keys; value kept as AST + line."""
    if not isinstance(node, ast.Dict):
        return None
    out: Dict[str, Tuple[ast.expr, int]] = {}
    for key, value in zip(node.keys, node.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        out[key.value] = (value, key.lineno)
    return out


def _module_assignment(
    module: ProjectModule, name: str
) -> Optional[Tuple[ast.expr, int]]:
    """The value expression of a top-level ``name = ...`` assignment."""
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return stmt.value, stmt.lineno
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name) and stmt.target.id == name:
                return stmt.value, stmt.lineno
    return None


class KernelParityRule(ProjectRule):
    """R013 — batch kernels need registered scalar references and tests."""

    rule_id = "R013"
    severity = Severity.ERROR
    summary = (
        "every public perf kernel must have a SCALAR_REFERENCES entry "
        "resolving to real code and a parity test referencing it"
    )
    fix_hint = (
        "register the kernel's scalar reference in SCALAR_REFERENCES and "
        "add an exact-parity test under tests/perf/"
    )

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        kernel_modules = [
            m for m in project.modules if path_matches(m.path, config.kernel_modules)
        ]
        if not kernel_modules:
            return
        graph = project.callgraph
        test_identifiers = self._test_identifiers(project, config)
        for module in sorted(kernel_modules, key=lambda m: m.path):
            yield from self._check_module(
                module, graph, config, test_identifiers
            )

    def _check_module(
        self,
        module: ProjectModule,
        graph: CallGraph,
        config: LintConfig,
        test_identifiers: Optional[Set[str]],
    ) -> Iterator[Finding]:
        kernels: Dict[str, ast.AST] = {
            stmt.name: stmt
            for stmt in module.tree.body
            if isinstance(stmt, _FUNCTION_TYPES)
            and not stmt.name.startswith("_")
        }
        registry_assignment = _module_assignment(module, "SCALAR_REFERENCES")
        registry: Dict[str, Tuple[ast.expr, int]] = {}
        registry_line = 1
        if registry_assignment is not None:
            parsed = _literal_str_dict(registry_assignment[0])
            registry_line = registry_assignment[1]
            if parsed is None:
                yield self.project_finding(
                    path=module.path,
                    line=registry_line,
                    col=0,
                    message=(
                        "SCALAR_REFERENCES must be a literal dict of "
                        "kernel name -> dotted scalar reference"
                    ),
                )
                return
            registry = parsed
        for name in sorted(kernels):
            node = kernels[name]
            if name not in registry:
                yield self.project_finding(
                    path=module.path,
                    line=getattr(node, "lineno", 1),
                    col=0,
                    message=(
                        f"batch kernel '{name}' has no SCALAR_REFERENCES "
                        "entry naming its scalar reference"
                    ),
                )
            if test_identifiers is not None and name not in test_identifiers:
                yield self.project_finding(
                    path=module.path,
                    line=getattr(node, "lineno", 1),
                    col=0,
                    message=(
                        f"batch kernel '{name}' is not referenced by any "
                        "parity test module"
                    ),
                )
        for name in sorted(registry):
            value, line = registry[name]
            if name not in kernels:
                yield self.project_finding(
                    path=module.path,
                    line=line,
                    col=0,
                    message=(
                        f"SCALAR_REFERENCES entry '{name}' matches no "
                        "public kernel in this module"
                    ),
                )
                continue
            if not (isinstance(value, ast.Constant) and isinstance(value.value, str)):
                yield self.project_finding(
                    path=module.path,
                    line=line,
                    col=0,
                    message=(
                        f"SCALAR_REFERENCES entry '{name}' must be a dotted "
                        "qualname string"
                    ),
                )
                continue
            if graph.functions.get(value.value) is None:
                yield self.project_finding(
                    path=module.path,
                    line=line,
                    col=0,
                    message=(
                        f"scalar reference '{value.value}' for kernel "
                        f"'{name}' does not resolve to a known function"
                    ),
                )

    def _test_identifiers(
        self, project: Project, config: LintConfig
    ) -> Optional[Set[str]]:
        """Identifiers mentioned in parity-test modules; None if not loaded."""
        test_modules = [
            m
            for m in project.modules
            if path_matches(m.path, config.kernel_test_scopes)
        ]
        if not test_modules:
            return None
        names: Set[str] = set()
        for module in test_modules:
            for node in walk(module.tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        names.add(alias.name.split(".")[-1])
                        if alias.asname:
                            names.add(alias.asname)
        return names


def _dataclass_records(
    module: ProjectModule,
) -> Iterator[Tuple[str, List[Tuple[str, int]]]]:
    """(class name, [(field, line), ...]) for every @dataclass in a module."""
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        decorated = False
        for decorator in stmt.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            chain = call_chain(target)
            if chain is not None and chain[-1] == "dataclass":
                decorated = True
        if not decorated:
            continue
        fields: List[Tuple[str, int]] = []
        for item in stmt.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                annotation = call_chain(item.annotation)
                if annotation is not None and annotation[-1] == "ClassVar":
                    continue
                fields.append((item.target.id, item.lineno))
        yield stmt.name, fields


class DigestFieldPolicyRule(ProjectRule):
    """R014 — every record field is digest-included or digest-excluded."""

    rule_id = "R014"
    severity = Severity.ERROR
    summary = (
        "every field of the trace/result record dataclasses must be "
        "declared in DIGEST_INCLUDED_FIELDS or DIGEST_EXCLUDED_FIELDS"
    )
    fix_hint = (
        "declare the field in engine/digest.py's policy tables (and make "
        "the serialization match)"
    )

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        policy_modules = [
            m
            for m in project.modules
            if path_matches(m.path, config.digest_policy_modules)
        ]
        record_modules = [
            m
            for m in project.modules
            if path_matches(m.path, config.digest_record_scopes)
        ]
        if not policy_modules or not record_modules:
            return
        policy = policy_modules[0]
        tables: Dict[str, Dict[str, Tuple[ast.expr, int]]] = {}
        for table_name in ("DIGEST_INCLUDED_FIELDS", "DIGEST_EXCLUDED_FIELDS"):
            assignment = _module_assignment(policy, table_name)
            parsed = (
                _literal_str_dict(assignment[0]) if assignment is not None else None
            )
            if parsed is None:
                yield self.project_finding(
                    path=policy.path,
                    line=assignment[1] if assignment is not None else 1,
                    col=0,
                    message=(
                        f"digest policy module must define {table_name} as a "
                        "literal dict of record name -> field-name tuple"
                    ),
                )
                return
            tables[table_name] = parsed
        included = self._field_sets(tables["DIGEST_INCLUDED_FIELDS"])
        excluded = self._field_sets(tables["DIGEST_EXCLUDED_FIELDS"])
        records: Dict[str, List[Tuple[str, int]]] = {}
        record_paths: Dict[str, str] = {}
        for module in sorted(record_modules, key=lambda m: m.path):
            for class_name, fields in _dataclass_records(module):
                records.setdefault(class_name, fields)
                record_paths.setdefault(class_name, module.path)
        for class_name in sorted(records):
            for field_name, line in records[class_name]:
                in_included = field_name in included.get(class_name, set())
                in_excluded = field_name in excluded.get(class_name, set())
                if in_included and in_excluded:
                    yield self.project_finding(
                        path=record_paths[class_name],
                        line=line,
                        col=0,
                        message=(
                            f"field '{field_name}' of {class_name} is declared "
                            "both digest-included and digest-excluded"
                        ),
                    )
                elif not in_included and not in_excluded:
                    yield self.project_finding(
                        path=record_paths[class_name],
                        line=line,
                        col=0,
                        message=(
                            f"field '{field_name}' of {class_name} is not "
                            "declared digest-included or digest-excluded"
                        ),
                    )
        for table_name, table in sorted(tables.items()):
            sets = self._field_sets(table)
            for class_name in sorted(sets):
                line = table[class_name][1]
                if class_name not in records:
                    yield self.project_finding(
                        path=policy.path,
                        line=line,
                        col=0,
                        message=(
                            f"{table_name} declares fields for unknown "
                            f"record '{class_name}'"
                        ),
                    )
                    continue
                known = {field for field, _ in records[class_name]}
                for field_name in sorted(sets[class_name] - known):
                    yield self.project_finding(
                        path=policy.path,
                        line=line,
                        col=0,
                        message=(
                            f"{table_name} declares unknown field "
                            f"'{field_name}' on {class_name}"
                        ),
                    )

    def _field_sets(
        self, table: Dict[str, Tuple[ast.expr, int]]
    ) -> Dict[str, Set[str]]:
        out: Dict[str, Set[str]] = {}
        for class_name, (value, _line) in table.items():
            names: Set[str] = set()
            if isinstance(value, (ast.Tuple, ast.List)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        names.add(element.value)
            out[class_name] = names
        return out


class ImportCycleRule(ProjectRule):
    """R015 — no module-level import cycles."""

    rule_id = "R015"
    severity = Severity.ERROR
    summary = "no eager (module-level) import cycles between project modules"
    fix_hint = (
        "defer one edge of the cycle: move the import into the function "
        "that needs it or under a TYPE_CHECKING guard"
    )

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        for cycle in project.import_cycles():
            anchor = project.module_named(cycle[0])
            if anchor is None:
                continue
            loop = " -> ".join(cycle + (cycle[0],))
            yield self.project_finding(
                path=anchor.path,
                line=1,
                col=0,
                message=f"module-level import cycle: {loop}",
            )


class DeadPrivateCodeRule(ProjectRule):
    """R016 — private functions never referenced anywhere are dead."""

    rule_id = "R016"
    severity = Severity.WARNING
    summary = (
        "private (underscore) functions never referenced by name anywhere "
        "in the project are dead code"
    )
    fix_hint = "delete the function, or reference it from the code that needs it"

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        graph = project.callgraph
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            if not info.name.startswith("_"):
                continue
            if info.name.startswith("__") and info.name.endswith("__"):
                continue
            if not path_matches(info.module_path, config.dead_code_scopes):
                continue
            if getattr(info.node, "decorator_list", []):
                continue  # registered via decorator (property, fixture, ...)
            if info.name in graph.referenced_names:
                continue
            if graph.in_edges.get(qualname):
                continue
            yield self.project_finding(
                path=info.module_path,
                line=info.line,
                col=0,
                message=(
                    f"private function {qualname} is never referenced "
                    "anywhere in the project"
                ),
            )


CONTRACT_RULES: Tuple[Type[ProjectRule], ...] = (
    CacheInvalidationRule,
    KernelParityRule,
    DigestFieldPolicyRule,
    ImportCycleRule,
    DeadPrivateCodeRule,
    SharedMutationRule,
)
