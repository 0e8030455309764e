"""The reprolint engine: rule registry, contexts and the lint driver.

Two kinds of rules coexist in one registry:

* **module rules** (:class:`Rule`, R001–R010) see one
  :class:`ModuleContext` at a time — path, source, AST, comments, config;
* **project rules** (:class:`ProjectRule`, R011–R016) see the whole
  :class:`~repro.analysis.project.Project` — symbol table, import graph,
  call graph — and may anchor findings in any module.

The driver loads every file into a project in one parse pass, runs both
kinds, then post-processes findings in a fixed order: the *relaxed profile*
drops exempt rules for test/script/benchmark paths, suppression comments
(decorator-line aware) move findings to the suppressed list, and any
directive that silenced nothing becomes a W001 stale-suppression warning.

The engine is deliberately deterministic itself: files are visited in
sorted order, findings are sorted, and no rule may depend on hash order.
"""

from __future__ import annotations

import abc
import ast
import os
from dataclasses import dataclass, field
from typing import (
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project, ProjectModule
from repro.analysis.suppressions import Comment, Directive

#: Rule id reserved for files the parser rejects outright.
PARSE_ERROR_RULE = "E000"

#: Rule id for suppression directives that silence nothing (engine-level,
#: like E000 — not in the registry, but suppressible like any other rule).
STALE_SUPPRESSION_RULE = "W001"

_STALE_FIX_HINT = "remove the stale '# reprolint: disable' comment"


@dataclass(frozen=True)
class LintConfig:
    """Project-level knobs for the rule set.

    Path patterns are POSIX-style suffixes: a pattern ending in ``/``
    matches any file under a directory of that relative path; otherwise it
    must match the file's relative path exactly (suffix-anchored at a path
    separator).
    """

    #: Modules allowed to own raw RNG construction (R001 skips them).
    rng_modules: Tuple[str, ...] = ("repro/simkit/rng.py",)
    #: Modules hosting the sanctioned epsilon helpers (R004 skips them).
    epsilon_modules: Tuple[str, ...] = (
        "repro/geometry/primitives.py",
        "repro/geometry/point.py",
    )
    #: Decision-making layers where unordered iteration is an error (R003).
    ordered_iteration_scopes: Tuple[str, ...] = (
        "repro/routing/",
        "repro/steiner/",
        "repro/engine/",
    )
    #: Call names whose results are float distances (R004 operand test).
    distance_functions: Tuple[str, ...] = (
        "distance",
        "distance_sq",
        "hypot",
        "norm",
        "total_distance",
        "total_length",
        "total_meters",
        "mean_hop_meters",
        "fermat_total_length",
        "root_path_length",
    )
    #: Maximum ``# type: ignore`` comments per module (R010).
    type_ignore_budget: int = 2
    #: Paths never loaded by :func:`analyze_paths` (the seeded-violation
    #: fixture corpus must not pollute whole-repo runs).
    exclude_paths: Tuple[str, ...] = ("tests/analysis/corpus/",)
    #: Paths linted under the relaxed profile: tests and tooling may
    #: intentionally misbehave (ad-hoc RNG, timing asserts).
    relaxed_scopes: Tuple[str, ...] = ("tests/", "scripts/", "benchmarks/")
    #: Rules the relaxed profile exempts entirely in those scopes.  R004 is
    #: here because tests *assert* exact float equality on purpose — the
    #: bit-identity contracts are verified with ``==``, never ``isclose``.
    relaxed_exempt_rules: Tuple[str, ...] = (
        "R001",
        "R002",
        "R004",
        "R010",
        "R011",
    )
    #: Modules whose functions are digest-relevant taint sinks (R011).
    taint_sink_scopes: Tuple[str, ...] = (
        "repro/engine/",
        "repro/experiments/",
        "repro/fuzz/",
    )
    #: Modules whose classes hold cache-guarded mutable state (R012).
    mutation_scopes: Tuple[str, ...] = ("repro/network/",)
    #: ``self.<attr>`` names whose mutation must reach an invalidator.
    mutation_guarded_attrs: Tuple[str, ...] = (
        "_neighbors",
        "_cells",
        "_points",
        "locations",
        "nodes",
        "_failed",
        "alive",
        "indices",
    )
    #: Function names that count as cache invalidation (R012).
    invalidation_calls: Tuple[str, ...] = (
        "_invalidate_node",
        "_refresh_cell",
        "clear_caches",
        "invalidate",
    )
    #: Modules holding batch kernels that need scalar references (R013).
    kernel_modules: Tuple[str, ...] = ("repro/perf/kernels.py",)
    #: Modules whose identifiers count as kernel parity-test coverage.
    kernel_test_scopes: Tuple[str, ...] = ("tests/perf/",)
    #: Module declaring DIGEST_INCLUDED_FIELDS / DIGEST_EXCLUDED_FIELDS.
    digest_policy_modules: Tuple[str, ...] = ("repro/engine/digest.py",)
    #: Modules whose dataclasses every digest policy entry must cover.
    digest_record_scopes: Tuple[str, ...] = (
        "repro/engine/trace.py",
        "repro/engine/stats.py",
    )
    #: Scopes where unreferenced private functions are reported (R016).
    dead_code_scopes: Tuple[str, ...] = ("repro/",)
    #: Modules whose classes may hold shared-memory-backed state (R017).
    shared_mutation_scopes: Tuple[str, ...] = ("repro/network/",)
    #: ``self.<attr>`` names that may alias shared-plane segments; mutating
    #: them must go through a copy-on-write call first (R017).
    shared_guarded_attrs: Tuple[str, ...] = (
        "locations",
        "alive",
        "residual_energy_j",
        "_points",
    )
    #: Function names that count as the copy-on-write API (R017): they
    #: privatize (or deliberately install) the shared arrays, so methods
    #: reaching one — and the hooks themselves — are compliant.
    cow_calls: Tuple[str, ...] = (
        "_ensure_private_node_state",
        "_ensure_private_points",
        "adopt_shared_arrays",
    )


def _normalize(path: str) -> str:
    return path.replace(os.sep, "/").replace("\\", "/")


def path_matches(path: str, patterns: Sequence[str]) -> bool:
    """Whether ``path`` matches any configured path pattern."""
    norm = "/" + _normalize(path).lstrip("/")
    for pattern in patterns:
        pattern = pattern.strip("/") + ("/" if pattern.endswith("/") else "")
        if pattern.endswith("/"):
            if f"/{pattern}" in norm + "/":
                return True
        elif norm == f"/{pattern}" or norm.endswith(f"/{pattern}"):
            return True
    return False


class ModuleContext:
    """Everything a module rule may look at for one module."""

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.AST,
        config: LintConfig,
        comments: List[Comment],
    ) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.config = config
        #: The module's comments, tokenized once by ``ProjectModule``.
        self.comments = comments

    @property
    def filename(self) -> str:
        return _normalize(self.path).rsplit("/", 1)[-1]

    def in_module(self, patterns: Sequence[str]) -> bool:
        return path_matches(self.path, patterns)


class Rule(abc.ABC):
    """One module-local lint rule: an id, a severity and an AST check."""

    rule_id: ClassVar[str]
    severity: ClassVar[Severity] = Severity.ERROR
    #: One-line description shown by ``repro lint --list-rules``.
    summary: ClassVar[str] = ""
    #: Default remediation advice (a finding may override it).
    fix_hint: ClassVar[str] = ""

    @abc.abstractmethod
    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""

    def finding(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        message: str,
        fix_hint: Optional[str] = None,
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            fix_hint=self.fix_hint if fix_hint is None else fix_hint,
        )


class ProjectRule(abc.ABC):
    """One whole-program rule: sees the project, anchors findings anywhere."""

    rule_id: ClassVar[str]
    severity: ClassVar[Severity] = Severity.ERROR
    summary: ClassVar[str] = ""
    fix_hint: ClassVar[str] = ""

    @abc.abstractmethod
    def check_project(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        """Yield findings over the whole project."""

    def project_finding(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
        fix_hint: Optional[str] = None,
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=path,
            line=line,
            col=col,
            message=message,
            fix_hint=self.fix_hint if fix_hint is None else fix_hint,
        )


#: Either flavor of rule; the registry and driver handle both.
LintRule = Union[Rule, ProjectRule]
RuleType = Union[Type[Rule], Type[ProjectRule]]


class RuleRegistry:
    """Id-keyed collection of rule classes (module and project rules)."""

    def __init__(self) -> None:
        self._rules: Dict[str, RuleType] = {}

    def register(self, rule_cls: RuleType) -> RuleType:
        rule_id = rule_cls.rule_id
        if rule_id in self._rules:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        self._rules[rule_id] = rule_cls
        return rule_cls

    def rule_ids(self) -> List[str]:
        return sorted(self._rules)

    def create_rules(self, only: Optional[Sequence[str]] = None) -> List[LintRule]:
        ids = self.rule_ids() if only is None else list(only)
        rules: List[LintRule] = []
        for rule_id in ids:
            if rule_id not in self._rules:
                raise KeyError(f"unknown rule id {rule_id!r}")
            rules.append(self._rules[rule_id]())
        return rules

    def summaries(self) -> List[Tuple[str, str, str]]:
        """(rule id, severity, summary) rows for ``--list-rules``."""
        return [
            (rule_id, self._rules[rule_id].severity.value, self._rules[rule_id].summary)
            for rule_id in self.rule_ids()
        ]


def default_registry() -> RuleRegistry:
    """The registry with every built-in rule (imported lazily)."""
    from repro.analysis import contracts as _contracts
    from repro.analysis import rules as _rules
    from repro.analysis import taint as _taint

    registry = RuleRegistry()
    for rule_cls in (
        _rules.BUILTIN_RULES + _taint.TAINT_RULES + _contracts.CONTRACT_RULES
    ):
        registry.register(rule_cls)
    return registry


@dataclass
class LintReport:
    """Aggregate outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    directive_count: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def merge(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.files_checked += other.files_checked
        self.directive_count += other.directive_count

    def sorted_findings(self) -> List[Finding]:
        return sorted(self.findings, key=Finding.sort_key)

    def render(self) -> str:
        lines = [finding.render() for finding in self.sorted_findings()]
        noun = "finding" if len(self.findings) == 1 else "findings"
        lines.append(
            f"reprolint: {len(self.findings)} {noun} in {self.files_checked} "
            f"file(s) ({len(self.suppressed)} suppressed)"
        )
        return "\n".join(lines)


def _candidate_lines(module: ProjectModule, line: int) -> Tuple[int, ...]:
    """The finding's line plus decorator lines of a def anchored there."""
    return (line,) + module.line_aliases.get(line, ())


def _directive_matches(
    directive: Directive, rule_id: str, lines: Tuple[int, ...]
) -> bool:
    if rule_id not in directive.rules and "all" not in directive.rules:
        return False
    return directive.standalone or directive.line in lines


def _suppress(
    module: ProjectModule,
    finding: Finding,
    used: Set[Tuple[str, int, int]],
) -> bool:
    """Whether a directive silences ``finding``; marks matches as used."""
    lines = _candidate_lines(module, finding.line)
    matched = False
    for directive in module.suppressions.directives:
        if _directive_matches(directive, finding.rule_id, lines):
            used.add((module.path, directive.line, directive.col))
            matched = True
    return matched


def analyze_project(
    project: Project,
    registry: Optional[RuleRegistry] = None,
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Run every registered rule over an already-loaded project."""
    registry = registry or default_registry()
    config = config or LintConfig()
    report = LintReport(
        files_checked=len(project.modules) + len(project.parse_errors),
        directive_count=sum(
            m.suppressions.directive_count for m in project.modules
        ),
    )
    for path in sorted(project.parse_errors):
        line, col, message = project.parse_errors[path]
        report.findings.append(
            Finding(
                rule_id=PARSE_ERROR_RULE,
                severity=Severity.ERROR,
                path=path,
                line=line,
                col=col,
                message=f"module does not parse: {message}",
                fix_hint="fix the syntax error before linting",
            )
        )

    rules = registry.create_rules()
    raw: List[Finding] = []
    for module in sorted(project.modules, key=lambda m: m.path):
        ctx = ModuleContext(
            path=module.path,
            source=module.source,
            tree=module.tree,
            config=config,
            comments=module.comments,
        )
        for rule in rules:
            if isinstance(rule, Rule):
                raw.extend(rule.check(ctx))
    for rule in rules:
        if isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(project, config))

    used: Set[Tuple[str, int, int]] = set()
    relaxed_exempt = frozenset(config.relaxed_exempt_rules)
    for finding in raw:
        if finding.rule_id in relaxed_exempt and path_matches(
            finding.path, config.relaxed_scopes
        ):
            continue  # not applicable under the relaxed profile
        module = project.module_at(finding.path)
        if module is not None and _suppress(module, finding, used):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)

    # Stale-suppression pass: every directive must have earned its keep.
    for module in sorted(project.modules, key=lambda m: m.path):
        for directive in module.suppressions.directives:
            if (module.path, directive.line, directive.col) in used:
                continue
            if STALE_SUPPRESSION_RULE in directive.rules:
                continue
            stale = Finding(
                rule_id=STALE_SUPPRESSION_RULE,
                severity=Severity.WARNING,
                path=module.path,
                line=directive.line,
                col=directive.col,
                message=(
                    f"suppression of {', '.join(directive.rules)} silences "
                    "no finding"
                ),
                fix_hint=_STALE_FIX_HINT,
            )
            if _suppress(module, stale, used):
                report.suppressed.append(stale)
            else:
                report.findings.append(stale)

    report.findings.sort(key=Finding.sort_key)
    return report


def analyze_source(
    source: str,
    path: str,
    registry: Optional[RuleRegistry] = None,
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Lint one module given as a string (a single-module project)."""
    project = Project()
    project.add_source(path, source)
    return analyze_project(project, registry, config)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Every ``.py`` file under ``paths``, sorted, hidden dirs skipped."""
    for _root, file_path in _iter_with_roots(paths):
        yield file_path


def _iter_with_roots(paths: Iterable[str]) -> Iterator[Tuple[str, str]]:
    """(scan root, file path) pairs; the root anchors module naming."""
    for path in sorted(paths):
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield "", path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    yield path, os.path.join(root, name)


def analyze_paths(
    paths: Iterable[str],
    registry: Optional[RuleRegistry] = None,
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Lint every Python file under ``paths`` as one whole program."""
    config = config or LintConfig()
    project = Project()
    for root, file_path in _iter_with_roots(paths):
        if path_matches(file_path, config.exclude_paths):
            continue
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        project.add_source(file_path, source, root)
    return analyze_project(project, registry, config)
