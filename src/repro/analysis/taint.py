"""R011 — interprocedural nondeterminism taint analysis.

The syntactic rules R001/R002 flag a stray RNG or wall-clock read *where it
happens*; this pass answers the harder question: does that value ever reach
code whose output is digested?  A single ``time.time()`` in a helper module
is invisible to per-module linting, but if ``engine.runner`` calls a chain
of functions ending at that helper, the experiment digests stop being
reproducible — exactly the failure mode the parallel engine's bit-identity
contract forbids.

The analysis is function-granular: a *source* is a call (or attribute read)
that produces a nondeterministic value — unseeded ``random``/
``numpy.random`` APIs, wall-clock reads, ``os.environ``/``os.getenv``/
``os.urandom``, ``uuid.uuid1/uuid4``, ``secrets.*`` and the builtin
``hash()`` (salted per process unless ``PYTHONHASHSEED`` is pinned).  A
*sink* is any function defined in a module matching
``LintConfig.taint_sink_scopes`` (the engine and experiment layers, whose
state feeds the digests).  A finding fires when BFS over *caller* edges
connects a source-bearing function to a sink, and the message carries the
full chain, sink first — the shortest such chain, with ties broken on
sorted qualname so reports are stable.

Suppressing the underlying syntactic rule also silences the taint path
through that line: a ``# reprolint: disable=R002`` on a sanctioned
wall-clock read (progress output, say) means the project has already
accepted that value, and R011 must not resurrect the argument.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional, Set, Tuple, Type

from repro.analysis.callgraph import call_chain
from repro.analysis.engine import LintConfig, ProjectRule, path_matches
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project, walk

#: Unseeded global-RNG call tails (mirrors R001's table).
_RNG_TAILS = frozenset(
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

#: Wall-clock call tails (mirrors R002's table).
_CLOCK_TAILS = frozenset(
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
_CLOCK_NO_ARG_TAILS = frozenset(
    [("time", "strftime"), ("time", "localtime"), ("time", "gmtime")]
)

#: Environment / process-identity call tails.
_ENV_TAILS = frozenset([("os", "getenv"), ("os", "urandom")])
_UUID_TAILS = frozenset([("uuid", "uuid1"), ("uuid", "uuid4")])


@dataclass(frozen=True)
class TaintSource:
    """One nondeterministic value produced inside a function body."""

    line: int
    col: int
    #: Human label, e.g. ``"time.time()"`` or ``"os.environ"``.
    label: str
    #: The syntactic rule covering this construct (R001/R002), if any;
    #: suppressing it on the source line also silences the taint path.
    base_rule: Optional[str]


def iter_sources(node: ast.AST) -> Iterator[TaintSource]:
    """Every nondeterminism source in a function body, in AST walk order.

    Nested defs and lambdas are included — they execute on behalf of the
    enclosing function, which is where the call graph attributes them.
    """
    seen: Set[Tuple[int, int]] = set()
    for sub in walk(node):
        source: Optional[TaintSource] = None
        if isinstance(sub, ast.Call):
            source = _call_source(sub)
        elif isinstance(sub, ast.Attribute):
            chain = call_chain(sub)
            if chain is not None and chain[-2:] == ("os", "environ"):
                source = TaintSource(sub.lineno, sub.col_offset, "os.environ", None)
        if source is None or (source.line, source.col) in seen:
            continue
        seen.add((source.line, source.col))
        yield source


def _call_source(node: ast.Call) -> Optional[TaintSource]:
    chain = call_chain(node.func)
    if chain is None:
        return None
    if len(chain) == 1:
        if chain[0] == "hash" and node.args:
            return TaintSource(
                node.lineno, node.col_offset, "builtin hash()", None
            )
        # Bare-name calls of from-imported sources: ``from os import
        # urandom`` / ``from numpy.random import default_rng`` shed the
        # module prefix that the dotted tables below key on.
        if chain[0] == "urandom":
            return TaintSource(node.lineno, node.col_offset, "os.urandom()", None)
        if chain[0] == "default_rng" and not node.args and not node.keywords:
            return TaintSource(
                node.lineno, node.col_offset, "unseeded default_rng()", "R001"
            )
        return None
    tail = (chain[-2], chain[-1])
    name = ".".join(chain)
    if tail in _RNG_TAILS:
        return TaintSource(node.lineno, node.col_offset, f"{name}()", "R001")
    if tail == ("random", "default_rng") and not node.args and not node.keywords:
        return TaintSource(
            node.lineno, node.col_offset, "unseeded default_rng()", "R001"
        )
    if tail in _CLOCK_TAILS:
        return TaintSource(node.lineno, node.col_offset, f"{name}()", "R002")
    if tail in _CLOCK_NO_ARG_TAILS and len(node.args) < 2 and not node.keywords:
        return TaintSource(node.lineno, node.col_offset, f"{name}()", "R002")
    if tail in _ENV_TAILS or tail in _UUID_TAILS or chain[0] == "secrets":
        return TaintSource(node.lineno, node.col_offset, f"{name}()", None)
    return None


class NondeterminismTaintRule(ProjectRule):
    """R011 — nondeterminism must not flow into digest-relevant code."""

    rule_id = "R011"
    severity = Severity.ERROR
    summary = (
        "no call chain from engine/experiment code down to an RNG, "
        "wall-clock, environment or hash-order source"
    )
    fix_hint = (
        "thread a seeded stream (simkit.rng) or simulated time down the "
        "reported call chain instead of reading ambient state"
    )

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Finding]:
        graph = project.callgraph
        sinks = {
            qualname
            for qualname, info in graph.functions.items()
            if path_matches(info.module_path, config.taint_sink_scopes)
        }
        if not sinks:
            return

        def is_sink(qualname: str) -> bool:
            return qualname in sinks

        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            module = project.module_at(info.module_path)
            if module is None:
                continue
            # The RNG home module constructs generators by design.
            if path_matches(info.module_path, config.rng_modules):
                continue
            chain: Optional[Tuple[str, ...]] = None
            for source in iter_sources(info.node):
                if source.base_rule is not None and module.suppressions.is_suppressed(
                    source.base_rule, source.line
                ):
                    continue
                if chain is None:
                    path = graph.shortest_caller_path(qualname, is_sink)
                    if path is None:
                        break  # no sink reaches this function at all
                    chain = tuple(path)
                yield self.project_finding(
                    path=info.module_path,
                    line=source.line,
                    col=source.col,
                    message=self._message(source, chain),
                )

    def _message(self, source: TaintSource, chain: Tuple[str, ...]) -> str:
        if len(chain) == 1:
            return (
                f"nondeterministic value from {source.label} inside "
                f"digest-relevant function {chain[0]}"
            )
        return (
            f"nondeterministic value from {source.label} reaches "
            f"digest-relevant function {chain[0]} via call chain "
            f"{' -> '.join(chain)}"
        )


TAINT_RULES: Tuple[Type[ProjectRule], ...] = (NondeterminismTaintRule,)
