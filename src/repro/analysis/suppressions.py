"""Suppression comments: ``# reprolint: disable=R003`` and friends.

Two scopes, decided by comment placement:

* a comment **on its own line** disables the listed rules for the whole
  file (put it at the top, next to the module docstring, so reviewers see
  it);
* a comment **trailing a code line** disables the listed rules for that
  line only.

``disable=all`` disables every rule.  Rule lists are comma-separated:
``# reprolint: disable=R001,R004``.  Comments are found with
:mod:`tokenize`, so directive-looking text inside string literals is never
misread as a directive.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

_DIRECTIVE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Sentinel rule list meaning "every rule".
ALL_RULES = "all"


@dataclass(frozen=True)
class Comment:
    """One source comment, as placed (``standalone`` = comment-only line)."""

    line: int
    col: int
    text: str
    standalone: bool


def scan_comments(source: str) -> List[Comment]:
    """Every comment in ``source`` with its placement.

    Unparseable tails (tokenize errors on truncated input) end the scan
    early rather than raising: the AST pass will report the syntax error.
    """
    comments: List[Comment] = []
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type != tokenize.COMMENT:
                continue
            before = token.line[: token.start[1]]
            comments.append(
                Comment(
                    line=token.start[0],
                    col=token.start[1],
                    text=token.string,
                    standalone=not before.strip(),
                )
            )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return comments


@dataclass(frozen=True)
class Directive:
    """One parsed ``# reprolint: disable=...`` comment, as placed."""

    line: int
    col: int
    rules: Tuple[str, ...]
    standalone: bool


@dataclass(frozen=True)
class SuppressionIndex:
    """Which rules are disabled where, for one file."""

    file_level: FrozenSet[str] = frozenset()
    by_line: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    directive_count: int = 0
    #: Every directive, in source order — the raw material for stale-
    #: suppression detection (a directive whose rules never fire).
    directives: Tuple[Directive, ...] = ()

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        for scope in (self.file_level, self.by_line.get(line, frozenset())):
            if rule_id in scope or ALL_RULES in scope:
                return True
        return False


def _parse_directive(text: str) -> Iterator[str]:
    match = _DIRECTIVE.search(text)
    if match is None:
        return
    for rule in match.group(1).split(","):
        rule = rule.strip()
        if rule:
            yield rule


def build_suppression_index(source: str) -> SuppressionIndex:
    """Parse every suppression directive in ``source``."""
    return suppression_index(scan_comments(source))


def suppression_index(comments: Sequence[Comment]) -> SuppressionIndex:
    """The suppression index of already-scanned ``comments``."""
    file_level: List[str] = []
    by_line: Dict[int, FrozenSet[str]] = {}
    directives: List[Directive] = []
    for comment in comments:
        rules: Tuple[str, ...] = tuple(_parse_directive(comment.text))
        if not rules:
            continue
        directives.append(
            Directive(
                line=comment.line,
                col=comment.col,
                rules=rules,
                standalone=comment.standalone,
            )
        )
        if comment.standalone:
            file_level.extend(rules)
        else:
            by_line[comment.line] = by_line.get(comment.line, frozenset()) | frozenset(rules)
    return SuppressionIndex(
        file_level=frozenset(file_level),
        by_line=by_line,
        directive_count=len(directives),
        directives=tuple(directives),
    )
