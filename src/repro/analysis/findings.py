"""Findings and inline pragma suppression of the analyzer.

A :class:`Finding` is one rule violation pinned to a file and line.  The one
sanctioned way to ship code that trips a rule is an inline
``# lint: ignore[rule-name]`` pragma on the offending line
(:class:`PragmaIgnore`), with its reason beside it — scoped to exactly that
line of that file.  A pragma that suppresses nothing is *stale* and reported
as a finding itself, so the pragmas describe exactly the violations that
exist, no more.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific location.

    ``path`` is the file's posix-style path relative to the scan root
    (``engine/pipelined.py``); ``symbol`` is the dotted enclosing scope
    (``PipelinedExecutor.execute``, or ``<module>`` at module level).
    """

    rule: str
    path: str
    line: int
    symbol: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.symbol}: {self.message}"

    def as_dict(self) -> dict[str, object]:
        """The machine-readable shape of one finding (``--format json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }


#: the inline suppression syntax (several rules may be listed
#: comma-separated); scoped to exactly the line it's on.  Matching is
#: anchored at the start of a *comment token*, so prose that merely
#: mentions the syntax — docstrings, doc-comments — never registers.
PRAGMA_PATTERN = re.compile(r"#\s*lint:\s*ignore\[([A-Za-z0-9_.,\- ]+)\]")


@dataclass(frozen=True)
class PragmaIgnore:
    """One inline pragma suppression: (path, line, rule)."""

    path: str
    line: int
    rule: str

    def matches(self, finding: Finding) -> bool:
        return (
            finding.rule == self.rule
            and finding.path == self.path
            and finding.line == self.line
        )

    def render(self) -> str:
        return f"{self.path}:{self.line} inline pragma ignore[{self.rule}]"


def collect_pragmas(path: str, source: str) -> tuple[PragmaIgnore, ...]:
    """Every inline ignore pragma of one module, in line order.

    Pragmas are read from comment tokens (not raw lines), so string
    literals and docstrings that *describe* the syntax don't register as
    suppressions.
    """
    pragmas: list[PragmaIgnore] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return ()
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = PRAGMA_PATTERN.match(token.string)
        if match is None:
            continue
        lineno = token.start[0]
        for rule in match.group(1).split(","):
            rule = rule.strip()
            if rule:
                pragmas.append(PragmaIgnore(path=path, line=lineno, rule=rule))
    return tuple(pragmas)


@dataclass
class PragmaSet:
    """All pragmas of one scan, with usage tracking (stale detection)."""

    pragmas: tuple[PragmaIgnore, ...] = ()
    _used: set[PragmaIgnore] = field(default_factory=set, repr=False)

    def suppresses(self, finding: Finding) -> PragmaIgnore | None:
        """The pragma suppressing ``finding``, or ``None``; records usage."""
        for pragma in self.pragmas:
            if pragma.matches(finding):
                self._used.add(pragma)
                return pragma
        return None

    def stale_pragmas(self) -> tuple[PragmaIgnore, ...]:
        """Pragmas that suppressed nothing in the run seen so far."""
        return tuple(p for p in self.pragmas if p not in self._used)
