"""The lint runner: scan a package tree, apply every rule, fold in the pragmas.

:func:`run_lint` walks the package root (``src/repro`` by default), parses
every ``*.py`` file, runs all registered per-module and project-wide rules,
and splits the raw findings into *active* findings and *suppressed* ones
(matched by an inline pragma).  Pragmas that matched nothing are themselves
reported as findings under the ``pragma.stale-ignore`` rule — the pragmas
must describe exactly the violations that exist.

The CI gate and the ``repro-lint`` CLI both call :func:`run_lint` and fail
on any active finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding, PragmaIgnore, PragmaSet, collect_pragmas
from repro.analysis.rules import LintRule, RuleContext, default_rules

STALE_PRAGMA_RULE = "pragma.stale-ignore"


def package_root() -> Path:
    """The ``src/repro`` directory this module lives in."""
    return Path(__file__).resolve().parent.parent


@dataclass
class LintReport:
    """The outcome of one analyzer run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, PragmaIgnore]] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [
            f"repro-lint: {self.files_scanned} files, "
            f"{len(self.rules_run)} rules, "
            f"{len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppressed"
        ]
        for finding in self.findings:
            lines.append("  " + finding.render())
        for finding, pragma in self.suppressed:
            lines.append(f"  [suppressed] {finding.location()} {pragma.render()}")
        return "\n".join(lines)

    def to_json(self) -> dict[str, object]:
        """The machine-readable report shape of ``--format json``.

        A finding is ``{rule, path, line, symbol, message}``; suppressed
        findings additionally carry how they were suppressed.  The shape is
        part of the CLI contract (CI uploads it as an artifact), so changes
        here are interface changes.
        """
        return {
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "rules_run": list(self.rules_run),
            "findings": [finding.as_dict() for finding in self.findings],
            "suppressed": [
                {**finding.as_dict(), "suppressed_by": pragma.render()}
                for finding, pragma in self.suppressed
            ],
        }


#: directories beside ``src/`` whose code reads the package but is not linted
READER_ROOTS = ("bench", "examples")


def load_contexts(root: Path, linted: bool = True) -> list[RuleContext]:
    """Parse every ``*.py`` under ``root`` into rule contexts, sorted by path."""
    return [
        RuleContext.from_source(
            path.relative_to(root).as_posix(), path.read_text(), linted
        )
        for path in sorted(root.rglob("*.py"))
    ]


def apply_rules(
    contexts: list[RuleContext], rules: list[LintRule]
) -> list[Finding]:
    """All raw findings of ``rules`` over ``contexts`` (pragmas not applied)."""
    linted = [context for context in contexts if context.linted]
    findings: list[Finding] = []
    for rule in rules:
        if rule.project_wide:
            findings.extend(rule.check_project(contexts if rule.read_outside else linted))
        else:
            for context in linted:
                if rule.applies_to(context):
                    findings.extend(rule.check_module(context))
    return sorted(findings)


def run_lint(root: Path | None = None) -> LintReport:
    """Run the full analyzer over ``root`` (default: the installed package,
    read by the :data:`READER_ROOTS` of its checkout)."""
    scan_root = package_root() if root is None else root
    active_rules = default_rules()

    contexts = load_contexts(scan_root)
    readers: list[RuleContext] = []
    if root is None:
        for name in READER_ROOTS:
            readers += load_contexts(scan_root.parents[1] / name, linted=False)
    raw = apply_rules(contexts + readers, active_rules)
    pragmas = PragmaSet(
        pragmas=tuple(
            pragma
            for ctx in contexts
            for pragma in collect_pragmas(ctx.relpath, ctx.source)
        )
    )

    report = LintReport(
        files_scanned=len(contexts),
        rules_run=tuple(rule.name for rule in active_rules),
    )
    for finding in raw:
        pragma = pragmas.suppresses(finding)
        if pragma is None:
            report.findings.append(finding)
        else:
            report.suppressed.append((finding, pragma))
    for pragma in pragmas.stale_pragmas():
        report.findings.append(
            Finding(
                rule=STALE_PRAGMA_RULE,
                path=pragma.path,
                line=pragma.line,
                symbol="<pragma>",
                message=(
                    f"inline pragma ignore[{pragma.rule}] suppressed nothing; "
                    "the violation it exempted no longer exists — delete the "
                    "pragma"
                ),
            )
        )
    report.findings.sort()
    return report
