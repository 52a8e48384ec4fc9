"""Repo-specific static analysis: determinism & invariant lint for the engine.

The analyzer encodes this reproduction's non-negotiable invariants as
AST-level lint rules (see :mod:`repro.analysis.rules` for the framework):

* ``determinism.wall-clock`` / ``determinism.module-random`` /
  ``determinism.unordered-iter`` — nondeterminism must not leak into
  engine answer paths (:mod:`repro.analysis.determinism`);
* ``accounting.uncharged-mutation`` — every operator mutation path reaches
  an ``ExecutionMetrics`` charge (:mod:`repro.analysis.accounting`);
* ``sharding.clock-discipline`` / ``sharding.picklability`` — only the
  listed clock writers move a simulated clock, and what crosses a process
  boundary pickles, against the two literal tuples of
  :mod:`repro.serving.channels` (:mod:`repro.analysis.sharding`);
* ``effects.global-mutable`` — no module-level mutable globals outside
  reviewed idempotent caches (:mod:`repro.analysis.effects`);
* ``reachability.unread`` — every public callable has a reader in the
  package, the benchmark or an example; what only tests read is deleted
  (:mod:`repro.analysis.reachability`).

:func:`repro.analysis.runner.run_lint` drives a full scan.  Generated code
is not linted: :func:`repro.engine.compiled.bind_generated` refuses any name
outside its allow-list when it compiles it.  The ``repro-lint`` CLI
subcommand and the CI ``analysis`` job gate on a clean report; an inline
``# lint: ignore[rule]`` pragma with its reason is the one way to suppress a
finding.
"""

from repro.analysis.findings import Finding, PragmaIgnore, PragmaSet, collect_pragmas
from repro.analysis.rules import (
    LintRule,
    RuleContext,
    default_rules,
    register_rule,
    registered_rules,
)
from repro.analysis.runner import LintReport, run_lint

__all__ = [
    "Finding",
    "LintReport",
    "LintRule",
    "PragmaIgnore",
    "PragmaSet",
    "RuleContext",
    "collect_pragmas",
    "default_rules",
    "register_rule",
    "registered_rules",
    "run_lint",
]
