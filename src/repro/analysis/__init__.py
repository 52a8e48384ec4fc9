"""Repo-specific static analysis: determinism & invariant lint for the engine.

The analyzer encodes this reproduction's non-negotiable invariants as
AST-level lint rules (see :mod:`repro.analysis.rules` for the framework):

* ``determinism.wall-clock`` / ``determinism.module-random`` /
  ``determinism.unordered-iter`` — nondeterminism must not leak into
  engine answer paths (:mod:`repro.analysis.determinism`);
* ``accounting.uncharged-mutation`` — every operator mutation path reaches
  an ``ExecutionMetrics`` charge (:mod:`repro.analysis.accounting`);
* ``sharding.shared-channel`` / ``sharding.session-isolation`` /
  ``sharding.clock-discipline`` / ``sharding.picklability`` — the serving
  layer's sharing contract (:mod:`repro.serving.channels`) is explicit and
  honored (:mod:`repro.analysis.sharding`);
* ``effects.global-mutable`` — no module-level mutable globals outside
  reviewed idempotent caches (:mod:`repro.analysis.effects`);
* ``reachability.unread`` — every public callable has a reader in the
  package itself; what only tests read is deleted, what only the benchmark
  or an example reads carries a pragma (:mod:`repro.analysis.reachability`).

:func:`repro.analysis.runner.run_lint` drives a full scan;
:mod:`repro.analysis.codegen_audit` runs the same rules over *generated*
compiled-engine source.  The ``repro-lint`` CLI subcommand and the CI
``analysis`` job gate on a clean report.
"""

from repro.analysis.findings import (
    Finding,
    PragmaIgnore,
    PragmaSet,
    Whitelist,
    WhitelistEntry,
    collect_pragmas,
)
from repro.analysis.rules import (
    LintRule,
    RuleContext,
    default_rules,
    register_rule,
    registered_rules,
)
from repro.analysis.runner import LintReport, run_lint
from repro.analysis.whitelist import DEFAULT_WHITELIST_ENTRIES, default_whitelist

__all__ = [
    "DEFAULT_WHITELIST_ENTRIES",
    "Finding",
    "LintReport",
    "LintRule",
    "PragmaIgnore",
    "PragmaSet",
    "RuleContext",
    "Whitelist",
    "WhitelistEntry",
    "collect_pragmas",
    "default_rules",
    "default_whitelist",
    "register_rule",
    "registered_rules",
    "run_lint",
]
