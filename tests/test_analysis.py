"""The static analyzer's own test suite.

Two layers:

* **fixture tests** — ``tests/analysis_fixtures/`` is a miniature package
  tree with ``# LINT:`` marker comments on every seeded violation; each
  rule is asserted to fire at exactly the marked file/line, and sanctioned
  neighbouring constructs (seeded RNGs, ``sorted`` iteration, charged
  operators, compliant policies) are asserted silent;
* **gate tests** — the real package must lint clean (zero unwhitelisted
  findings, no stale whitelist entries), and the compiled-codegen audit
  must cover the required corpus breadth and come back clean.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import (
    PragmaIgnore,
    Whitelist,
    WhitelistEntry,
    collect_pragmas,
    default_rules,
    registered_rules,
    run_lint,
)
from repro.analysis.codegen_audit import (
    RULE_ACCOUNTING,
    RULE_DETERMINISM,
    RULE_MATERIALISATION,
    RULE_PURITY,
    audit_chain_source,
    audit_fold_source,
    audit_generated_pipelines,
    audit_route_source,
)
from repro.analysis.reachability import UnreadCallableRule
from repro.analysis.rules import RuleContext
from repro.analysis.runner import (
    STALE_ENTRY_RULE,
    STALE_PRAGMA_RULE,
    apply_rules,
    load_contexts,
)
from repro.analysis.sharding import parse_channel_registry
from repro.core.stitchup import _Hop, _loop_source
from repro.serving import channels

FIXTURE_ROOT = Path(__file__).parent / "analysis_fixtures"
PACKAGE_ROOT = Path(__file__).parent.parent / "src" / "repro"


def line_of(relpath: str, marker: str) -> int:
    """1-based line of the unique ``# LINT: <marker>`` comment in a fixture."""
    lines = (FIXTURE_ROOT / relpath).read_text().splitlines()
    hits = [i + 1 for i, line in enumerate(lines) if f"# LINT: {marker}" in line]
    assert len(hits) == 1, f"marker {marker!r} not unique in {relpath}: {hits}"
    return hits[0]


@pytest.fixture(scope="module")
def fixture_findings():
    """All raw findings of every rule over the fixture tree (no whitelist)."""
    contexts = load_contexts(FIXTURE_ROOT)
    return apply_rules(contexts, default_rules())


def findings_for(findings, rule: str, path: str):
    return [f for f in findings if f.rule == rule and f.path == path]


class TestWallClockRule:
    def test_fires_at_each_marked_site(self, fixture_findings):
        hits = findings_for(
            fixture_findings, "determinism.wall-clock", "engine/wall_clock.py"
        )
        locations = {(f.line, f.symbol) for f in hits}
        assert locations == {
            (line_of("engine/wall_clock.py", "wall-clock-attr"), "TimingOperator.measure"),
            (line_of("engine/wall_clock.py", "wall-clock-datetime"), "TimingOperator.stamp"),
            (line_of("engine/wall_clock.py", "wall-clock-member"), "free_function_timer"),
        }

    def test_simulated_clock_reads_are_silent(self, fixture_findings):
        hits = findings_for(
            fixture_findings, "determinism.wall-clock", "engine/wall_clock.py"
        )
        assert all(f.symbol != "simulated_ok" for f in hits)

    def test_io_package_is_exempt(self, fixture_findings):
        """The package-scope exemption: io/ may read the wall clock freely."""
        hits = findings_for(
            fixture_findings, "determinism.wall-clock", "io/wallclock_ok.py"
        )
        assert hits == []

    def test_experiments_directory_is_scanned(self, tmp_path):
        """No directory is exempt from the scan: a timing bracket in an
        experiment harness is a finding like anywhere else outside io/."""
        module = tmp_path / "experiments" / "timed_table.py"
        module.parent.mkdir()
        module.write_text(
            "import time\n\n\ndef timed_table():\n    return time.perf_counter()\n"
            "\n\nTABLE = timed_table()\n"
        )
        report = run_lint(tmp_path, whitelist=Whitelist())
        assert [(f.rule, f.path, f.line, f.symbol) for f in report.findings] == [
            ("determinism.wall-clock", "experiments/timed_table.py", 5, "timed_table")
        ]


class TestModuleRandomRule:
    def test_fires_on_module_level_draws(self, fixture_findings):
        hits = findings_for(
            fixture_findings,
            "determinism.module-random",
            "workloads/module_random.py",
        )
        locations = {(f.line, f.symbol) for f in hits}
        assert locations == {
            (line_of("workloads/module_random.py", "module-random-attr"), "unseeded_draw"),
            (
                line_of("workloads/module_random.py", "module-random-member"),
                "unseeded_member_draw",
            ),
        }

    def test_seeded_instances_are_silent(self, fixture_findings):
        hits = findings_for(
            fixture_findings,
            "determinism.module-random",
            "workloads/module_random.py",
        )
        assert all(f.symbol != "seeded_ok" for f in hits)


class TestUnorderedIterationRule:
    def test_fires_on_set_iteration_in_emit_path(self, fixture_findings):
        hits = findings_for(
            fixture_findings, "determinism.unordered-iter", "engine/unordered.py"
        )
        lines = {f.line for f in hits}
        assert lines == {
            line_of("engine/unordered.py", "unordered-for"),
            line_of("engine/unordered.py", "unordered-list"),
            line_of("engine/unordered.py", "unordered-comp"),
        }
        assert all(f.symbol == "LeakyEmitter.push_batch" for f in hits)

    def test_sorted_iteration_and_non_emit_methods_are_silent(
        self, fixture_findings
    ):
        hits = findings_for(
            fixture_findings, "determinism.unordered-iter", "engine/unordered.py"
        )
        source = (FIXTURE_ROOT / "engine/unordered.py").read_text().splitlines()
        for finding in hits:
            assert "sorted(" not in source[finding.line - 1]
            assert "helper" not in finding.symbol


class TestWorkAccountingRule:
    def test_uncharged_entry_point_and_mutator_call_fire(self, fixture_findings):
        hits = findings_for(
            fixture_findings, "accounting.uncharged-mutation", "engine/uncharged.py"
        )
        locations = {(f.line, f.symbol) for f in hits}
        assert locations == {
            (
                line_of("engine/uncharged.py", "uncharged-entry"),
                "LeakyOperator.push_batch",
            ),
            (
                line_of("engine/uncharged.py", "uncharged-mutator-call"),
                "LeakyOperator.push_batch",
            ),
        }

    def test_charging_closure_covers_helpers_and_charge_batch(
        self, fixture_findings
    ):
        hits = findings_for(
            fixture_findings, "accounting.uncharged-mutation", "engine/uncharged.py"
        )
        assert all("ChargedOperator" not in f.symbol for f in hits)
        assert all("BatchChargedOperator" not in f.symbol for f in hits)


class TestEventExhaustivenessRule:
    PATH = "adaptivity/policies.py"

    def test_each_violation_kind_fires_at_its_class(self, fixture_findings):
        hits = findings_for(
            fixture_findings, "exhaustiveness.event-policy", self.PATH
        )
        by_symbol = {}
        for finding in hits:
            by_symbol.setdefault(finding.symbol, []).append(finding)

        missing = by_symbol.pop("MissingDeclarationPolicy")
        assert len(missing) == 2  # handles_events and ignores_events both absent
        assert {f.line for f in missing} == {
            line_of(self.PATH, "missing-declaration")
        }

        (incomplete,) = by_symbol.pop("IncompletePolicy")
        assert incomplete.line == line_of(self.PATH, "incomplete-coverage")
        assert "'GammaEvent'" in incomplete.message

        (overlap,) = by_symbol.pop("OverlapPolicy")
        assert overlap.line == line_of(self.PATH, "overlap")
        assert "'AlphaEvent'" in overlap.message

        (unknown,) = by_symbol.pop("UnknownEventPolicy")
        assert unknown.line == line_of(self.PATH, "unknown-event")
        assert "'DeltaEvent'" in unknown.message

        (silent,) = by_symbol.pop("SilentConsumerPolicy")
        assert silent.line == line_of(self.PATH, "undeclared-reference")
        assert "'BetaEvent'" in silent.message

        # The compliant policy (and the skipped base class) stay silent.
        assert by_symbol == {}


class TestUnreadCallableRule:
    RULE = "reachability.unread"
    PATH = "relational/unread.py"

    def test_fires_at_each_marked_definition(self, fixture_findings):
        hits = findings_for(fixture_findings, self.RULE, self.PATH)
        assert {(f.line, f.symbol) for f in hits} == {
            (line_of(self.PATH, "unread-function"), "orphan_function"),
            (line_of(self.PATH, "unread-exported"), "exported_only"),
            (line_of(self.PATH, "unread-recursive"), "selfish"),
            (line_of(self.PATH, "unread-class"), "Orphan"),
            (line_of(self.PATH, "unread-method"), "Orphan.tally"),
        }

    def test_a_reader_anywhere_in_the_tree_counts(self, tmp_path):
        """A read in another module keeps a callable; deleting the reader
        makes the same definition a finding."""
        (tmp_path / "lib.py").write_text("def helper():\n    return 1\n")
        user = tmp_path / "user.py"
        user.write_text("from lib import helper\n\nVALUE = helper()\n")
        assert not run_lint(tmp_path, whitelist=Whitelist()).findings
        user.write_text("from lib import helper\n")
        report = run_lint(tmp_path, whitelist=Whitelist())
        assert [(f.rule, f.path, f.line, f.symbol) for f in report.findings] == [
            (self.RULE, "lib.py", 1, "helper")
        ]

    # (modules of a scanned tree, the symbols the rule flags)
    CASES = {
        "name-read": ({"lib.py": "def helper(): ...", "use.py": "helper()"}, set()),
        "attribute-read": (
            {"lib.py": "class Box:\n    def peek(self): ...", "use.py": "Box().peek()"},
            set(),
        ),
        "string-read": (
            {"lib.py": "def hook(): ...", "use.py": "getattr(lib, 'hook')"},
            set(),
        ),
        "import-only": (
            {"lib.py": "def helper(): ...", "use.py": "from lib import helper"},
            {"helper"},
        ),
        "module-all-only": ({"lib.py": "__all__ = ['helper']\ndef helper(): ..."}, {"helper"}),
        "root-all-entry": (
            {"__init__.py": "__all__ = ['helper']", "lib.py": "def helper(): ..."},
            set(),
        ),
        "root-all-does-not-cover-methods": (
            {
                "__init__.py": "__all__ = ['Box', 'peek']",
                "lib.py": "class Box:\n    def peek(self): ...",
            },
            {"Box.peek"},
        ),
        "store-is-no-read": (
            {"lib.py": "def helper(): ...", "use.py": "helper = None"},
            {"helper"},
        ),
        "self-recursion": ({"lib.py": "def loop(n):\n    return loop(n - 1)"}, {"loop"}),
        "read-inside-own-class": (
            {"lib.py": "class Box:\n    def a(self):\n        return Box, self.b()\n"
             "    def b(self): ..."},
            {"Box", "Box.a"},
        ),
        "same-name-on-another-class": (
            {
                "lib.py": "class A:\n    def run(self): ...\nclass B:\n    def run(self): ...",
                "use.py": "A, B, thing.run()",
            },
            set(),
        ),
        "cli-main": ({"experiments/cli.py": "def main(argv=None): ..."}, set()),
        "main-elsewhere": ({"tools.py": "def main(argv=None): ..."}, {"main"}),
        "private-and-dunder": (
            {
                "lib.py": "def _helper(): ...\nclass _Hidden: ...\n"
                "class Box:\n    def __len__(self): ...\n    def _peek(self): ...",
                "use.py": "Box",
            },
            set(),
        ),
        "visit-methods": (
            {"lib.py": "class Walker:\n    def visit_Name(self, node): ...", "use.py": "Walker"},
            set(),
        ),
        "registered-rule-methods-still-need-readers": (
            {"lib.py": "@register_rule\nclass Rule:\n    def check_module(self): ...\n"
             "def register_rule(cls):\n    return cls"},
            {"Rule.check_module"},
        ),
        "nested-definitions-are-not-checked": (
            {
                "lib.py": "def outer():\n    def inner(): ...\n    return inner\n"
                "class Box:\n    class Inner: ...",
                "use.py": "outer, Box",
            },
            set(),
        ),
        "async-function": ({"lib.py": "async def fetch(): ..."}, {"fetch"}),
        "decorator-is-a-read": (
            {"lib.py": "def deco(f):\n    return f\n@deco\ndef wrapped(): ..."},
            {"wrapped"},
        ),
        "annotation-is-a-read": (
            {"lib.py": "class Box: ...", "use.py": "def use(box: Box) -> 'Box': ...\nuse"},
            set(),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reads_and_entry_points(self, case):
        modules, flagged = self.CASES[case]
        contexts = [RuleContext.from_source(p, s) for p, s in sorted(modules.items())]
        assert {f.symbol for f in UnreadCallableRule().check_project(contexts)} == flagged

    def test_pragma_suppresses_and_goes_stale_with_a_reader(self, tmp_path):
        pragma = "  # lint: ignore[reachability.unread] only the benchmark calls it"
        (tmp_path / "lib.py").write_text(f"def helper():{pragma}\n    return 1\n")
        report = run_lint(tmp_path, whitelist=Whitelist())
        assert report.clean and [(f.symbol, f.line) for f, _ in report.suppressed] == [
            ("helper", 1)
        ]
        (tmp_path / "use.py").write_text("from lib import helper\n\nVALUE = helper()\n")
        report = run_lint(tmp_path, whitelist=Whitelist())
        assert [(f.rule, f.path, f.line) for f in report.findings] == [
            (STALE_PRAGMA_RULE, "lib.py", 1)
        ]


@pytest.fixture(scope="module")
def package_contexts():
    """The real package's modules and the symbols the rule flags there."""
    contexts = load_contexts(PACKAGE_ROOT)
    return contexts, {f.symbol for f in UnreadCallableRule().check_project(contexts)}


class TestUnreadCallableRuleOnThePackage:
    """Re-adding a deleted test-only callable to the real package makes
    ``reachability.unread`` fire at its path and symbol."""

    READDED = {
        "Relation.sorted_by": ("relational/relation.py", "Relation"),
        "Schema.rename_relation": ("relational/schema.py", "Schema"),
        "concat_tuples": ("relational/tuples.py", None),
        "WorkProfile": ("engine/cost.py", None),
        "StateRegistry.lookup": ("engine/state/registry.py", "StateRegistry"),
        "fraction_consumed": ("optimizer/statistics.py", None),
        "SourceDescription.covers": ("sources/description.py", "SourceDescription"),
        "ZipfSampler.expected_frequency": ("stats/zipf.py", "ZipfSampler"),
        "PhaseManager.total_outputs": ("core/phases.py", "PhaseManager"),
    }

    @pytest.mark.parametrize("symbol", sorted(READDED))
    def test_readding_a_deleted_callable_fires(self, package_contexts, symbol):
        path, owner = self.READDED[symbol]
        name = symbol.rpartition(".")[2]
        baseline, flagged = package_contexts
        contexts = list(baseline)
        index = next(i for i, c in enumerate(contexts) if c.relpath == path)
        lines = contexts[index].source.splitlines()
        if owner is None:
            at, text = len(lines), f"def {name}():\n    return None"
            if name[0].isupper():
                text = f"class {name}:\n    pass"
        else:
            (cls,) = (
                n for n in contexts[index].tree.body
                if isinstance(n, ast.ClassDef) and n.name == owner
            )
            at, text = cls.end_lineno, f"    def {name}(self):\n        return self"
        lines[at:at] = text.splitlines()
        contexts[index] = RuleContext.from_source(path, "\n".join(lines) + "\n")
        after = UnreadCallableRule().check_project(contexts)
        assert symbol not in flagged
        assert [(f.path, f.line) for f in after if f.symbol == symbol] == [(path, at + 1)]


class TestWhitelist:
    def test_entry_suppresses_exactly_its_site(self):
        whitelist = Whitelist(
            entries=(
                WhitelistEntry(
                    rule="determinism.wall-clock",
                    path="engine/wall_clock.py",
                    symbol="TimingOperator.measure",
                    reason="fixture: deliberate suppression",
                ),
            )
        )
        report = run_lint(FIXTURE_ROOT, whitelist=whitelist)
        suppressed = {
            (f.rule, f.path, f.symbol)
            for f, by in report.suppressed
            if isinstance(by, WhitelistEntry)
        }
        assert suppressed == {
            (
                "determinism.wall-clock",
                "engine/wall_clock.py",
                "TimingOperator.measure",
            )
        }
        # Every other wall-clock finding in the same file survives.
        remaining = findings_for(
            report.findings, "determinism.wall-clock", "engine/wall_clock.py"
        )
        assert {f.symbol for f in remaining} == {
            "TimingOperator.stamp",
            "free_function_timer",
        }

    def test_stale_entry_is_reported_as_a_finding(self):
        whitelist = Whitelist(
            entries=(
                WhitelistEntry(
                    rule="determinism.wall-clock",
                    path="engine/wall_clock.py",
                    symbol="NoSuch.symbol",
                    reason="fixture: describes nothing",
                ),
            )
        )
        report = run_lint(FIXTURE_ROOT, whitelist=whitelist)
        stale = [f for f in report.findings if f.rule == STALE_ENTRY_RULE]
        assert len(stale) == 1
        assert stale[0].symbol == "NoSuch.symbol"


class TestSharedChannelRule:
    RULE = "sharding.shared-channel"
    REGISTRY = "serving/channels.py"

    def test_registry_problems_fire_at_declaration_lines(self, fixture_findings):
        hits = findings_for(fixture_findings, self.RULE, self.REGISTRY)
        by_line = {f.line: f for f in hits}

        bad = by_line.pop(line_of(self.REGISTRY, "bad-discipline"))
        assert bad.symbol == "CHANNELS.broken"
        assert "two_phase" in bad.message

        mute = by_line.pop(line_of(self.REGISTRY, "missing-rationale"))
        assert mute.symbol == "CHANNELS.mute"
        assert "rationale" in mute.message

        stale = by_line.pop(line_of(self.REGISTRY, "stale-channel"))
        assert stale.symbol == "CHANNELS.ghost"
        assert "ghost_pool" in stale.message

        assert by_line == {}

    def test_undeclared_escape_and_alias_fire(self, fixture_findings):
        hits = findings_for(fixture_findings, self.RULE, "serving/server.py")
        locations = {(f.line, f.symbol) for f in hits}
        assert locations == {
            (
                line_of("serving/server.py", "escape-undeclared"),
                "MiniServer.submit",
            ),
            (
                line_of("serving/server.py", "alias-undeclared"),
                "MiniSession.__init__",
            ),
        }

    def test_declared_channel_hand_offs_are_silent(self, fixture_findings):
        # The clock and ledger escape into MiniSession on the construction
        # line; both are declared, so only the scratch dict is flagged.
        hits = findings_for(fixture_findings, self.RULE, "serving/server.py")
        assert all("scratch" in f.message or "pool" in f.message for f in hits)


class TestClockDisciplineRule:
    RULE = "sharding.clock-discipline"
    PATH = "serving/loop.py"

    def test_rogue_mutator_call_and_alias_fire(self, fixture_findings):
        hits = findings_for(fixture_findings, self.RULE, self.PATH)
        locations = {(f.line, f.symbol) for f in hits}
        assert locations == {
            (line_of(self.PATH, "rogue-clock-write"), "EagerPolicy.decide"),
            (line_of(self.PATH, "rogue-clock-alias"), "EagerPolicy.grab"),
            (
                line_of(self.PATH, "rogue-clock-augstore"),
                "HandRolledLoop.charge_inline",
            ),
            (
                line_of(self.PATH, "rogue-clock-store"),
                "HandRolledLoop.charge_inline",
            ),
        }

    def test_direct_time_stores_fire_but_reads_of_now_are_silent(
        self, fixture_findings
    ):
        """`clock.now += ...` names no mutator; the store itself is flagged."""
        hits = findings_for(fixture_findings, self.RULE, self.PATH)
        stores = {f.line: f.message for f in hits if "direct store" in f.message}
        assert stores.keys() == {
            line_of(self.PATH, "rogue-clock-augstore"),
            line_of(self.PATH, "rogue-clock-store"),
        }
        assert ".now" in stores[line_of(self.PATH, "rogue-clock-augstore")]
        assert ".wait_time" in stores[line_of(self.PATH, "rogue-clock-store")]
        # `return clock.now` two lines further down is a read.
        assert line_of(self.PATH, "rogue-clock-store") + 1 not in {
            f.line for f in hits
        }

    def test_certified_writer_is_silent(self, fixture_findings):
        hits = [f for f in fixture_findings if f.rule == self.RULE]
        assert all(f.symbol != "MiniLoop.run" for f in hits)


class TestSessionIsolationRule:
    RULE = "sharding.session-isolation"
    PATH = "serving/isolation.py"

    def test_closure_from_execute_incremental_is_checked(self, fixture_findings):
        hits = findings_for(fixture_findings, self.RULE, self.PATH)
        locations = {(f.line, f.symbol) for f in hits}
        assert locations == {
            (
                line_of(self.PATH, "isolation-rogue-absorb"),
                "MiniProcessor._tick",
            ),
            (
                line_of(self.PATH, "isolation-rogue-store"),
                "MiniProcessor._stash",
            ),
        }
        assert all("'ledger'" in f.message for f in hits)

    def test_certified_writer_outside_the_closure_is_silent(
        self, fixture_findings
    ):
        # MiniLoop.finish calls the same mutator but is a sanctioned writer
        # and not reachable from execute_incremental.
        hits = [f for f in fixture_findings if f.rule == self.RULE]
        assert all(f.path != "serving/loop.py" for f in hits)


class TestPicklabilityRule:
    RULE = "sharding.picklability"
    PATH = "serving/payloads.py"

    def test_payload_fields_fire_including_recursion(self, fixture_findings):
        hits = findings_for(fixture_findings, self.RULE, self.PATH)
        locations = {(f.line, f.symbol) for f in hits}
        assert locations == {
            (line_of(self.PATH, "unpicklable-annotation"), "HandoffSnapshot"),
            (line_of(self.PATH, "unpicklable-lambda"), "HandoffSnapshot"),
            (line_of(self.PATH, "unpicklable-genexp"), "HandoffSnapshot"),
            (line_of(self.PATH, "unpicklable-bound"), "HandoffSnapshot"),
            # SideState is reached transitively through HandoffSnapshot.detail.
            (line_of(self.PATH, "unpicklable-nested"), "SideState"),
            (line_of(self.PATH, "unpicklable-thread"), "SideState"),
        }

    def test_the_channel_type_itself_is_clean(self, fixture_findings):
        hits = findings_for(fixture_findings, self.RULE, self.PATH)
        assert all(f.symbol != "SharedLedger" for f in hits)

    def test_exec_without_source_record_fires(self, fixture_findings):
        hits = findings_for(
            fixture_findings, self.RULE, "engine/exec_pipeline.py"
        )
        assert {(f.line, f.symbol) for f in hits} == {
            (
                line_of("engine/exec_pipeline.py", "exec-no-source"),
                "build_chain",
            ),
        }


class TestGlobalMutableRule:
    RULE = "effects.global-mutable"
    PATH = "workloads/mutable_globals.py"

    def test_fires_on_each_marked_binding(self, fixture_findings):
        hits = findings_for(fixture_findings, self.RULE, self.PATH)
        locations = {(f.line, f.symbol) for f in hits}
        assert locations == {
            (line_of(self.PATH, "mutated-constant"), "<module>"),
            (line_of(self.PATH, "lowercase-mutable"), "<module>"),
            # Raw rule output includes the pragma'd cache; the pragma only
            # applies inside run_lint.
            (line_of(self.PATH, "memo-cache"), "<module>"),
        }

    def test_never_mutated_constant_table_is_exempt(self, fixture_findings):
        hits = findings_for(fixture_findings, self.RULE, self.PATH)
        source_lines = (FIXTURE_ROOT / self.PATH).read_text().splitlines()
        widths_line = next(
            i + 1
            for i, line in enumerate(source_lines)
            if line.startswith("DEFAULT_WIDTHS")
        )
        assert widths_line not in {f.line for f in hits}


class TestInlinePragmas:
    PATH = "workloads/mutable_globals.py"

    def test_pragma_suppresses_exactly_its_line(self):
        report = run_lint(FIXTURE_ROOT, whitelist=Whitelist())
        pragma_suppressed = {
            (f.rule, f.path, f.line)
            for f, by in report.suppressed
            if isinstance(by, PragmaIgnore)
        }
        assert pragma_suppressed == {
            (
                "effects.global-mutable",
                self.PATH,
                line_of(self.PATH, "memo-cache"),
            ),
        }

    def test_stale_pragma_is_reported_as_a_finding(self):
        report = run_lint(FIXTURE_ROOT, whitelist=Whitelist())
        stale = [f for f in report.findings if f.rule == STALE_PRAGMA_RULE]
        assert {(f.path, f.line) for f in stale} == {
            (self.PATH, line_of(self.PATH, "stale-pragma")),
        }
        assert stale[0].symbol == "<pragma>"

    def test_prose_mentions_never_register(self):
        source = (
            '"""Suppress with a # lint: ignore[rule-name] comment."""\n'
            "\n"
            "x = 1  # lint: ignore[some.rule]\n"
        )
        pragmas = collect_pragmas("mod.py", source)
        assert [(p.line, p.rule) for p in pragmas] == [(3, "some.rule")]


class TestJsonReport:
    def test_to_json_round_trips_and_has_the_documented_shape(self):
        report = run_lint(FIXTURE_ROOT, whitelist=Whitelist())
        payload = report.to_json()
        assert set(payload) == {
            "clean",
            "files_scanned",
            "rules_run",
            "findings",
            "suppressed",
        }
        assert payload["clean"] is False
        for finding in payload["findings"]:
            assert set(finding) == {"rule", "path", "line", "symbol", "message"}
        for entry in payload["suppressed"]:
            assert isinstance(entry["suppressed_by"], str)
        assert json.loads(json.dumps(payload)) == payload


class TestChannelRegistry:
    def test_real_registry_validates(self):
        assert channels.validate_registry() == []
        names = set(channels.registered_channels())
        assert {"clock", "catalog", "sources", "stats_cache"} <= names
        inventory = channels.render_inventory()
        for name in names:
            assert name in inventory

    def test_transport_channel_stays_process_local(self):
        """Real-I/O envelopes hold sockets/threads: never cross_process_safe."""
        registry = channels.registered_channels()
        transports = registry["transports"]
        assert transports.discipline == "single_writer"
        # envelopes travel in the source pool only: no attribute holds one
        assert transports.attributes == ()
        unsafe = {
            "FixtureServer",
            "InjectedTransport",
            "ResilientSource",
            "Transport",
        }
        for channel in channels.CHANNELS:
            if channel.discipline != "cross_process_safe":
                continue
            assert channel.type_name not in unsafe
            assert not set(channel.payload_types) & unsafe

    def test_analyzer_parses_the_real_registry(self):
        contexts = load_contexts(PACKAGE_ROOT)
        registry = parse_channel_registry(contexts)
        assert registry is not None
        assert registry.problems == []
        parsed = {channel.name for channel in registry.channels}
        assert parsed == set(channels.registered_channels())
        assert all(not channel.malformed for channel in registry.channels)


class TestRulePopulation:
    def test_every_registered_rule_fires_on_the_fixtures(self, fixture_findings):
        """Population meta-test: a rule nothing can trip is a dead rule."""
        fired = {finding.rule for finding in fixture_findings}
        assert fired == set(registered_rules())

    def test_shard_audit_rule_population_is_registered(self):
        """The shard-audit families must all be present in the registry."""
        assert {
            "sharding.shared-channel",
            "sharding.session-isolation",
            "sharding.clock-discipline",
            "sharding.picklability",
            "effects.global-mutable",
        } <= set(registered_rules())


@pytest.fixture(scope="class")
def package_report():
    """One analyzer run over the real package, shared by the gate's tests."""
    return run_lint()


@pytest.fixture
def cached_lint(package_report, monkeypatch):
    """Point the CLI's ``run_lint`` at the shared run instead of a rescan."""
    monkeypatch.setattr("repro.analysis.run_lint", lambda: package_report)


class TestPackageGate:
    def test_package_lints_clean(self, package_report):
        """The real package: zero unwhitelisted findings, no stale entries."""
        report = package_report
        assert report.clean, "\n" + report.render()
        assert report.files_scanned > 80
        # The whitelist is empty — the io/ package-scope exemption replaced
        # the per-site wall-clock entries — so the only suppressions left
        # are the reviewed inline pragmas (stale ones would be findings).
        assert report.suppressed, "expected the reviewed inline pragmas"
        assert all(
            isinstance(by, PragmaIgnore) for _, by in report.suppressed
        ), "the whitelist is empty; only pragma suppressions should remain"

    def test_cli_gate_exits_zero(self, capsys, cached_lint):
        from repro.experiments.cli import main

        assert main(["repro-lint", "--no-codegen"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_cli_shard_audit_json_report(self, capsys, tmp_path, cached_lint):
        from repro.experiments.cli import main

        out_path = tmp_path / "lint.json"
        argv = [
            "repro-lint",
            "--no-codegen",
            "--shard-audit",
            "--format",
            "json",
            "--report-output",
            str(out_path),
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["registry_problems"] == []
        assert {c["name"] for c in payload["channels"]} == set(
            channels.registered_channels()
        )
        # The artifact file carries the same payload CI uploads.
        assert json.loads(out_path.read_text()) == payload

    def test_cli_usage_error_exits_two(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["repro-lint", "--format", "yaml"])
        assert exc.value.code == 2


class TestCodegenAudit:
    @pytest.fixture(scope="class")
    def report(self):
        return audit_generated_pipelines()

    def test_generated_corpus_is_clean(self, report):
        assert report.clean, "\n" + report.render()

    def test_corpus_breadth(self, report):
        assert report.pipelines_audited >= 20
        assert report.hash_pipelines > 0
        assert report.merge_pipelines > 0
        assert report.inline_predicate_chains > 0
        assert report.opaque_predicate_chains > 0
        assert report.folds_audited > 0
        assert report.chains_audited >= report.pipelines_audited
        assert report.routes_audited >= 10
        assert report.folding_routes >= 3 and report.materialising_routes >= 3

    def test_missing_charge_fires(self):
        src = "def _chain(rows, _b=None, _sink=None):\n    _tr = len(rows)\n    _sink(rows)\n"
        findings = audit_chain_source(src, "<doctored>")
        assert any(
            f.rule == RULE_ACCOUNTING and "exactly one top-level _charge" in f.message
            for f in findings
        )

    def test_conditional_charge_fires(self):
        src = (
            "def _chain(rows, _charge=None, _sink=None):\n"
            "    _tr = len(rows)\n"
            "    _sink(rows)\n"
            "    if _tr:\n"
            "        _charge(tuples_read=_tr, predicate_evals=0, hash_inserts=0, "
            "hash_probes=0, tuple_copies=0, tuples_output=0)\n"
        )
        findings = audit_chain_source(src, "<doctored>")
        assert any(
            f.rule == RULE_ACCOUNTING and "exactly one top-level _charge" in f.message
            for f in findings
        )

    def test_incomplete_counter_set_fires(self):
        src = (
            "def _chain(rows, _charge=None, _sink=None):\n"
            "    _tr = len(rows)\n"
            "    _sink(rows)\n"
            "    _charge(tuples_read=_tr)\n"
        )
        findings = audit_chain_source(src, "<doctored>")
        assert any(
            f.rule == RULE_ACCOUNTING and "omits counters" in f.message
            for f in findings
        )

    def test_impure_predicate_fires(self):
        src = (
            "def _chain(rows, _charge=None, _sink=None):\n"
            "    _tr = len(rows)\n"
            "    rows = [row for row in rows if row[0] > len(row)]\n"
            "    _sink(rows)\n"
            "    _charge(tuples_read=_tr, predicate_evals=0, hash_inserts=0, "
            "hash_probes=0, tuple_copies=0, tuples_output=0)\n"
        )
        findings = audit_chain_source(src, "<doctored>")
        assert any(
            f.rule == RULE_PURITY and "len" in f.message for f in findings
        )

    def test_banned_name_in_generated_source_fires(self):
        src = (
            "def _chain(rows, _charge=None, _sink=None):\n"
            "    _tr = len(rows)\n"
            "    _t0 = time.time()\n"
            "    _sink(rows)\n"
            "    _charge(tuples_read=_tr, predicate_evals=0, hash_inserts=0, "
            "hash_probes=0, tuple_copies=0, tuples_output=0)\n"
        )
        findings = audit_chain_source(src, "<doctored>")
        assert any(
            f.rule == RULE_DETERMINISM and "'time'" in f.message for f in findings
        )

    def test_uncharged_fold_fires(self):
        src = "def _fold(rows, _self=None, _metrics=None):\n    for row in rows:\n        pass\n"
        findings = audit_fold_source(src, "<doctored-fold>")
        messages = " | ".join(f.message for f in findings)
        assert "aggregate_updates" in messages
        assert "tuples_consumed" in messages

    #: a stitch-up route as ``core/stitchup.py`` generates it: one plain hop,
    #: one hop with a residual predicate, folding into a ``sum`` group-by
    ROUTE = _loop_source(
        [_Hop("s", "a", "r0[1]", ()), _Hop("t", "b", "m1[0]", (("r0[0]", "m2[1]"),))],
        ", _groups=_groups, _get=_groups.get, _self=_self, _metrics=_metrics",
        (),
        (
            "key = (r0[2], m1[1])",
            "st = _get(key)",
            "if st is None:",
            "    _groups[key] = st = [0]",
            "st[0] = st[0] + m2[2]",
        ),
        ("_self.tuples_consumed += n2", "_metrics.aggregate_updates += n2 * 1"),
    )

    def doctored_route(self, old, new):
        assert self.ROUTE.count(old) == 1
        return audit_route_source(self.ROUTE.replace(old, new), "<doctored-route>")

    def test_route_fixture_is_clean(self):
        assert audit_route_source(self.ROUTE, "<route>") == []

    @pytest.mark.parametrize(
        "old, new, complaint",
        [
            # only counted when the bucket is long: short ones reach the level untallied
            (
                "        n1 += len(b1)\n",
                "        if len(b1) > 1:\n            n1 += len(b1)\n",
                "no returned tally counts len(b1)",
            ),
            # not counted at all
            (
                "                continue\n            c2 += len(b2)\n",
                "                continue\n",
                "no returned tally counts len(b2)",
            ),
            (
                "                n2 += 1\n                key",
                "                key",
                "survivors of the residual guard on b2",
            ),
            (
                "                n2 += 1\n                key = (r0[2], m1[1])\n",
                "                key = (r0[2], m1[1])\n                n2 += 1\n",
                "tally 'n2' is bumped away from its level's guard",
            ),
        ],
    )
    def test_untallied_route_level_fires(self, old, new, complaint):
        findings = self.doctored_route(old, new)
        assert any(f.rule == RULE_ACCOUNTING and complaint in f.message for f in findings)

    def test_uncharged_folding_route_fires(self):
        findings = self.doctored_route(
            "    _self.tuples_consumed += n2\n",
            "    if n2:\n        _self.tuples_consumed += n2\n",
        )
        assert any(
            f.rule == RULE_ACCOUNTING and "tuples_consumed" in f.message for f in findings
        )

    def test_nondeterministic_route_fires(self):
        findings = self.doctored_route(
            "    for r0 in rows:\n", "    for r0 in set(rows):\n"
        )
        assert any(f.rule == RULE_DETERMINISM and "'set'" in f.message for f in findings)

    @pytest.mark.parametrize(
        "new, complaint",
        [
            ("                row = r0 + m1 + m2\n", "concatenates rows"),
            ("                row = (r0[2], m1[1], m2[2])\n", "not the group key"),
        ],
    )
    def test_rematerialising_route_fires(self, new, complaint):
        old = "                key = (r0[2], m1[1])\n"
        findings = self.doctored_route(old, new + old)
        assert any(
            f.rule == RULE_MATERIALISATION and complaint in f.message for f in findings
        )
