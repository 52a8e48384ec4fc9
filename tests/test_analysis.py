"""The static analyzer's own test suite.

Two layers:

* **fixture tests** — ``tests/analysis_fixtures/`` is a miniature package
  tree with ``# LINT:`` marker comments on every seeded violation; each
  rule is asserted to fire at exactly the marked file/line, and sanctioned
  neighbouring constructs (seeded RNGs, ``sorted`` iteration, charged
  operators, compliant policies) are asserted silent;
* **gate tests** — the real package must lint clean (zero unsuppressed
  findings, no stale pragmas).
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import (
    collect_pragmas,
    default_rules,
    registered_rules,
    run_lint,
)
from repro.analysis.reachability import UnreadCallableRule
from repro.analysis.rules import RuleContext
from repro.analysis.runner import STALE_PRAGMA_RULE, apply_rules, load_contexts
from repro.analysis.sharding import UNPICKLABLE_TYPE_NAMES, read_registry

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
    """All raw findings of every rule over the fixture tree (no pragmas applied)."""
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
        report = run_lint(tmp_path)
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

    def test_the_method_tables_name_only_live_methods(self):
        """Both rules select methods by name: a name no package class
        defines any more checks nothing, and the read scheduler, which
        decides every tuple's read order, must be on the emit path."""
        from repro.analysis.accounting import MUTATION_ENTRY_POINTS
        from repro.analysis.determinism import EMIT_PATH_METHODS

        defined = {
            item.name
            for path in PACKAGE_ROOT.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert EMIT_PATH_METHODS <= defined
        assert MUTATION_ENTRY_POINTS <= defined
        assert {"_read_schedule", "_zero_quotas", "read_run"} <= EMIT_PATH_METHODS

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
            (line_of(self.PATH, "unread-string-table"), "named_in_a_table"),
        }

    def test_a_reader_anywhere_in_the_tree_counts(self, tmp_path):
        """A read in another module keeps a callable; deleting the reader
        makes the same definition a finding."""
        (tmp_path / "lib.py").write_text("def helper():\n    return 1\n")
        user = tmp_path / "user.py"
        user.write_text("from lib import helper\n\nVALUE = helper()\n")
        assert not run_lint(tmp_path).findings
        user.write_text("from lib import helper\n")
        report = run_lint(tmp_path)
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
        "string-outside-attribute-builtins": (
            {"lib.py": "def hook(): ...", "use.py": "HOOKS = ('hook',)\nprint('hook')"},
            {"hook"},
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

    def test_an_unlinted_reader_counts_and_is_not_checked(self):
        """The benchmark and the examples read the package; no rule checks them."""
        contexts = [
            RuleContext.from_source("lib.py", "def helper(): ..."),
            RuleContext.from_source(
                "run.py",
                "import random\nDRAW = random.random()\ndef unread(): ...\nhelper()",
                linted=False,
            ),
        ]
        assert apply_rules(contexts, default_rules()) == []
        contexts[1].linted = True
        assert [(f.rule, f.path, f.line) for f in apply_rules(contexts, default_rules())] == [
            ("determinism.module-random", "run.py", 2),
            ("reachability.unread", "run.py", 3),
        ]

    def test_pragma_suppresses_and_goes_stale_with_a_reader(self, tmp_path):
        pragma = "  # lint: ignore[reachability.unread] only the benchmark calls it"
        (tmp_path / "lib.py").write_text(f"def helper():{pragma}\n    return 1\n")
        report = run_lint(tmp_path)
        assert report.clean and [(f.symbol, f.line) for f, _ in report.suppressed] == [
            ("helper", 1)
        ]
        (tmp_path / "use.py").write_text("from lib import helper\n\nVALUE = helper()\n")
        report = run_lint(tmp_path)
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


def registry_tree(root: Path, registry: str, **modules: str) -> None:
    """A scan tree with ``serving/channels.py`` and one module per keyword."""
    (root / "serving").mkdir(exist_ok=True)
    (root / "serving" / "channels.py").write_text(registry)
    for name, source in modules.items():
        (root / f"{name}.py").write_text(source)


def rule_findings(root: Path, rule: str) -> list[tuple[str, int, str]]:
    return [(f.path, f.line, f.symbol) for f in run_lint(root).findings if f.rule == rule]


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

    def test_writer_naming_no_function_fires_at_its_line(self, fixture_findings):
        hits = findings_for(fixture_findings, self.RULE, "serving/channels.py")
        assert [(f.line, f.symbol) for f in hits] == [
            (line_of("serving/channels.py", "stale-writer"), "CLOCK_WRITERS")
        ]
        assert "MiniLoop.rewind" in hits[0].message

    def test_a_writer_entry_goes_stale_with_its_function(self, tmp_path):
        registry = (
            'CLOCK_WRITERS = (\n    "loop.py::Loop.run",\n)\n'
            "CROSS_PROCESS_TYPES = ()\n"
        )
        loop = "class Loop:\n    def run(self, clock):\n        clock.advance(1.0)\n"
        registry_tree(tmp_path, registry, loop=loop)
        assert rule_findings(tmp_path, self.RULE) == []
        (tmp_path / "loop.py").write_text("class Loop:\n    pass\n")
        assert rule_findings(tmp_path, self.RULE) == [
            ("serving/channels.py", 2, "CLOCK_WRITERS")
        ]


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

    def test_type_naming_no_class_fires_at_its_line(self, fixture_findings):
        hits = findings_for(fixture_findings, self.RULE, "serving/channels.py")
        assert [(f.line, f.symbol) for f in hits] == [
            (line_of("serving/channels.py", "stale-payload"), "CROSS_PROCESS_TYPES")
        ]
        assert "RetiredSnapshot" in hits[0].message

    def test_a_type_entry_goes_stale_with_its_class(self, tmp_path):
        registry = 'CROSS_PROCESS_TYPES = (\n    "Task",\n)\nCLOCK_WRITERS = ()\n'
        registry_tree(tmp_path, registry, task="class Task:\n    rows: list[int]\n")
        assert rule_findings(tmp_path, self.RULE) == []
        (tmp_path / "task.py").write_text("ROWS = []\n")
        assert rule_findings(tmp_path, self.RULE) == [
            ("serving/channels.py", 2, "CROSS_PROCESS_TYPES")
        ]

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
        report = run_lint(FIXTURE_ROOT)
        pragma_suppressed = {(f.rule, f.path, f.line) for f, _ in report.suppressed}
        assert pragma_suppressed == {
            (
                "effects.global-mutable",
                self.PATH,
                line_of(self.PATH, "memo-cache"),
            ),
        }

    def test_stale_pragma_is_reported_as_a_finding(self):
        report = run_lint(FIXTURE_ROOT)
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
        report = run_lint(FIXTURE_ROOT)
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
    def test_analyzer_reads_the_real_registry(self):
        contexts = load_contexts(PACKAGE_ROOT)
        writers = read_registry(contexts, "CLOCK_WRITERS")
        types = read_registry(contexts, "CROSS_PROCESS_TYPES")
        assert "engine/pipelined.py::PipelinedPlan.step_batch" in dict(writers)
        assert {"ShardTask", "ShardResult"} <= set(dict(types))
        # Real-I/O envelopes hold sockets and threads: they never cross.
        assert not set(dict(types)) & UNPICKLABLE_TYPE_NAMES

    @pytest.mark.parametrize(
        ("registry", "line"),
        [
            ("CROSS_PROCESS_TYPES = ()\nCLOCK_WRITERS = tuple(['a'])\n", 2),
            ('CROSS_PROCESS_TYPES = ()\nCLOCK_WRITERS = ("a.py::f", 1)\n', 2),
            ('CROSS_PROCESS_TYPES = ()\nCLOCK_WRITERS = ["a.py::f"]\n', 2),
            ("CROSS_PROCESS_TYPES = ()\n", 1),
        ],
        ids=["not-literal", "non-string-entry", "list", "missing"],
    )
    def test_a_malformed_registry_is_a_finding_at_its_line(
        self, tmp_path, registry, line
    ):
        """The lint run still completes and reports: a bad tuple is a
        finding of the rule that reads it, at its assignment."""
        registry_tree(tmp_path, registry)
        report = run_lint(tmp_path)
        hits = [f for f in report.findings if f.path == "serving/channels.py"]
        assert [(f.rule, f.line, f.symbol) for f in hits] == [
            ("sharding.clock-discipline", line, "CLOCK_WRITERS")
        ]
        assert "literal tuple of strings" in hits[0].message
        assert read_registry([], "CLOCK_WRITERS") is None

    def test_entries_carry_their_own_lines(self):
        registry = (
            'CLOCK_WRITERS = (\n    "a.py::f",\n    "a.py::g",\n)\n'
            'CROSS_PROCESS_TYPES: tuple[str, ...] = ("A", "B")\n'
        )
        contexts = [RuleContext.from_source("serving/channels.py", registry)]
        assert read_registry(contexts, "CLOCK_WRITERS") == [
            ("a.py::f", 2),
            ("a.py::g", 3),
        ]
        assert read_registry(contexts, "CROSS_PROCESS_TYPES") == [("A", 5), ("B", 5)]


class TestRulePopulation:
    def test_every_registered_rule_fires_on_the_fixtures(self, fixture_findings):
        """Population meta-test: a rule nothing can trip is a dead rule."""
        fired = {finding.rule for finding in fixture_findings}
        assert fired == set(registered_rules())

    def test_rule_population(self):
        """Eight rules, each guarding a live contract."""
        assert set(registered_rules()) == {
            "determinism.wall-clock",
            "determinism.module-random",
            "determinism.unordered-iter",
            "accounting.uncharged-mutation",
            "sharding.clock-discipline",
            "sharding.picklability",
            "effects.global-mutable",
            "reachability.unread",
        }


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
        """The real package: zero unsuppressed findings, no stale pragmas."""
        report = package_report
        assert report.clean, "\n" + report.render()
        assert report.files_scanned > 80
        assert report.suppressed, "expected the reviewed inline pragmas"

    def test_cli_gate_exits_zero(self, capsys, cached_lint):
        from repro.experiments.cli import main

        assert main(["repro-lint"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_cli_json_report(self, capsys, tmp_path, cached_lint):
        from repro.experiments.cli import main

        out_path = tmp_path / "lint.json"
        argv = [
            "repro-lint",
            "--format",
            "json",
            "--report-output",
            str(out_path),
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert "channels" not in payload and "codegen" not in payload
        # The artifact file carries the same payload CI uploads.
        assert json.loads(out_path.read_text()) == payload

    @pytest.mark.parametrize(
        "flag", (["--format", "yaml"], ["--shard-audit"], ["--no-codegen"])
    )
    def test_cli_usage_error_exits_two(self, flag):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["repro-lint", *flag])
        assert exc.value.code == 2

