"""Engine mechanics: registration, parsing, finding assembly."""

import ast

import pytest

from repro.analysis.engine import (
    AnalysisEngine,
    Finding,
    ModuleContext,
    all_rules,
    get_rule,
    rule,
)
from repro.analysis.runner import run_analysis


class TestRegistry:
    def test_catalogue_is_nonempty_and_sorted(self):
        specs = all_rules()
        assert len(specs) >= 8
        assert [s.rule_id for s in specs] == sorted(s.rule_id for s in specs)

    def test_every_rule_has_a_description(self):
        for spec in all_rules():
            assert spec.description.strip()
            assert spec.severity in ("error", "warning")

    def test_duplicate_rule_id_rejected(self):
        existing = all_rules()[0].rule_id
        with pytest.raises(ValueError, match="duplicate"):

            @rule(existing)
            def clone_rule(module):  # pragma: no cover
                return []

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            rule("x-temp", severity="fatal")

    def test_get_rule_unknown_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="unknown rule"):
            get_rule("no-such-rule")


class TestModuleContext:
    def test_package_of_nested_and_root_modules(self):
        assert ModuleContext.from_source("x = 1", "ml/model.py").package == "ml"
        assert ModuleContext.from_source("x = 1", "cli.py").package == ""

    def test_is_init(self):
        assert ModuleContext.from_source("", "ml/__init__.py").is_init
        assert not ModuleContext.from_source("", "ml/model.py").is_init

    def test_walk_filters_by_type(self):
        ctx = ModuleContext.from_source("def f(): pass\nx = 1")
        assert len(list(ctx.walk(ast.FunctionDef))) == 1


class TestEngine:
    def test_unknown_rule_selection_fails_fast(self):
        with pytest.raises(KeyError):
            AnalysisEngine(rules=["nope"])

    def test_selected_subset_only_runs_those_rules(self):
        engine = AnalysisEngine(rules=["mutable-default"])
        findings = engine.analyze_source('x = f"no placeholder"\ndef f(y=[]): pass')
        assert [f.rule for f in findings] == ["mutable-default"]

    def test_findings_sorted_by_path_then_line(self):
        engine = AnalysisEngine(rules=["mutable-default"])
        src = "def a(x=[]): pass\ndef b(y={}): pass"
        lines = [f.line for f in engine.analyze_source(src)]
        assert lines == sorted(lines)

    def test_run_analysis_reports_syntax_error_as_finding(self, tmp_path):
        root = tmp_path / "src"
        root.mkdir()
        (root / "bad.py").write_text("def broken(:\n", encoding="utf-8")
        (root / "good.py").write_text("x = 1\n", encoding="utf-8")
        report = run_analysis(root, cache_path=tmp_path / "lint-cache.json")
        assert report.modules == 1  # only the parsable module counts
        assert [f.rule for f in report.findings] == ["syntax-error"]

    def test_finding_render_is_clickable(self):
        finding = Finding(path="ml/model.py", line=7, rule="r", message="m")
        assert finding.render() == "ml/model.py:7: [r] m"
