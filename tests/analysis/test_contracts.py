"""Import-graph analyzer: layering contract + cycle detection.

Synthetic trees are written to ``tmp_path`` so the tests prove the
``networkx`` pass catches violations *before* they exist in the real
tree — including the acceptance-criterion case of ``ml`` importing
``gateway``.
"""

from pathlib import Path

import pytest

from repro.analysis import ALLOWED_IMPORTS, ImportGraphAnalyzer, run_analysis
from repro.analysis.symbols import module_name


def write_tree(root: Path, files: dict) -> Path:
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


class TestModuleNaming:
    def test_plain_module(self):
        assert module_name("ml/model.py") == "ml.model"

    def test_package_init(self):
        assert module_name("ml/__init__.py") == "ml"

    def test_root_module(self):
        assert module_name("cli.py") == "cli"


class TestLayeringContract:
    def test_ml_may_not_import_gateway(self, tmp_path):
        """The acceptance-criterion case: a synthetic ml -> gateway import."""
        write_tree(
            tmp_path,
            {
                "ml/__init__.py": "",
                "ml/bad.py": "from repro.gateway import ApiGateway\n",
                "gateway/__init__.py": "",
            },
        )
        analyzer = ImportGraphAnalyzer()
        analyzer.add_tree(tmp_path)
        findings = analyzer.contract_violations()
        assert len(findings) == 1
        assert findings[0].rule == "layer-contract"
        assert findings[0].path == "ml/bad.py"
        assert "'ml' may not import 'gateway'" in findings[0].message

    def test_telemetry_may_not_import_core(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "telemetry/events.py": (
                    "def f():\n"
                    "    from repro.core.sensors import SensorReading\n"
                ),
            },
        )
        analyzer = ImportGraphAnalyzer()
        analyzer.add_tree(tmp_path)
        findings = analyzer.contract_violations()
        assert len(findings) == 1
        assert "'telemetry' may not import 'core'" in findings[0].message
        assert findings[0].line == 2  # lazy imports are still violations

    def test_allowed_edges_pass(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/monitor.py": "from repro.telemetry.bus import TelemetryBus\n",
                "gateway/services.py": "from repro.ml import DNNClassifier\n",
                "attacks/sponge.py": "from repro.gateway.gateway import ApiGateway\n",
            },
        )
        analyzer = ImportGraphAnalyzer()
        analyzer.add_tree(tmp_path)
        assert analyzer.contract_violations() == []

    def test_root_modules_are_unrestricted(self, tmp_path):
        write_tree(
            tmp_path,
            {"cli.py": "from repro.gateway import ApiGateway\n"},
        )
        analyzer = ImportGraphAnalyzer()
        analyzer.add_tree(tmp_path)
        assert analyzer.contract_violations() == []

    def test_custom_contract_is_respected(self, tmp_path):
        write_tree(
            tmp_path,
            {"ml/bad.py": "from repro.gateway import ApiGateway\n"},
        )
        permissive = dict(ALLOWED_IMPORTS)
        permissive["ml"] = frozenset({"gateway"})
        analyzer = ImportGraphAnalyzer(allowed=permissive)
        analyzer.add_tree(tmp_path)
        assert analyzer.contract_violations() == []


class TestImportCycles:
    def test_synthetic_cycle_detected(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "ml/a.py": "from repro.ml.b import thing\n",
                "ml/b.py": "from repro.ml.c import thing\n",
                "ml/c.py": "from repro.ml.a import thing\n",
            },
        )
        analyzer = ImportGraphAnalyzer()
        analyzer.add_tree(tmp_path)
        findings = analyzer.import_cycles()
        assert len(findings) == 1
        assert findings[0].rule == "import-cycle"
        assert "ml.a -> ml.b -> ml.c -> ml.a" in findings[0].message

    def test_two_module_cycle_detected(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/x.py": "from repro.core.y import f\n",
                "core/y.py": "from repro.core.x import g\n",
            },
        )
        analyzer = ImportGraphAnalyzer()
        analyzer.add_tree(tmp_path)
        assert len(analyzer.import_cycles()) == 1

    def test_init_reexport_is_not_a_self_cycle(self, tmp_path):
        """``from repro.pkg import submodule`` inside pkg/__init__ resolves
        to the submodule, not to the package itself."""
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "from repro.pkg import helpers\n",
                "pkg/helpers.py": "x = 1\n",
            },
        )
        analyzer = ImportGraphAnalyzer()
        analyzer.add_tree(tmp_path)
        assert analyzer.import_cycles() == []

    def test_acyclic_chain_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "ml/a.py": "from repro.ml.b import thing\n",
                "ml/b.py": "from repro.ml.c import thing\n",
                "ml/c.py": "x = 1\n",
            },
        )
        analyzer = ImportGraphAnalyzer()
        analyzer.add_tree(tmp_path)
        assert analyzer.import_cycles() == []

    def test_relative_imports_resolve(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "ml/a.py": "from .b import thing\n",
                "ml/b.py": "from .a import other\n",
            },
        )
        analyzer = ImportGraphAnalyzer()
        analyzer.add_tree(tmp_path)
        assert len(analyzer.import_cycles()) == 1


class TestRealTree:
    """The actual src/repro tree must satisfy its own declared contract."""

    def test_no_contract_violations_or_cycles(self):
        report = run_analysis(contracts=True)
        offenders = [
            f
            for f in report.findings + report.suppressed
            if f.rule in ("layer-contract", "import-cycle")
        ]
        assert offenders == [], [f.render() for f in offenders]

    def test_every_observed_edge_is_declared(self):
        """ALLOWED_IMPORTS must stay the superset of reality — if this
        fails, either fix the import or amend the contract + DESIGN.md."""
        import repro

        analyzer = ImportGraphAnalyzer()
        analyzer.add_tree(Path(repro.__file__).resolve().parent)
        for src, dst in analyzer.package_edges():
            if src in ALLOWED_IMPORTS:
                assert dst in ALLOWED_IMPORTS[src], (src, dst)

    def test_pure_substrates_import_nothing(self):
        for package in ("ml", "datasets", "telemetry", "analysis"):
            assert ALLOWED_IMPORTS[package] == frozenset()
