"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.telemetry import TelemetryEvent, WriteAheadLog


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_capacity_defaults(self):
        args = build_parser().parse_args(["capacity"])
        assert args.route == "shap"
        assert args.threads == 100


class TestCommands:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "SPATIAL" in out

    def test_taxonomy(self, capsys):
        assert main(["taxonomy"]) == 0
        out = capsys.readouterr().out
        assert "neural_networks" in out
        assert "label_flipping" in out

    def test_capacity(self, capsys):
        assert main(["capacity", "--route", "shap", "--threads", "10",
                     "--iterations", "3"]) == 0
        out = capsys.readouterr().out
        assert "avg=" in out
        assert "err=" in out

    def test_capacity_unknown_route(self, capsys):
        assert main(["capacity", "--route", "nope"]) == 2
        assert "unknown route" in capsys.readouterr().err

    def test_capacity_records_engine(self, capsys):
        assert main(["capacity", "--engine", "records", "--threads", "10",
                     "--iterations", "3"]) == 0
        out = capsys.readouterr().out
        assert "engine=records" in out
        assert "avg=" in out

    def test_capacity_engines_agree_on_counts(self, capsys):
        assert main(["capacity", "--threads", "10", "--iterations", "3"]) == 0
        columnar = capsys.readouterr().out
        assert main(["capacity", "--engine", "records", "--threads", "10",
                     "--iterations", "3"]) == 0
        records = capsys.readouterr().out
        assert "samples=30" in columnar and "samples=30" in records
        assert "engine=columnar" in columnar
        assert "events/s" in columnar  # throughput line is columnar-only

    def test_capacity_open_loop_ring(self, capsys):
        assert main(["capacity", "--open-loop", "50", "--requests", "200",
                     "--no-retain"]) == 0
        out = capsys.readouterr().out
        assert "open-loop rate=50rps requests=200" in out
        assert "(ring)" in out
        assert "samples=200" in out
        assert "recycled" in out

    def test_capacity_open_loop_needs_columnar(self, capsys):
        assert main(["capacity", "--engine", "records",
                     "--open-loop", "50"]) == 2
        assert "--engine columnar" in capsys.readouterr().err

    def test_baselines_small(self, capsys):
        assert main(["baselines", "--samples", "400"]) == 0
        out = capsys.readouterr().out
        for name in ("LR", "DT", "RF", "MLP", "DNN"):
            assert name in out

    def test_poison_small(self, capsys):
        assert main(["poison", "--samples", "400"]) == 0
        out = capsys.readouterr().out
        assert "p=  0%" in out
        assert "p= 50%" in out

    def test_dashboard_demo(self, capsys):
        assert main(["dashboard-demo", "--samples", "400"]) == 0
        out = capsys.readouterr().out
        assert "AI DASHBOARD" in out
        assert "trust score" in out

    def test_model_card(self, capsys):
        assert main(["model-card", "--samples", "400"]) == 0
        out = capsys.readouterr().out
        assert "# Model card — fall-detection-demo" in out
        assert "## Evaluation" in out


@pytest.fixture()
def wal_dir(tmp_path):
    path = tmp_path / "wal"
    with WriteAheadLog(path) as wal:
        for i in range(30):
            wal.append(
                TelemetryEvent(
                    source="perf", value=0.9, timestamp=float(i)
                )
            )
            wal.append(
                TelemetryEvent(
                    source="fair", value=0.3, timestamp=float(i)
                )
            )
    return path


class TestTelemetryCommand:
    def test_missing_wal_dir_exits_2(self, tmp_path, capsys):
        assert main(["telemetry", "--wal", str(tmp_path / "empty")]) == 2
        assert "no WAL segments" in capsys.readouterr().err

    def test_report_covers_rollups_and_ranking(self, wal_dir, capsys):
        assert main(["telemetry", "--wal", str(wal_dir)]) == 0
        out = capsys.readouterr().out
        assert "60 events" in out
        assert "per-source rollups" in out
        assert "perf" in out and "fair" in out
        # 'fair' is consistently worse, so it leads the worst-of ranking
        worst = out.split("worst sources")[1]
        assert worst.index("fair") < worst.index("perf")

    def test_tail_prints_last_events(self, wal_dir, capsys):
        assert main(["telemetry", "--wal", str(wal_dir), "--tail", "3"]) == 0
        out = capsys.readouterr().out
        assert "last 3 event(s):" in out
        assert "t=29" in out

    def test_json_mode(self, wal_dir, capsys):
        assert main(["telemetry", "--wal", str(wal_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] == 60
        assert payload["sources"]["perf"]["count"] == 30
        assert payload["worst"][0][0] == "fair"

    def test_wal_flag_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry"])

    def test_invalid_window_exits_2(self, wal_dir, capsys):
        code = main(["telemetry", "--wal", str(wal_dir), "--window", "0"])
        assert code == 2
        assert "invalid rollup parameters" in capsys.readouterr().err

    def test_source_filter_restricts_the_table(self, wal_dir, capsys):
        code = main(
            ["telemetry", "--wal", str(wal_dir), "--source", "perf", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["sources"]) == ["perf"]

    def test_unknown_source_exits_2(self, wal_dir, capsys):
        code = main(["telemetry", "--wal", str(wal_dir), "--source", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown source" in err
        assert "perf" in err  # the error lists what exists

    def test_last_restricts_to_the_trailing_range(self, wal_dir, capsys):
        code = main(
            ["telemetry", "--wal", str(wal_dir), "--last", "5", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # 5 trailing 1s windows out of the 30 ingested per source
        assert payload["sources"]["perf"]["count"] == 5
        assert payload["last_seconds"] == 5.0

    def test_last_shows_in_the_text_report(self, wal_dir, capsys):
        assert main(["telemetry", "--wal", str(wal_dir), "--last", "5"]) == 0
        assert "trailing 5s" in capsys.readouterr().out

    def test_nonpositive_last_exits_2(self, wal_dir, capsys):
        assert main(["telemetry", "--wal", str(wal_dir), "--last", "0"]) == 2
        assert "--last" in capsys.readouterr().err


class TestSloCommand:
    def test_json_covers_alerts_incidents_and_status(self, capsys):
        assert main(["slo", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["faulted_node"] == "node-5"
        assert payload["errors"] == 0
        firing = [a for a in payload["alerts"] if a["state"] == "firing"]
        assert any(
            a["slo"] == "shap-latency" and a["severity"] == "page"
            for a in firing
        )
        assert payload["incidents"]
        assert payload["incidents"][0]["incident_id"] == "INC-0001"
        assert {s["slo"] for s in payload["status"]} == {
            "sensor-health", "shap-availability", "shap-latency",
        }
        assert "suspect node: node-5" in payload["report"]

    def test_watch_and_report_render_the_drill(self, capsys):
        code = main(["slo", "--watch", "--report", "--audience", "auditor"])
        assert code == 0
        out = capsys.readouterr().out
        assert "alert stream:" in out
        assert "FIRING" in out and "resolved" in out
        assert "AI DASHBOARD" in out
        assert "last incident: INC-" in out
        assert "REQUIRES REVIEW" in out  # the auditor narrative

    def test_definitions_file_overrides_the_drill_catalogue(
        self, tmp_path, capsys
    ):
        from repro.slo import drill_definitions

        catalogue = [d.to_dict() for d in drill_definitions("shap")]
        for entry in catalogue:
            entry["name"] = "custom-" + entry["name"]
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(catalogue))
        code = main(["slo", "--definitions", str(path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(s["slo"].startswith("custom-") for s in payload["status"])

    def test_bad_definitions_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "slo.json"
        path.write_text('{"not": "a list"}')
        assert main(["slo", "--definitions", str(path)]) == 2
        assert "bad SLO definitions" in capsys.readouterr().err


class TestLintCommand:
    def test_tree_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "fstring-placeholder" in out
        assert "lock-discipline" in out

    def test_seeded_violation_exits_nonzero(self, tmp_path, capsys):
        pkg = tmp_path / "ml"
        pkg.mkdir()
        (pkg / "bad.py").write_text('x = f"oops"\n', encoding="utf-8")
        assert main(["lint", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "ml/bad.py:1: [fstring-placeholder]" in out

    def test_layer_violation_exits_nonzero(self, tmp_path, capsys):
        pkg = tmp_path / "ml"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "from repro.gateway import ApiGateway\n", encoding="utf-8"
        )
        assert main(["lint", "--root", str(tmp_path)]) == 1
        assert "layer-contract" in capsys.readouterr().out

    def test_missing_root_exits_2(self, tmp_path, capsys):
        assert main(["lint", "--root", str(tmp_path / "nope")]) == 2
        assert "lint failed" in capsys.readouterr().err

    def test_unknown_rule_exits_2(self, capsys):
        assert main(["lint", "--rule", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_json_shape(self, tmp_path, capsys):
        pkg = tmp_path / "ml"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            'x = f"oops"\ndef f(y=[]): pass\n', encoding="utf-8"
        )
        assert main(["lint", "--root", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["modules"] == 1
        rules = [f["rule"] for f in payload["findings"]]
        assert rules == ["fstring-placeholder", "mutable-default"]
        first = payload["findings"][0]
        assert set(first) == {
            "path",
            "line",
            "rule",
            "message",
            "severity",
            "suppressed",
        }
        assert first["path"] == "ml/bad.py" and first["line"] == 1
        assert first["suppressed"] is False

    def test_json_on_real_tree_reports_contract_edges(self, capsys):
        assert main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["modules"] > 20
        assert ["core", "telemetry"] in payload["package_edges"]
        assert "fstring-placeholder" in payload["rules"]

    def test_rule_subset(self, tmp_path, capsys):
        pkg = tmp_path / "ml"
        pkg.mkdir()
        (pkg / "bad.py").write_text('x = f"oops"\n', encoding="utf-8")
        code = main(
            [
                "lint",
                "--root",
                str(tmp_path),
                "--rule",
                "mutable-default",
                "--no-contracts",
            ]
        )
        assert code == 0  # the f-string rule was not selected


class TestLintWholeProgram:
    """Call graph, taint explanations, incremental mode, strict baseline."""

    GOLDEN = Path(__file__).parent / "golden" / "lint_report.json"

    FIXTURE = {
        "telemetry/clockutil.py": (
            "import time\n\n\ndef wall_now():\n    return time.time()\n"
        ),
        "ml/model.py": (
            "from repro.telemetry.clockutil import wall_now\n\n\n"
            "def fit(X):\n"
            "    started = wall_now()\n"
            '    label = f"fit"\n'
            "    return X, started, label\n"
        ),
        "tracing/spanner.py": (
            "def handle(tracer, req):\n"
            "    span = tracer.start_span('handle')\n"
            "    if req is None:\n"
            "        return None\n"
            "    span.end()\n"
            "    return req\n"
        ),
        "gateway/ok.py": "def ping():\n    return 'pong'\n",
    }

    BASELINE = {
        "version": 1,
        "suppressions": [
            {
                "rule": "layer-contract",
                "path": "ml/model.py",
                "reason": (
                    "fixture: ml deliberately reaches into telemetry "
                    "to exercise the taint chain"
                ),
            }
        ],
    }

    def build_fixture(self, tmp_path):
        root = tmp_path / "src"
        for relpath, source in self.FIXTURE.items():
            path = root / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(self.BASELINE), encoding="utf-8")
        return root, baseline, tmp_path / "cache.json"

    def lint(self, root, baseline, cache, *extra):
        return main(
            [
                "lint",
                "--root",
                str(root),
                "--baseline",
                str(baseline),
                "--cache",
                str(cache),
                *extra,
            ]
        )

    def test_json_report_matches_golden_file(self, tmp_path, capsys):
        root, baseline, cache = self.build_fixture(tmp_path)
        assert self.lint(root, baseline, cache, "--json") == 1
        payload = json.loads(capsys.readouterr().out)
        payload["root"] = "<ROOT>"
        payload["baseline"] = "<BASELINE>"
        expected = json.loads(self.GOLDEN.read_text(encoding="utf-8"))
        assert payload == expected

    def test_changed_run_replays_from_cache(self, tmp_path, capsys):
        root, baseline, cache = self.build_fixture(tmp_path)
        self.lint(root, baseline, cache)
        capsys.readouterr()
        assert self.lint(root, baseline, cache, "--changed", "--json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["analyzed_modules"] == 0
        assert payload["reused_modules"] == len(self.FIXTURE)
        # replayed findings are identical to the cold run's
        rules = [f["rule"] for f in payload["findings"]]
        assert "wallclock-taint" in rules and "span-leak" in rules

    def test_jobs_flag_matches_serial_findings(self, tmp_path, capsys):
        root, baseline, cache = self.build_fixture(tmp_path)
        assert self.lint(root, baseline, cache, "--json") == 1
        serial = json.loads(capsys.readouterr().out)
        cache.unlink()
        code = self.lint(root, baseline, cache, "--jobs", "2", "--json")
        assert code == 1
        parallel = json.loads(capsys.readouterr().out)
        assert parallel["findings"] == serial["findings"]

    def test_explain_renders_cross_module_chain(self, tmp_path, capsys):
        root, baseline, cache = self.build_fixture(tmp_path)
        assert self.lint(root, baseline, cache, "--explain", "wallclock-taint") == 1
        out = capsys.readouterr().out
        assert "ml.model.fit" in out
        assert "telemetry.clockutil.wall_now" in out
        assert "time.time  [sink]" in out

    def test_graph_dot_export(self, tmp_path, capsys):
        root, baseline, cache = self.build_fixture(tmp_path)
        assert self.lint(root, baseline, cache, "--graph", "dot") == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph callgraph {")
        assert '"ml.model.fit" -> "telemetry.clockutil.wall_now";' in out

    def test_strict_baseline_fails_on_stale_entry(self, tmp_path, capsys):
        root, baseline, cache = self.build_fixture(tmp_path)
        payload = dict(self.BASELINE)
        payload["suppressions"] = payload["suppressions"] + [
            {
                "rule": "mutable-default",
                "path": "gateway/ok.py",
                "reason": "long since fixed",
            }
        ]
        baseline.write_text(json.dumps(payload), encoding="utf-8")
        # lenient mode reports the stale entry but still exits on findings
        assert self.lint(root, baseline, cache) == 1
        out = capsys.readouterr().out
        assert "stale baseline entry" in out
        # strict mode fails even once real findings are gone
        for relpath in ("ml/model.py", "tracing/spanner.py"):
            (root / relpath).write_text("x = 1\n", encoding="utf-8")
        assert self.lint(root, baseline, cache) == 0
        capsys.readouterr()
        code = self.lint(root, baseline, cache, "--strict-baseline")
        assert code == 1
        assert "strict baseline" in capsys.readouterr().out

    def test_repo_baseline_survives_strict_mode(self, capsys):
        assert main(["lint", "--strict-baseline"]) == 0
        assert "stale" not in capsys.readouterr().out


class TestTelemetryCorruption:
    def test_midstream_corruption_exits_2(self, wal_dir, capsys):
        segment = next(wal_dir.glob("*.jsonl"))
        lines = segment.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[5] = lines[5].replace('"value":', '"valXe":', 1)
        segment.write_text("".join(lines), encoding="utf-8")
        code = main(["telemetry", "--wal", str(wal_dir)])
        assert code == 2
        assert "damaged mid-stream" in capsys.readouterr().err


class TestPipedOutput:
    def test_closed_pipe_exits_without_traceback(self):
        # `python -m repro taxonomy | head -1`, with the reader gone before
        # the first write so the broken pipe is certain, not a race
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        read_end, write_end = os.pipe()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "taxonomy"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
        os.close(write_end)
        os.close(read_end)
        __, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert stderr == b""


class TestTraceCommand:
    ARGS = ["trace", "--threads", "4", "--iterations", "2", "--no-probe"]

    def test_text_report_has_all_views(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "traced capacity run" in out
        assert "slowest trace" in out
        assert "critical path" in out
        assert "per-span latency" in out
        assert "gateway.request" in out
        assert "0 open" in out

    def test_single_view_selection(self, capsys):
        assert main(self.ARGS + ["--view", "critical-path"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "per-span latency" not in out

    def test_json_mode(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_traces"] == 8
        assert payload["report"]["samples"] == 8
        slowest = payload["slowest_trace"]
        assert sum(seg["ms"] for seg in slowest["critical_path"]) == pytest.approx(
            slowest["duration_ms"]
        )
        assert payload["slowest_window"]["resolved"] is True
        assert payload["collector"]["traces"] == 8
        names = {row["name"] for row in payload["span_latency"]}
        assert "service.process" in names

    def test_probe_adds_sensor_spans(self, capsys):
        assert main(["trace", "--threads", "2", "--iterations", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in payload["span_latency"]}
        assert "sensor.poll" in names

    def test_unknown_route_exits_2(self, capsys):
        assert main(["trace", "--route", "nope"]) == 2
        assert "trace scenario failed" in capsys.readouterr().err
