"""Smoke test for the end-to-end benchmark.

Every workload runs briefly in a subprocess, untraced and traced, and
its final line must match the schema ``BENCHMARK.json`` declares.  The
correctness oracles must fire — a non-zero exit and no metrics — when a
result is deliberately corrupted.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e import compare, monitor, runner, sims
from benchmarks.e2e.common import ROOT, OracleError, load_contract
from benchmarks.e2e.serve import check_bitwise
from benchmarks.e2e.speed import REFERENCE_KERNEL_S, SENSITIVITY, HostSpeed

SMOKE_SECONDS = 1.0
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.e2e", "run",
            "--workload", workload, "--seed", "3",
            "--seconds", str(SMOKE_SECONDS), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_contract_is_well_formed():
    contract = load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in contract["workloads"]] == runner.WORKLOADS
    assert contract["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in contract[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", runner.WORKLOADS)
def test_result_matches_contract(workload, trace):
    contract = load_contract()
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in contract[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        assert values["attributed_frac"] >= 0.95
    else:
        assert all(v > 0 for v in values.values())


def _session_members(session: int) -> list:
    """Pids of the live processes in a session, read from ``/proc``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while being read
        # after the command name: state, ppid, pgrp, session
        if int(fields[3]) == session and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_no_process_outlives_a_run():
    """The pool worker and the shared-memory resource tracker end with the run."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "benchmarks.e2e", "run",
            "--workload", "serve-unique", "--seed", "3", "--seconds", "0.5", "--trace", "0",
        ],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    __, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr[-3000:]
    assert _session_members(proc.pid) == []


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_no_process_outlives_a_killed_run():
    """SIGKILL reaches no handler; the pool worker dies with the run anyway,
    and the resource tracker follows once nothing holds its pipe."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "benchmarks.e2e", "run",
            "--workload", "serve-unique", "--seed", "3", "--seconds", "5", "--trace", "0",
        ],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        # the run itself, the resource tracker and the pool worker
        deadline = time.monotonic() + 60
        while len(_session_members(proc.pid)) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert proc.poll() is None, "the run ended before it could be killed"
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while _session_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _session_members(proc.pid) == []
    finally:
        for pid in _session_members(proc.pid):
            os.kill(pid, signal.SIGKILL)


# -- the oracles fire on corrupted results ----------------------------------------


def test_bitwise_oracle_fires_on_one_ulp():
    value = np.array([0.25, 0.75])
    check_bitwise(value.copy(), value, "same")
    with pytest.raises(OracleError):
        check_bitwise(np.nextafter(value, 1.0), value, "one ulp off")


def test_telemetry_ledger_oracle_fires():
    ledger = {
        "published": 10, "wal_appended": 10, "replayed": 10,
        "rollup_delivered": 10, "rollup_ingested": 9, "rollup_late": 1,
        "dropped": 0, "sensor_errors": 0,
    }
    monitor.check_telemetry_ledger(ledger)
    for key, value in (("replayed", 9), ("rollup_late", 0), ("dropped", 1)):
        with pytest.raises(OracleError):
            monitor.check_telemetry_ledger(dict(ledger, **{key: value}))


def test_simulator_oracles_fire():
    ledger = {"appended": 5, "observed": 5, "in_flight": 0}
    sims.check_ledger(ledger, 5)
    with pytest.raises(OracleError):
        sims.check_ledger(dict(ledger, in_flight=1), 5)
    with pytest.raises(OracleError):
        sims.check_ledger(dict(ledger, observed=4), 5)
    with pytest.raises(OracleError):
        sims.check_same(["abc", "abd"], "digests")


def test_corrupted_serving_result_fails_the_run(monkeypatch):
    from repro.xai.shap import KernelShapExplainer

    exact = KernelShapExplainer.shap_values_batch_exact

    def off_by_one_ulp(self, X, class_index=None):
        return np.nextafter(exact(self, X, class_index), np.inf)

    monkeypatch.setattr(KernelShapExplainer, "shap_values_batch_exact", off_by_one_ulp)
    code, final, detail = runner.execute("serve-zipf", 0, 0.5, False)
    assert code == 1
    assert final["correct"] is False and final["metrics"] == {}
    assert "differs from the per-row kernel call" in detail["oracle_error"]


def test_lost_wal_record_fails_the_run(monkeypatch):
    from repro.telemetry.wal import WriteAheadLog

    append = WriteAheadLog.append

    def lossy(self, event):
        if self.appended != 100:
            append(self, event)
        else:
            self.appended += 1  # counted, never written

    monkeypatch.setattr(WriteAheadLog, "append", lossy)
    code, final, detail = runner.execute("monitor-ingest", 0, 0.2, False)
    assert code == 1 and final["metrics"] == {}
    assert "ledger does not balance" in detail["oracle_error"]


# -- host-speed scaling and the compare verdicts -----------------------------------


def _speed(kernel_seconds):
    """A HostSpeed holding one sample per second at the given kernel times."""
    speed = HostSpeed()
    for moment, seconds in enumerate(kernel_seconds):
        speed.stamps.append(float(moment))
        speed.seconds.append(seconds)
    return speed


def test_host_speed_scales_compute_and_keeps_idle_time():
    slow = _speed([2 * REFERENCE_KERNEL_S] * 20)
    assert slow.slowness_at(10.0) == pytest.approx(2.0)
    factor = 2.0**SENSITIVITY
    # 1 s of wall time of which 0.4 s idle: only the 0.6 s of compute scales
    assert slow.reference_seconds(1.0, 10.0, idle=0.4) == pytest.approx(0.4 + 0.6 / factor)
    blocks = [(t, t + 0.5, 100, 0.0) for t in range(5)]
    assert slow.block_rate(blocks) == pytest.approx(200.0 * factor)
    assert HostSpeed().block_rate(blocks) == pytest.approx(200.0)


def test_host_speed_follows_a_slow_spell_and_ignores_one_outlier():
    kernel_seconds = [REFERENCE_KERNEL_S] * 30 + [3 * REFERENCE_KERNEL_S] * 30
    kernel_seconds[10] = 50 * REFERENCE_KERNEL_S
    speed = _speed(kernel_seconds)
    assert speed.slowness_at(10.2) == pytest.approx(1.0)
    assert speed.slowness_at(45.0) == pytest.approx(3.0)


def test_verdicts_floor_and_unresolved():
    tight = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    worse = [v * 1.5 for v in tight]
    assert compare.verdict(tight, worse, 0.25, True)[0] == "regressed"
    assert compare.verdict(tight, tight, 0.25, True)[0] == "unchanged"
    # set-up 0.10 s -> 0.14 s is 40% worse but under the 0.05 s floor
    setup = [v / 10 for v in tight]
    assert compare.verdict(setup, [v * 1.4 for v in setup], 0.25, True, 0.05)[0] == "unchanged"
    noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    assert compare.verdict(noisy, list(reversed(noisy)), 0.25, True)[0] == "unresolved"
    faster = [v * 0.5 for v in tight]
    assert compare.verdict(tight, faster, 0.25, True)[0] == "gain"


def _results_file(path, values):
    runs = [
        {
            "workload": "capacity-sim",
            "trace": False,
            "result": {
                "correct": True,
                "attempted": 10,
                "failed": 0,
                "metrics": {"ops_per_s": {"value": v, "unit": "1/s"}},
            },
        }
        for v in values
    ]
    path.write_text(json.dumps({"sets": [{"runs": runs}]}), encoding="utf-8")
    return str(path)


def test_compare_exit_codes(tmp_path, capsys):
    steady = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    noisy = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
    parent = _results_file(tmp_path / "parent.json", steady)
    assert compare.main([parent, _results_file(tmp_path / "same.json", steady)]) == 0
    slower = _results_file(tmp_path / "slower.json", [v * 0.6 for v in steady])
    assert compare.main([parent, slower]) == compare.EXIT_REGRESSED
    unclear = _results_file(tmp_path / "noisy.json", noisy)
    assert compare.main([parent, unclear]) == compare.EXIT_UNRESOLVED
    capsys.readouterr()
