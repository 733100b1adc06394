"""Single runs (the final JSON line) and sets of runs in subprocesses."""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e.common import (
    ROOT,
    SETUP_REPEATS,
    THREAD_ENV,
    Measurement,
    OracleError,
    load_contract,
    metric_units,
    quartiles,
    spread,
    work_dir,
)
from benchmarks.e2e.speed import HostSpeed

#: Host-speed samples before each build and after the last.
SETUP_SAMPLES = 5
WORKLOADS = ["serve-zipf", "serve-unique", "monitor-ingest", "cluster-sim", "capacity-sim"]
DETAIL_PREFIX = "DETAIL "
#: A run that has not finished after this long is killed and reported.
RUN_TIMEOUT_S = 600
#: A single run ends itself after this many seconds plus twice its
#: ``--seconds``: 140 s at the contract's 10 s, inside its 180 s limit.
WATCHDOG_BASE_S = 120
#: ``prctl`` option: the signal a child gets when its parent ends.
PR_SET_PDEATHSIG = 1


def make_workload(name: str):
    from benchmarks.e2e import monitor, serve, sims

    factories = {
        "serve-zipf": lambda: serve.ServeWorkload(serve.ZIPF),
        "serve-unique": lambda: serve.ServeWorkload(serve.UNIQUE),
        "monitor-ingest": monitor.MonitorWorkload,
        "cluster-sim": sims.ClusterSimWorkload,
        "capacity-sim": sims.CapacitySimWorkload,
    }
    return factories[name]()


def frozen_settings() -> Dict[str, object]:
    """The constants a results file must carry to be comparable."""
    from benchmarks.e2e import monitor, serve, sims

    return {
        "serve-zipf": {"rate_rps": serve.ZIPF.rate_rps, "open_loop_share": serve.OPEN_LOOP_SHARE},
        "serve-unique": {"rate_rps": serve.UNIQUE.rate_rps, "open_loop_share": serve.OPEN_LOOP_SHARE},
        "monitor-ingest": {
            "events_per_s": monitor.EVENTS_PER_S,
            "rounds_per_s": monitor.ROUNDS_PER_S,
            "reads_per_s": monitor.READS_PER_S,
        },
        "cluster-sim": {
            "requests_per_s": sims.ClusterSimWorkload.requests_per_s,
            "rate_rps_per_route": sims.ClusterSimWorkload.rate_rps,
        },
        "capacity-sim": {
            "requests_per_s": sims.CapacitySimWorkload.requests_per_s,
            "rate_rps": sims.CapacitySimWorkload.rate_rps,
        },
        "setup_repeats": SETUP_REPEATS,
    }


# -- one run ------------------------------------------------------------------


def execute(name: str, seed: int, seconds: float, trace: bool) -> Tuple[int, dict, dict]:
    """Run one workload once; returns (exit code, final line, detail).

    A failed correctness check gives exit code 1 and a final line with
    ``correct: false`` and no metrics.
    """
    from benchmarks.e2e.layers import LayerTracer, NullLayers

    contract = load_contract()
    workload = make_workload(name)
    layers = LayerTracer() if trace else NullLayers()
    speed = HostSpeed()
    measurement: Optional[Measurement] = None
    detail: Dict[str, object] = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    with work_dir() as scratch:
        workload.work_dir = Path(scratch)
        inputs = workload.inputs(seed, seconds)
        setup_starts: List[float] = []
        setup_raw: List[float] = []
        system = None
        try:
            for __ in range(SETUP_REPEATS):
                if system is not None:
                    workload.close(system)
                speed.sample(SETUP_SAMPLES)
                start = time.perf_counter()
                system = workload.build(inputs, layers)
                setup_raw.append(time.perf_counter() - start)
                setup_starts.append(start)
            speed.sample(SETUP_SAMPLES)
            gc.collect()
            measurement = workload.run(inputs, system, layers, speed)
            workload.verify(inputs, system, measurement)
            if trace:
                detail["trees_checked"] = layers.fold.verify()
        except OracleError as exc:
            print(f"correctness check failed: {exc}", file=sys.stderr)
            detail["oracle_error"] = str(exc)
            final = {
                "correct": False,
                "attempted": max(1, measurement.attempted if measurement else 1),
                "failed": measurement.failed if measurement else 0,
                "metrics": {},
            }
            return 1, final, detail
        finally:
            if system is not None:
                workload.close(system)
    e2e = dict(measurement.e2e)
    e2e["setup_s"] = statistics.median(speed.scaled(setup_raw, setup_starts))
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    section = "per_layer" if trace else "end_to_end"
    units = metric_units(contract, section)
    values = measurement.layers if trace else e2e
    if not trace and set(units) - set(values):
        raise RuntimeError(f"{name} measured no {sorted(set(units) - set(values))}")
    # a layer the workload bypasses reads 0
    metrics = {
        metric: {"value": float(values.get(metric, 0.0)), "unit": unit}
        for metric, unit in units.items()
    }
    detail.update(
        e2e=e2e,
        raw=dict(measurement.raw, setup_s=statistics.median(setup_raw)),
        layers=measurement.layers,
        setup_runs_s=setup_raw,
        slowness={
            "median": speed.median_slowness(),
            "samples": len(speed.seconds),
            "setup": [speed.slowness_at(t) for t in setup_starts],
        },
        tail_percentile=workload.tail_percentile,
        info=measurement.info,
    )
    final = {
        "correct": True,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }
    return 0, final, detail


class RunTimeout(RuntimeError):
    """The single-run watchdog fired."""


def guard_run(seconds: float) -> None:
    """Make every way out of this run stop the processes it starts.

    SIGTERM and a watchdog alarm unwind like exceptions, so the pool's
    ``close`` and :func:`stop_children` still run on the way out.  A hung
    run thus ends itself with an error after ``WATCHDOG_BASE_S`` plus
    twice its measured seconds, before anything outside must kill it.
    A forked child asks the kernel for SIGKILL when the run's process
    ends, which covers the one way out no handler sees: SIGKILL itself.
    """
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(int(WATCHDOG_BASE_S + 2 * seconds))
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return  # not Linux: the handlers above still cover SIGTERM and hangs
    forking = [os.getpid()]

    def die_with_parent() -> None:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != forking[0]:
            os._exit(1)  # the parent ended before the request took hold

    os.register_at_fork(
        before=lambda: forking.__setitem__(0, os.getpid()),
        after_in_child=die_with_parent,
    )


def _watchdog(signum, frame) -> None:
    raise RunTimeout(f"run still going after its {WATCHDOG_BASE_S} s + 2 x --seconds watchdog")


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    The kernel pool joins its forked workers on close; any left alive is
    killed here.  ``multiprocessing.shared_memory`` also launches a
    resource-tracker process that by design outlives its parent by a few
    seconds, so it is stopped and reaped too.  Workers go first: each
    holds the tracker's pipe open, and the tracker ends only when every
    holder has closed it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def print_run(final: dict, detail: dict) -> None:
    """Human-readable summary, the detail line, then the final JSON line."""
    from benchmarks.e2e import report

    print(report.run_summary(final, detail))
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(json.dumps(final))


# -- sets of runs ---------------------------------------------------------------


def host_fingerprint() -> Dict[str, object]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        **_git_state(),
    }


def _git_state() -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return {"git_sha": "unknown", "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(dirty)}


def spawn(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in a fresh interpreter with single-threaded BLAS."""
    env = dict(os.environ, **THREAD_ENV)
    command = [
        sys.executable, "-m", "benchmarks.e2e", "run",
        "--workload", name, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)),
    ]
    load_before = os.getloadavg()
    start = time.perf_counter()
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    record = {
        "workload": name,
        "seed": seed,
        "trace": bool(trace),
        "returncode": proc.returncode,
        "wall_s": time.perf_counter() - start,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith(DETAIL_PREFIX):
            record["detail"] = json.loads(line[len(DETAIL_PREFIX):])
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        record["result"] = None
    if proc.returncode != 0:
        record["stderr"] = proc.stderr[-4000:]
    return record


def run_set(names: List[str], seed: int, seconds: float, repeats: int, log) -> dict:
    """``repeats`` untraced runs of each workload, then one traced run each.

    Workloads interleave within a repeat, so slow drift on the host
    spreads over all of them instead of landing on one.
    """
    runs = []
    plan = [(name, False) for __ in range(repeats) for name in names]
    plan += [(name, True) for name in names]
    for index, (name, trace) in enumerate(plan, 1):
        record = spawn(name, seed, seconds, trace)
        runs.append(record)
        status = "ok" if record["returncode"] == 0 else f"FAILED rc={record['returncode']}"
        log(f"[{index}/{len(plan)}] {name} trace={int(trace)} {record['wall_s']:.1f}s {status}")
    return {"runs": runs, "summary": summarize(runs), "oracles": cross_run_oracles(runs)}


def summarize(runs: List[dict]) -> Dict[str, Dict[str, dict]]:
    """Median, quartiles and spread per (workload, end-to-end metric)."""
    summary: Dict[str, Dict[str, dict]] = {}
    for workload in sorted({r["workload"] for r in runs}):
        untraced = [r for r in runs if r["workload"] == workload and not r["trace"] and r["result"]]
        by_metric: Dict[str, List[float]] = {}
        for record in untraced:
            for metric, entry in record["result"]["metrics"].items():
                by_metric.setdefault(metric, []).append(entry["value"])
        summary[workload] = {
            metric: _stats(values) for metric, values in sorted(by_metric.items())
        }
        traced = [r for r in runs if r["workload"] == workload and r["trace"] and r.get("detail")]
        ops = by_metric.get("ops_per_s")
        if traced and ops:
            summary[workload]["measured_tracing_overhead"] = {
                "value": 1.0 - traced[0]["detail"]["e2e"]["ops_per_s"] / statistics.median(ops)
            }
    return summary


def _stats(values: List[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread(values),
        "values": values,
    }


def cross_run_oracles(runs: List[dict]) -> Dict[str, object]:
    """Same-seed runs must agree exactly where the program is deterministic:
    the simulators' report digests and failure counts, and the monitor's
    alert edges."""
    from benchmarks.e2e.sims import check_same

    checked: Dict[str, object] = {}
    failures = []
    for workload in ("monitor-ingest", "cluster-sim", "capacity-sim"):
        details = [r["detail"] for r in runs if r["workload"] == workload and r.get("detail")]
        if len(details) < 2:
            continue
        keys = ["digest"] if workload == "monitor-ingest" else ["digest", "fail_frac"]
        for key in keys:
            values = [str(d["info"][key]) for d in details if "info" in d]
            try:
                check_same(values, f"{workload} {key}")
                checked[f"{workload}.{key}"] = values[0]
            except OracleError as exc:
                failures.append(str(exc))
    failed_runs = [
        f"{r['workload']} trace={int(r['trace'])} rc={r['returncode']}"
        for r in runs
        if r["returncode"] != 0
    ]
    return {"checked": checked, "failures": failures, "failed_runs": failed_runs}
