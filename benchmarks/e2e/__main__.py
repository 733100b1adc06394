"""Command line: ``python -m benchmarks.e2e run|compare``.

``run --workload W --seed S --seconds T --trace 0|1`` is one run in this
process: it prints a human-readable summary, a ``DETAIL`` line, and as
its last line the JSON result whose metrics ``BENCHMARK.json`` declares.

``run --repeats N [--sets K] [--out FILE]`` (workload optional) runs
sets of runs, each run in a fresh subprocess, and writes a results file
with the host fingerprint, settings and every raw value.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from benchmarks.e2e.common import ROOT, THREAD_ENV

# Pinned before numpy loads, so BLAS starts with one thread.
os.environ.update(THREAD_ENV)
sys.path.insert(0, str(ROOT / "src"))

#: Untraced runs per workload in a set: ``compare`` needs ten pairs
#: before it can call a change a gain.
DEFAULT_REPEATS = 10


def _parser() -> argparse.ArgumentParser:
    from benchmarks.e2e.runner import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads")
    run.add_argument("--workload", choices=WORKLOADS, help="default: all (set mode)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    run.add_argument("--repeats", type=int, help="untraced runs per workload (set mode)")
    run.add_argument("--sets", type=int, default=1, help="independent sets (set mode)")
    run.add_argument("--out", help="results file (set mode)")
    compare = commands.add_parser("compare", help="compare results files")
    compare.add_argument("files", nargs="+", metavar="RESULTS.json")
    return parser


def _run_set(args) -> int:
    from benchmarks.e2e import report, runner
    from benchmarks.e2e.common import load_contract

    contract = load_contract()
    names = [args.workload] if args.workload else runner.WORKLOADS
    repeats = args.repeats or DEFAULT_REPEATS
    host = runner.host_fingerprint()
    load_before = os.getloadavg()
    sets = []
    for index in range(args.sets):
        print(f"set {index + 1}/{args.sets}", file=sys.stderr)
        sets.append(
            runner.run_set(
                names, args.seed, args.seconds, repeats,
                log=lambda line: print("  " + line, file=sys.stderr),
            )
        )
    host["loadavg_before"] = load_before
    host["loadavg_after"] = os.getloadavg()
    unique_traced = [
        r["detail"]["layers"]
        for r in sets[-1]["runs"]
        if r["workload"] == "serve-unique" and r["trace"] and r.get("detail")
    ]
    results = {
        "host": host,
        "settings": {
            "seed": args.seed,
            "seconds": args.seconds,
            "repeats": repeats,
            "workloads": names,
            "frozen": runner.frozen_settings(),
        },
        "benchmark": contract,
        "sets": sets,
        "predictions": report.predictions(unique_traced[0]) if unique_traced else {},
        "code": report.code_measures(),
    }
    for index, one in enumerate(sets, 1):
        print(f"set {index}: end-to-end, median [q1, q3] over {repeats} runs")
        print(report.set_table(one["summary"], contract))
        print(report.layer_table(one["runs"]))
        print(f"cross-run oracles: {json.dumps(one['oracles'])}")
    print("predictions (simulated, from measured serve-unique kernel costs):")
    print(report.prediction_text(results["predictions"]))
    print("code measures:")
    print(report.code_text(results["code"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    broken = [s["oracles"] for s in sets if s["oracles"]["failures"] or s["oracles"]["failed_runs"]]
    return 1 if broken else 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(args.files)
    from benchmarks.e2e.common import load_contract

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])
    if args.repeats is not None or args.out or args.sets > 1 or args.workload is None:
        return _run_set(args)
    from benchmarks.e2e.runner import execute, guard_run, print_run, stop_children

    guard_run(args.seconds)
    try:
        code, final, detail = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        signal.alarm(0)
        stop_children()
    print_run(final, detail)
    return code


if __name__ == "__main__":
    sys.exit(main())
