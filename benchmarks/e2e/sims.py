"""``cluster-sim`` and ``capacity-sim``: the discrete-event capacity paths.

``cluster-sim`` is the researcher's multi-node experiment: an 8-node,
replication-2 :class:`repro.cluster.ClusterRunner` under open-loop load
on three routes, with the serving tier on, a fault plan aimed at route
primaries (crash, partition, slow node, pool-worker crash) and every
10th completion published into an in-memory telemetry pipeline watched
by the SLO evaluator.  ``capacity-sim`` is the single-node
:class:`repro.gateway.CapacityRunner` path with every optional tier off.

Wall time inside ``run()`` is one block to an outside observer.  A
probe event the benchmark schedules on the simulator every
``PROBE_REQUESTS`` simulated requests takes a host-speed sample
(:mod:`.speed`) between two ``perf_counter`` stamps.  The blocks between
probes give ``ops_per_s`` (median simulated requests per reference-host
second) and ``p50_ms`` / ``tail_ms`` (median and p90 reference-host
milliseconds per block: the tail is where the faults make the simulator
work hardest).  Probes stop before the last arrival, so they never move
the simulated end time or the report.

The simulated response-time percentiles are not used as metrics: the
simulator's quantile sketch rounds them to bucket edges, so they read
the same on every seed.  They are in the run's ``DETAIL`` line.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from typing import Dict, List, Optional

from repro.cluster import ClusterRunner, ClusterTopology, FaultPlan, RouteSpec
from repro.gateway import CapacityRunner, build_paper_deployment
from repro.gateway.arrivals import PoissonArrivalGroup
from repro.gateway.simulation import Simulator
from repro.serving import ServingPolicy
from repro.slo import SLOEvaluator, default_definitions
from repro.telemetry import TelemetryPipeline

from benchmarks.e2e.common import Measurement, OracleError, percentile
from benchmarks.e2e.layers import TimedTelemetry, attribution
from benchmarks.e2e.monitor import standalone_telemetry
from benchmarks.e2e.speed import HostSpeed

#: One probe per this many simulated requests: blocks of 15-30 ms.
PROBE_REQUESTS = 4000
#: Probes cover the first 95% of the expected arrival horizon.
PROBE_HORIZON = 0.95
#: The warm-up run's size as a share of the measured run.
WARMUP_SHARE = 0.01


class _Probe:
    """Every ``interval`` simulated seconds, ends a block, takes a
    host-speed sample and starts the next block."""

    def __init__(self, sim: Simulator, interval: float, horizon: float) -> None:
        self.sim = sim
        self.interval = interval
        self.horizon = horizon
        self.speed: Optional[HostSpeed] = None
        self.blocks: List = []
        self.fires = 0
        self._block_start = 0.0
        sim.schedule(interval, self.fire)

    def start(self, speed: HostSpeed) -> None:
        self.speed = speed
        self._block_start = time.perf_counter()

    def fire(self) -> None:
        self.fires += 1
        if self.speed is not None:
            self.blocks.append((self._block_start, time.perf_counter(), PROBE_REQUESTS, 0.0))
            self.speed.sample()
            self._block_start = time.perf_counter()
        if self.sim.now + self.interval < self.horizon:
            self.sim.schedule(self.interval, self.fire)


def report_digest(report, ledger: Dict[str, int]) -> str:
    """Hash of the summary fields and ledger; equal across same-seed runs."""
    fields = [
        report.n_requests,
        report.n_errors,
        report.avg_response_ms,
        report.median_response_ms,
        report.p95_response_ms,
        report.p99_response_ms,
        report.max_response_ms,
        report.throughput_rps,
        report.duration_seconds,
        sorted(ledger.items()),
    ]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()[:16]


def check_ledger(ledger: Dict[str, int], expected: int) -> None:
    """Every appended request observed exactly once, none in flight."""
    if not (ledger["appended"] == ledger["observed"] == expected):
        raise OracleError(
            f"conservation broken: appended {ledger['appended']}, "
            f"observed {ledger['observed']}, expected {expected}"
        )
    if ledger["in_flight"] != 0:
        raise OracleError(f"{ledger['in_flight']} requests still in flight")


def check_same(values: List[str], what: str) -> None:
    if len(set(values)) > 1:
        raise OracleError(f"{what} differ across same-seed runs: {sorted(set(values))}")


class _SimSystem:
    """A built simulator plus its probe and (cluster) telemetry."""

    runner = None
    pipeline = None
    probe: Optional[_Probe] = None
    telemetry: Optional[TimedTelemetry] = None

    def close(self) -> None:
        if self.pipeline is not None:
            self.pipeline.close()


class _SimWorkload:
    #: Blocks holding a collection of the simulator's heap make up a few
    #: percent of a run, so p95 and above swing with how many land in
    #: it; p90 stays below them.
    tail_percentile = 90
    requests_per_s = 0
    run_span = ""

    def __init__(self) -> None:
        #: one digest per build: every build warms up on the same seed,
        #: so these must all be equal
        self.warmup_digests: List[str] = []

    def inputs(self, seed: int, seconds: float) -> dict:
        return {"seed": seed, "requests": int(self.requests_per_s * seconds)}

    def build(self, inputs: dict, layers) -> _SimSystem:
        warm_requests = max(3000, int(inputs["requests"] * WARMUP_SHARE))
        warm = self._build(inputs["seed"] + 1, warm_requests, None)
        warm.report = warm.runner.run()
        warm.close()
        self.warmup_digests.append(report_digest(warm.report, self._ledger(warm)))
        return self._build(inputs["seed"], inputs["requests"], layers)

    def close(self, system: _SimSystem) -> None:
        system.close()

    def run(self, inputs: dict, system: _SimSystem, layers, speed: HostSpeed) -> Measurement:
        gc.collect()
        probe = system.probe
        with layers.span(self.run_span):
            start = time.perf_counter()
            probe.start(speed)
            report = system.runner.run()
            wall = time.perf_counter() - start
        system.report = report
        ledger = self._ledger(system)
        sim = system.runner.sim
        events = sim.processed_events - probe.fires
        n = inputs["requests"]
        block_ms = [
            speed.reference_seconds(end - start, (start + end) / 2) * 1e3
            for start, end, __, __ in probe.blocks
        ]
        raw_ms = [(end - start) * 1e3 for start, end, __, __ in probe.blocks]
        tail = self.tail_percentile
        measurement = Measurement(
            attempted=ledger["appended"],
            failed=report.n_errors,
            e2e={
                "ops_per_s": speed.block_rate(probe.blocks),
                "p50_ms": percentile(block_ms, 50),
                "tail_ms": percentile(block_ms, tail),
            },
            raw={
                # a HostSpeed without samples scales nothing
                "ops_per_s": HostSpeed().block_rate(probe.blocks),
                "p50_ms": percentile(raw_ms, 50),
                "tail_ms": percentile(raw_ms, tail),
                "ops_per_s_whole_run": n / wall,
            },
            info={
                "requests": n,
                "wall_s": wall,
                "probe_blocks": len(probe.blocks),
                "events": events,
                "simulated_s": report.duration_seconds,
                "simulated_ms": {
                    "p50": report.median_response_ms,
                    "p95": report.p95_response_ms,
                    "p99": report.p99_response_ms,
                },
                "fail_frac": report.n_errors / ledger["appended"],
                "ledger": ledger,
                "digest": report_digest(report, ledger),
                "warmup_digest": self.warmup_digests[-1],
            },
        )
        if layers.traced:
            measurement.layers = self._layers(system, layers, wall, events, n)
            measurement.layers["attributed_frac"] = attribution(layers.fold, (start, start + wall))
            measurement.layers["tracing.overhead_frac"] = layers.overhead_frac(wall)
            measurement.info["spans"] = layers.fold.table(wall)
            measurement.info["inside_run"] = "needs in-program spans (later issue)"
        return measurement

    def verify(self, inputs: dict, system: _SimSystem, measurement: Measurement) -> None:
        check_ledger(measurement.info["ledger"], inputs["requests"])
        check_same(self.warmup_digests, "warm-up report digests")


class ClusterSimWorkload(_SimWorkload):
    name = "cluster-sim"
    requests_per_s = 150_000
    run_span = "cluster.runner.run"
    #: the three routes of ``benchmarks/bench_cluster.py``
    routes = (
        RouteSpec("shap", base_seconds={"tabular": 0.010}, concurrency=4),
        RouteSpec("lime", base_seconds={"tabular": 0.014}, concurrency=6),
        RouteSpec("ai_pipeline", base_seconds={"tabular": 0.024}, concurrency=10),
    )
    rate_rps = 320.0
    policy = ServingPolicy(
        max_batch=8, batch_window=0.004, cache_size=256, shed_depth=64, pool_workers=2
    )

    def _build(self, seed: int, requests: int, layers) -> _SimSystem:
        system = _SimSystem()
        topology = ClusterTopology(
            Simulator(), list(self.routes), n_nodes=8, replication=2, seed=seed
        )
        system.pipeline = TelemetryPipeline(
            wal_dir=None, window_seconds=1.0, cascades=(10.0, 60.0), auto_pump_every=1024
        ).start()
        system.evaluator = SLOEvaluator(default_definitions())
        system.evaluator.attach(system.pipeline.rollups)
        telemetry = system.pipeline
        if layers is not None and layers.traced:
            telemetry = system.telemetry = TimedTelemetry(layers, system.pipeline)
        system.runner = runner = ClusterRunner(
            topology,
            seed=seed,
            trace_every=2000,
            initial_capacity=16384,
            serving=self.policy,
            telemetry=telemetry,
            response_every=10,
        )
        per_route = requests // len(self.routes)
        counts = [per_route] * len(self.routes)
        counts[0] += requests - sum(counts)
        for spec, count in zip(self.routes, counts):
            runner.add_open_loop(PoissonArrivalGroup(spec.route, rate_rps=self.rate_rps, n_requests=count))
        horizon = counts[0] / self.rate_rps
        primaries = [topology.ring.preference(spec.route, 2)[0] for spec in self.routes]
        plan = FaultPlan()
        plan.add_crash(primaries[0], 0.10 * horizon, restart_at=0.15 * horizon)
        plan.add_partition(primaries[1], 0.30 * horizon, 0.03 * horizon)
        plan.add_slow(primaries[2], 0.50 * horizon, 0.05 * horizon, 1.5)
        plan.add_pool_crash(primaries[0], 0.70 * horizon)
        runner.apply_fault_plan(plan)
        total_rate = self.rate_rps * len(self.routes)
        system.probe = _Probe(
            runner.sim, PROBE_REQUESTS / total_rate, PROBE_HORIZON * horizon
        )
        return system

    @staticmethod
    def _ledger(system: _SimSystem) -> Dict[str, int]:
        return system.runner.conservation()

    def _layers(self, system, layers, wall, events, requests) -> Dict[str, float]:
        fold = layers.fold
        stats = system.pipeline.stats()
        out = {
            "cluster.runner.events_per_s": events / wall,
            "cluster.runner.events_per_request": events / requests,
            "cluster.telemetry_share": (
                fold.busy("telemetry.publish") + fold.busy("telemetry.pump")
            ) / wall,
            "telemetry.bus.dropped": float(
                sum(s["dropped"] for s in stats["bus"]["subscriptions"].values())
            ),
            "telemetry.rollup.late_events": float(stats["rollup"]["late_events"]),
            "telemetry.rollup.closed_windows": float(stats["rollup"]["closed_windows"]),
        }
        events_seen = system.telemetry.events
        chunks = (events_seen[i : i + 1000] for i in range(0, len(events_seen), 1000))
        standalone = standalone_telemetry(chunks, None)
        del standalone["telemetry.wal.append_eps"]
        out.update(standalone)
        return out


class CapacitySimWorkload(_SimWorkload):
    name = "capacity-sim"
    requests_per_s = 250_000
    run_span = "gateway.capacity.run"
    rate_rps = 150.0

    def _build(self, seed: int, requests: int, layers) -> _SimSystem:
        system = _SimSystem()
        sim, gateway = build_paper_deployment(seed=seed)
        system.runner = runner = CapacityRunner(sim, gateway, retain_records=False, seed=seed)
        runner.add_open_loop(PoissonArrivalGroup("shap", rate_rps=self.rate_rps, n_requests=requests))
        horizon = requests / self.rate_rps
        system.probe = _Probe(sim, PROBE_REQUESTS / self.rate_rps, PROBE_HORIZON * horizon)
        return system

    @staticmethod
    def _ledger(system: _SimSystem) -> Dict[str, int]:
        runner = system.runner
        return {
            "appended": runner.log.appended,
            "observed": system.report.n_requests,
            "in_flight": runner.in_flight,
            "final_failures": system.report.n_errors,
        }

    def _layers(self, system, layers, wall, events, requests) -> Dict[str, float]:
        return {
            "gateway.capacity.events_per_s": events / wall,
            "gateway.capacity.events_per_request": events / requests,
        }
