"""Tracing overhead bench: the observability tax, timed on shipped code.

Two claims, each the median over back-to-back pairs of runs of one
side's wall-clock time over the other's, on one closed-loop
:class:`LoadGenerator` workload.  Pairs alternate their order; on a
shared host single runs of identical code spread by ±20%, while the
median pair ratio repeats to within a few percent:

* **tracing off is free** — the run through :class:`APIGateway` under
  the default :class:`~repro.tracing.NullTracer` costs at most
  ``NULL_OVERHEAD_CEILING`` over the same run through the seed dispatch
  (:class:`~benchmarks.reference_loadgen.SeedGateway`: the
  closure-per-request dispatch and record-path station the row path
  replaced, whose untraced branch ran no span code).  Per-request work
  added to the gateway's untraced row path — its ``dispatch``, the
  station's row serving or the completion sink ``_row_done`` — shows up
  here.
* **recording stays bounded** — the run through :class:`APIGateway`
  with a recording tracer (six or seven spans per request with the
  stage spans, plus collection) costs at most
  ``RECORDING_OVERHEAD_CEILING`` times the same run under the
  ``NullTracer``.

A capacity runner ignores ``trace_every`` under a tracer that records
nothing; ``tests/gateway/test_capacity.py`` checks that directly.
"""

import gc
import time
from statistics import median

import pytest

from repro.gateway import LoadGenerator
from repro.gateway.gateway import APIGateway
from repro.gateway.loadgen import ThreadGroup
from repro.gateway.services import (
    Machine,
    MicroService,
    Request,
    ServiceTimeModel,
)
from repro.gateway.simulation import Simulator
from repro.tracing import NULL_TRACER, TraceCollector, Tracer

from benchmarks.reference_loadgen import SeedGateway

#: Back-to-back pairs per claim.
NULL_PAIRS = 30
RECORDING_PAIRS = 15
#: The gateway under the NullTracer may cost at most this fraction over
#: the seed dispatch.
NULL_OVERHEAD_CEILING = 0.05
#: A recording tracer stays within this factor of the same run under the
#: NullTracer — the "tracing on" budget.
RECORDING_OVERHEAD_CEILING = 10.0

#: 3,200 closed-loop requests through one eight-worker station.
DISPATCH_GROUP = ThreadGroup(
    "svc", n_threads=32, rampup_seconds=0.1, iterations=100
)


def dispatch_seconds(side):
    """One load-generator run through ``side`` (``"seed"``, ``"null"`` or
    ``"recording"``); wall seconds."""
    sim = Simulator()
    n_requests = DISPATCH_GROUP.n_threads * DISPATCH_GROUP.iterations
    tracer = (
        Tracer(
            clock=lambda: sim.now,
            collector=TraceCollector(max_traces=n_requests),
            seed=0,
        )
        if side == "recording"
        else NULL_TRACER
    )
    gateway = APIGateway(sim, overhead_seconds=0.002, tracer=tracer)
    gateway.register(
        MicroService(
            name="svc",
            machine=Machine("host", vcpus=8, ram_gb=16),
            service_time=ServiceTimeModel({"tabular": 0.05}, jitter=0.1),
            concurrency=8,
            queue_capacity=n_requests,
            stages={"pipeline.preprocess": 1.0, "pipeline.predict": 3.0},
        )
    )
    generator = LoadGenerator(
        sim, SeedGateway(gateway) if side == "seed" else gateway
    )
    generator.add_thread_group(DISPATCH_GROUP)
    gc.collect()
    start = time.perf_counter()
    report = generator.run()
    elapsed = time.perf_counter() - start
    assert report.n_requests == n_requests and report.n_errors == 0
    return elapsed


def paired(baseline, measured, pairs):
    """Median seconds of each side and the median of ``measured`` over
    ``baseline`` across back-to-back pairs, order alternating."""
    times = ([], [])
    for attempt in range(pairs):
        order = (0, 1) if attempt % 2 == 0 else (1, 0)
        for side in order:
            times[side].append(dispatch_seconds((baseline, measured)[side]))
    ratios = [b / a for a, b in zip(*times)]
    return median(times[0]), median(times[1]), median(ratios)


@pytest.fixture(scope="module")
def timings():
    seed, null, null_ratio = paired("seed", "null", NULL_PAIRS)
    null_dispatch, recording, recording_ratio = paired(
        "null", "recording", RECORDING_PAIRS
    )
    return {
        "seed": seed,
        "null_tracer": null,
        "null_ratio": null_ratio,
        "null_dispatch": null_dispatch,
        "recording": recording,
        "recording_ratio": recording_ratio,
    }


def test_null_tracer_overhead_under_ceiling(timings, figure_printer):
    figure_printer(
        "Tracing overhead on shipped code (medians over alternated pairs)",
        ["run", "seconds", "ratio"],
        [
            ["seed dispatch", f"{timings['seed']:.4f}", "1.00x"],
            [
                "gateway, NullTracer",
                f"{timings['null_tracer']:.4f}",
                f"{timings['null_ratio']:.3f}x",
            ],
            [
                "gateway, NullTracer",
                f"{timings['null_dispatch']:.4f}",
                "1.00x",
            ],
            [
                "gateway, recording tracer",
                f"{timings['recording']:.4f}",
                f"{timings['recording_ratio']:.2f}x",
            ],
        ],
    )
    null_overhead = timings["null_ratio"] - 1.0
    assert null_overhead <= NULL_OVERHEAD_CEILING, (
        f"the gateway under the NullTracer costs {null_overhead:.1%} over "
        f"the seed dispatch, above the {NULL_OVERHEAD_CEILING:.0%} ceiling"
    )


def test_recording_overhead_under_ceiling(timings):
    factor = timings["recording_ratio"]
    assert factor <= RECORDING_OVERHEAD_CEILING, (
        f"recording tracer costs {factor:.2f}x the NullTracer run, above "
        f"the {RECORDING_OVERHEAD_CEILING:.0f}x ceiling"
    )


def test_recording_run_collects_complete_traces():
    sim = Simulator()
    collector = TraceCollector(max_traces=100)
    tracer = Tracer(clock=lambda: sim.now, collector=collector, seed=0)
    gateway = APIGateway(sim, tracer=tracer)
    gateway.register(
        MicroService(
            name="svc",
            machine=Machine("host", vcpus=4, ram_gb=8),
            service_time=ServiceTimeModel({"tabular": 0.01}, jitter=0.0),
        )
    )
    done = []
    for i in range(50):
        request = Request(request_id=i, route="svc")
        sim.schedule(
            0.0, (lambda r: lambda: gateway.dispatch(r, done.append))(request)
        )
    sim.run()
    assert len(collector.traces()) == 50
    assert tracer.active_spans == 0
