"""Million-request capacity runs over the columnar record pipeline.

:class:`CapacityRunner` is the high-throughput sibling of
:class:`~repro.gateway.loadgen.LoadGenerator`.  The record-based generator
allocates a ``Request`` and, when the gateway answers, a ``RequestRecord``
per simulated request and retains every record; the runner instead
threads bare :class:`~repro.gateway.records.RecordLog` row indices
through the simulator — the same station row path the gateway's
``dispatch`` uses — and aggregates *streaming* statistics (quantile
sketch, Welford moments, seeded reservoirs) so a run's memory is bounded
by its in-flight request count — not its request count.

The load driver lives here, and both capacity runners use it:
:class:`CapacityRunner` and :class:`~repro.cluster.runner.ClusterRunner`
subclass one private base that owns the log, the counters, the workload
builders and the report, and keep only their dispatch target, trace
sampling, ledger and final events.  Workloads:

* closed-loop :class:`~repro.gateway.loadgen.ThreadGroup` — each virtual
  user is one reusable ``__slots__`` object whose bound methods are the
  scheduled callbacks (no per-iteration closures);
* open-loop :class:`~repro.gateway.arrivals.PoissonArrivalGroup` — the
  "millions of independent users" workload, with arrival times drawn as
  chunked numpy cumsums and chained through the event heap: each group
  keeps exactly one future arrival there, so the heap holds only
  pending work and every event's push and pop stay shallow.

Gateway overhead is modelled arithmetically where ``dispatch`` uses
events: a request's ``arrival`` is one overhead leg before its submit
event and its ``end`` one leg after service completion, so response
times match a ``LoadGenerator`` run while the hot loop processes two to
three heap events per request instead of four (send, submit, service
completion, response).

Tracing stays available at bounded cost through *hybrid sampling*: with
``trace_every=N`` and a recording tracer, every Nth request is sent down
the same row path as the others and only marked in its row's slot; when
it completes, its span tree is built from the row's stamps (on one node
by the gateway's :meth:`~repro.gateway.gateway.APIGateway.trace_record`,
on a cluster by the runner), and the slowest traced responses are kept
as latency exemplars that link back to recorded traces (the Fig. 8 "slow
window → trace" workflow).  Sampling never changes what is simulated,
and with a tracer that records nothing ``trace_every`` is ignored.
"""

from __future__ import annotations

from array import array
from heapq import heappush as _heappush
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.gateway.arrivals import PoissonArrivalGroup, arrival_chunks
from repro.gateway.gateway import APIGateway
from repro.gateway.loadgen import SummaryReport, ThreadGroup
from repro.gateway.records import RecordLog
from repro.gateway.services import MicroService
from repro.gateway.simulation import _NO_ARG, Simulator
from repro.gateway.sketches import (
    QuantileSketch,
    RouteStats,
    StreamingMoments,
)
from repro.serving.cache import ExplanationCache
from repro.serving.policy import ServingPolicy
from repro.telemetry.events import KIND_RESPONSE, KIND_SERVING, TelemetryEvent

__all__ = ["CapacityRunner", "merged_report"]

#: Arrivals drawn per numpy call of an open-loop group, and held (as
#: submit times) until the group has fired them.  Only one of them is on
#: the event heap at a time.  The size also fixes where the cumsum
#: restarts from a carried offset, so it is part of the workload's
#: floats (see :func:`~repro.gateway.arrivals.arrival_chunks`).
ARRIVAL_CHUNK = 8192


class _Driver:
    """What both workload drivers hold: one workload's submit target.

    ``submit(row)`` is bound once per workload by the runner's
    ``submit_for`` (a station method on one node, a replica set on the
    cluster), and ``entry`` is the node the workload enters through
    (``None`` on one node).  While the runner is tracing, every
    ``trace_every``-th request goes to ``runner.sample(driver, owner)``
    instead, so no step branches on which runner it serves.
    """

    __slots__ = ("runner", "submit", "entry", "route_id", "payload_id",
                 "sim", "overhead", "log", "step")

    def __init__(self, runner, group, submit, entry) -> None:
        self.runner = runner
        self.submit = submit
        self.entry = entry
        self.sim = runner.sim  # hot-path locals: one load, not a chain
        self.overhead = runner.overhead
        self.log = runner.log
        self.route_id = runner.log.intern_route(group.route)
        self.payload_id = runner.log.intern_payload(group.payload)


class _VirtualUser(_Driver):
    """One closed-loop user: a reusable state object, not a closure chain.

    ``step`` *is* the submit event: it fires one gateway leg after the
    logical send, stamps ``arrival = now - overhead`` and hands the row
    straight to the service, so each iteration costs two heap events
    (step + service finish).  A completion sink that finds the user
    parked on its row pushes the next step itself; the cold paths call
    :meth:`resume`.
    """

    __slots__ = ("remaining", "delay")

    def __init__(self, runner, group: ThreadGroup, submit, entry) -> None:
        super().__init__(runner, group, submit, entry)
        #: response receipt (``end``) -> next submit: think + request leg.
        #: The completion sink adds this to the row's ``end`` stamp, so
        #: continuation needs no clock read.
        self.delay = runner.overhead + group.think_time
        self.remaining = group.iterations
        #: the scheduled iteration callback, pre-bound once per user —
        #: with tracing off the trace-sampling counter and modulo check
        #: drop out of the per-request path entirely, and retain mode
        #: additionally inlines the straight-line row append
        if runner.tracing:
            self.step = self.advance
        elif runner.log.retain:
            self.step = self._advance_retain
        else:
            self.step = self._advance_untraced

    def resume(self, at: float) -> None:
        """Schedule the next send for a response received at ``at``."""
        runner = self.runner
        _heappush(
            runner._sim_queue,
            (at + self.delay, next(runner._sim_counter), self.step, _NO_ARG),
        )

    def advance(self) -> None:
        self.remaining -= 1
        runner = self.runner
        runner.sent += 1
        if runner.sent % runner.trace_every == 0:
            runner.sample(self, self if self.remaining > 0 else None)
            return
        log = self.log
        row = log.append(
            self.route_id, self.payload_id, self.sim.now - self.overhead
        )
        in_flight = runner.in_flight + 1
        runner.in_flight = in_flight
        log.v_active[row] = in_flight
        if self.remaining > 0:
            log.slots[row] = self
        self.submit(row)

    def _advance_untraced(self) -> None:
        self.remaining -= 1
        log = self.log
        row = log.append(
            self.route_id, self.payload_id, self.sim.now - self.overhead
        )
        runner = self.runner
        in_flight = runner.in_flight + 1
        runner.in_flight = in_flight
        log.v_active[row] = in_flight
        if self.remaining > 0:
            log.slots[row] = self
        self.submit(row)

    def _advance_retain(self) -> None:
        # _advance_untraced with RecordLog._append_retain inlined: the
        # retained closed-loop replay (the speedup-gate workload) pays
        # for a call here once per request
        self.remaining -= 1
        log = self.log
        row = log.size
        if row == log.capacity:
            log._grow()
        log.size = row + 1
        log.appended += 1
        log.v_arrival[row] = self.sim.now - self.overhead
        log.v_route_ids[row] = self.route_id
        log.v_payload_ids[row] = self.payload_id
        runner = self.runner
        in_flight = runner.in_flight + 1
        runner.in_flight = in_flight
        log.v_active[row] = in_flight
        if self.remaining > 0:
            log.slots[row] = self
        self.submit(row)


class _OpenLoopDriver(_Driver):
    """Keeps one Poisson group's next arrival on the event heap.

    :meth:`load_chunk` turns the group's next chunk of arrival times into
    submit times, schedules the first and holds the rest.  Each arrival,
    when it fires, pushes the one after it before it submits its own
    request (so an arrival still precedes, in tie-break order, every
    event its request schedules), and the last of a chunk loads the next
    chunk.  The heap therefore holds one future arrival per group,
    whatever the chunk size.
    """

    __slots__ = ("chunks", "times", "queue", "counter")

    def __init__(
        self, runner, group: PoissonArrivalGroup, submit, entry, rng
    ) -> None:
        super().__init__(runner, group, submit, entry)
        self.chunks = arrival_chunks(group, rng, ARRIVAL_CHUNK)
        self.queue = runner._sim_queue
        self.counter = runner._sim_counter
        #: per-arrival callback; see _VirtualUser.step
        self.step = self.fire if runner.tracing else self._fire_untraced

    def load_chunk(self) -> None:
        """Schedule the next chunk's first arrival; hold the others.

        An arrival fires at its submit time (arrival + one gateway leg;
        see :meth:`fire`), computed as ``now + (t + (overhead - now))``
        with ``now`` the load time: the sum :meth:`Simulator.schedule`
        forms for that delay, so a chunk loads the same floats whether
        its times are scheduled one by one or chained.  The first goes
        through ``schedule``, whose guard refuses a time before the
        clock; a chunk's times never decrease, so that covers the chunk.
        """
        times = next(self.chunks, None)
        if times is None:
            return
        sim = self.sim
        now = sim.now
        delays = times + (self.overhead - now)
        sim.schedule(float(delays[0]), self.step)
        self.times = iter(array("d", (delays[1:] + now).tobytes()))

    def fire(self) -> None:
        """One open-loop arrival, already shifted to its submit time."""
        at = next(self.times, None)
        if at is None:
            self.load_chunk()
        else:
            _heappush(self.queue, (at, next(self.counter), self.step, _NO_ARG))
        runner = self.runner
        runner.sent += 1
        if runner.sent % runner.trace_every == 0:
            runner.sample(self, None)
            return
        log = self.log
        row = log.append(
            self.route_id, self.payload_id, self.sim.now - self.overhead
        )
        in_flight = runner.in_flight + 1
        runner.in_flight = in_flight
        log.v_active[row] = in_flight
        self.submit(row)

    def _fire_untraced(self) -> None:
        at = next(self.times, None)
        if at is None:
            self.load_chunk()
        else:
            _heappush(self.queue, (at, next(self.counter), self.step, _NO_ARG))
        log = self.log
        row = log.append(
            self.route_id, self.payload_id, self.sim.now - self.overhead
        )
        runner = self.runner
        in_flight = runner.in_flight + 1
        runner.in_flight = in_flight
        log.v_active[row] = in_flight
        self.submit(row)


class _TracedJob:
    """A trace-sampled request in flight: its owner and failover history.

    Parked on the request's row slot where an untraced request parks its
    closed-loop user (or nothing).  No span exists while the request is
    in flight: the runner's completion sink builds the whole tree from
    the row's columns, and the cluster's recorded failover attempts,
    when the request completes.  ``user`` is the closed-loop owner to
    resume afterwards, if any; ``entry`` is the cluster node the request
    entered through (``None`` on one node); ``request_id`` is the
    sampling count, which names the request in its trace.
    """

    __slots__ = ("user", "entry", "route_id", "request_id", "attempts")

    def __init__(self, user, entry, route_id: int, request_id: int):
        self.user = user
        self.entry = entry
        self.route_id = route_id
        self.request_id = request_id
        #: (node_id, error_code, at) per failed attempt, in order.
        self.attempts: List[tuple] = []


class _SimCacheGate:
    """Zipf-addressed explanation-cache model on the submit path.

    Columnar rows carry no feature payloads, so the gate models content
    addressing the way capacity runs model service time: a seeded Zipf
    stream over ``cache_items`` distinct feature vectors stands in for
    the request bodies.  A hit completes the row immediately at the
    gateway (the SHAP attribution is served from memory, no service
    work); a miss warms the cache and falls through to the batched
    service path.  The content-id stream is pre-drawn in chunks like
    the arrival processes, so the per-request cost is one list index
    plus one :class:`~repro.serving.cache.ExplanationCache` probe.
    ``service`` is the route's station for :meth:`submit`; the cluster
    runner, which picks a replica per request, passes ``None`` and calls
    :meth:`lookup` itself.
    """

    CHUNK = 4096

    __slots__ = ("runner", "route", "service", "cache", "sim", "log",
                 "_rng", "_probs", "_n_items", "_ids", "_pos")

    def __init__(
        self,
        runner: "CapacityRunner",
        route: str,
        service: Optional[MicroService],
        policy: ServingPolicy,
    ) -> None:
        self.runner = runner
        self.route = route
        self.service = service
        self.cache = ExplanationCache(policy.cache_size, ttl=policy.cache_ttl)
        self.sim = runner.sim
        self.log = runner.log
        self._n_items = policy.cache_items
        ranks = np.arange(1.0, policy.cache_items + 1.0)
        weights = ranks ** -policy.cache_skew
        self._probs = weights / weights.sum()
        self._rng = np.random.default_rng(
            runner.seed + 15485863 * (runner.log.intern_route(route) + 1)
        )
        self._ids: list = []
        self._pos = 0

    def lookup(self, now: float) -> bool:
        """Draw the next content id; True on a hit (a miss warms the cache)."""
        pos = self._pos
        ids = self._ids
        if pos == len(ids):
            ids = self._rng.choice(
                self._n_items, size=self.CHUNK, p=self._probs
            ).tolist()
            self._ids = ids
            pos = 0
        self._pos = pos + 1
        key = ids[pos]
        if self.cache.get(key, now) is not None:
            return True
        self.cache.put(key, True, now)
        return False

    def submit(self, row: int) -> None:
        now = self.sim.now
        if self.lookup(now):
            self.log.v_start[row] = now
            self.runner.row_completed(self.service, row, True)
        else:
            self.service.submit_row_serving(row)

    def event(self, at: float) -> TelemetryEvent:
        """Hit-rate event (``cache:<route>``) carrying the raw counters."""
        counters = self.cache.counters()
        return TelemetryEvent(
            source=f"cache:{self.route}",
            value=self.cache.hit_rate,
            timestamp=at,
            kind=KIND_SERVING,
            attrs={key: float(val) for key, val in sorted(counters.items())},
        )


class _ColumnarRunner:
    """The load driver both capacity runners share.

    Owns the record log, the heap handles, the ``sent``/``in_flight``
    counters, the streaming-stats factory, the workload builders,
    :meth:`summary`, :meth:`run` and :meth:`records`.  A subclass keeps
    only what differs between one node and a cluster:

    * ``submit_for(route, payload)`` binds the route's stations and
      returns the hot-path ``submit(row)`` for one workload;
    * ``_entries(n)`` picks ``n`` new drivers' entry nodes and steps the
      group counter that seeds the open-loop arrival streams;
    * ``tracer`` records the trace-sampled requests, whose
      :class:`_TracedJob` the subclass's completion sink turns into a
      span tree;
    * ``_stats_by_route()`` and ``_final_events(at)`` feed the report.
    """

    def __init__(
        self,
        sim: Simulator,
        overhead: float,
        retain_records: bool,
        seed: int,
        trace_every: int,
        series_slots: int,
        exemplar_slots: int,
        relative_accuracy: float,
        telemetry,
        topic: str,
        initial_capacity: int,
        serving: Optional[ServingPolicy],
    ) -> None:
        if trace_every < 0:
            raise ValueError("trace_every must be >= 0")
        self.sim = sim
        self.overhead = overhead
        self.log = RecordLog(initial_capacity, retain=retain_records)
        self.seed = seed
        self.trace_every = trace_every
        self.series_slots = series_slots
        self.exemplar_slots = exemplar_slots
        self.relative_accuracy = relative_accuracy
        self.telemetry = telemetry
        self.topic = topic
        #: serving policy (batch window/size, cache, shed depth) applied
        #: to every bound station; None keeps the classic per-row path
        self.serving = serving
        #: trace-sampling counter — maintained only while tracing (the
        #: untraced steps skip it; use ``log.appended`` for the number of
        #: requests started)
        self.sent = 0
        self.in_flight = 0
        # completion recycles rows inline (``log.slots`` row linkage and
        # the free list) rather than through dict lookups and a release
        # call; retain mode keeps every row, so it has no free list
        self._free = None if retain_records else self.log._free
        # closed-loop continuation and the open-loop arrival chain are
        # pure heap pushes (the think delay is non-negative by
        # construction, and a chunk's submit times never decrease) — see
        # MicroService.use_columnar
        self._sim_queue = sim._queue
        self._sim_counter = sim._counter
        self._groups = 0

    @property
    def tracing(self) -> bool:
        """Whether workloads added now sample every ``trace_every``-th
        request: a stride is set and the tracer records.  A sample traced
        by a tracer that records nothing would show nothing, so it costs
        nothing either: the workloads take the untraced steps."""
        return self.trace_every > 0 and self.tracer.is_recording

    def sample(self, driver: _Driver, owner: Optional[_VirtualUser]) -> None:
        """Send a trace-sampled request down the row path.

        The row is appended, counted and submitted exactly as an untraced
        one; only its slot differs — a :class:`_TracedJob` holding the
        closed-loop ``owner`` (or ``None``) — so a traced run simulates
        exactly what the untraced run does.
        """
        log = self.log
        row = log.append(
            driver.route_id, driver.payload_id, self.sim.now - self.overhead
        )
        self.in_flight += 1
        log.v_active[row] = self.in_flight
        job = _TracedJob(owner, driver.entry, driver.route_id, self.sent)
        log.slots[row] = job
        driver.submit(row)

    def _new_stats(self, route: str, seed: int) -> RouteStats:
        """A streaming aggregate sized by this runner's sketch settings."""
        return RouteStats(
            route,
            seed=seed,
            relative_accuracy=self.relative_accuracy,
            series_slots=self.series_slots,
            exemplar_slots=self.exemplar_slots,
        )

    def add_thread_group(self, group: ThreadGroup) -> None:
        """Schedule a closed-loop group (JMeter linear ramp-up)."""
        submit = self.submit_for(group.route, group.payload)
        spacing = (
            group.rampup_seconds / group.n_threads if group.n_threads else 0.0
        )
        for thread, entry in enumerate(self._entries(group.n_threads)):
            user = _VirtualUser(self, group, submit, entry)
            self.sim.schedule(thread * spacing + self.overhead, user.step)

    def add_open_loop(self, group: PoissonArrivalGroup) -> None:
        """Schedule an open-loop Poisson arrival group."""
        submit = self.submit_for(group.route, group.payload)
        (entry,) = self._entries(1)
        # the seed counts workloads on one node, entry picks on a cluster
        rng = np.random.default_rng(self.seed + 104_729 * self._groups)
        _OpenLoopDriver(self, group, submit, entry, rng).load_chunk()

    def summary(self, duration: float) -> SummaryReport:
        """Assemble the JMeter-style report from the streaming aggregates.

        O(routes) work and O(sketch + reservoir) memory: quantiles come
        from the sketches (merged per route, then for the top level —
        the sketch merge is lossless), the mean from Welford moments,
        and the timeline from the seeded reservoirs.
        """
        grouped = self._stats_by_route()
        accuracy = self.relative_accuracy
        report = merged_report(
            [stats for bundle in grouped.values() for stats in bundle],
            duration,
            accuracy,
        )
        if len(grouped) > 1:
            for route_id in sorted(grouped):
                report.per_route[self.log.route_name(route_id)] = (
                    merged_report(grouped[route_id], duration, accuracy)
                )
        return report

    def run(self, until: Optional[float] = None) -> SummaryReport:
        """Run the simulation to completion and return the summary.

        With a telemetry target, the bounded final events (summary,
        exemplars, serving counters) are published and pumped.
        """
        end_time = self.sim.run(until=until)
        report = self.summary(end_time)
        if self.telemetry is not None:
            events = report.to_events(timestamp=end_time)
            for event in events + self._final_events(end_time):
                self.telemetry.publish(self.topic, event)
            self.telemetry.pump()
        return report

    def records(self):
        """The classic ``RequestRecord`` views (requires retain mode)."""
        return self.log.records()


class CapacityRunner(_ColumnarRunner):
    """Drives columnar workloads against a gateway's services.

    Parameters
    ----------
    sim, gateway:
        The simulator and deployment (e.g. from
        :func:`~repro.gateway.cluster.build_paper_deployment`).  Routes
        are resolved through the gateway, whose stations the runner binds
        to its own log (the gateway can no longer ``dispatch`` to them);
        the gateway's per-leg overhead is applied arithmetically on the
        hot path, and its tracer and span builder trace the
        ``trace_every`` sampled requests.
    retain_records:
        ``True`` keeps every row (enables :meth:`records`, whose completed
        records give the exact oracle,
        :meth:`~repro.gateway.loadgen.SummaryReport.from_records`);
        ``False`` recycles completed rows so memory is bounded by the
        in-flight count.
    seed:
        Master seed for arrival processes and the stats reservoirs.
    trace_every:
        Trace every Nth request (0 disables) when the gateway's tracer
        records; the slowest sampled responses are kept as trace-linked
        exemplars.  Sampling does not change the simulated run.
    telemetry, topic:
        Optional telemetry target: :meth:`run` publishes the summary
        events plus one exemplar ``KIND_RESPONSE`` event per kept
        exemplar (bounded — the columnar path never publishes per-request
        events).
    """

    def __init__(
        self,
        sim: Simulator,
        gateway: APIGateway,
        retain_records: bool = False,
        seed: int = 0,
        trace_every: int = 0,
        series_slots: int = 512,
        exemplar_slots: int = 8,
        relative_accuracy: float = 0.005,
        telemetry=None,
        topic: str = "gateway",
        initial_capacity: int = 4096,
        serving: Optional[ServingPolicy] = None,
    ) -> None:
        super().__init__(
            sim, gateway.overhead_seconds, retain_records, seed, trace_every,
            series_slots, exemplar_slots, relative_accuracy, telemetry,
            topic, initial_capacity, serving,
        )
        self.gateway = gateway
        #: route id -> streaming aggregate (ids are log-interned ints);
        #: a bound station carries its route's bundle as ``stats``
        self.route_stats: Dict[int, RouteStats] = {}
        self._bound: Dict[str, MicroService] = {}
        self._cache_gates: Dict[str, _SimCacheGate] = {}

    # -- wiring -------------------------------------------------------------

    def _stats_for(self, route: str, route_id: int) -> RouteStats:
        """The streaming aggregate for a route id, created on first use."""
        stats = self.route_stats.get(route_id)
        if stats is None:
            stats = self._new_stats(route, self.seed + 7919 * (route_id + 1))
            self.route_stats[route_id] = stats
        return stats

    def bind(self, route: str) -> MicroService:
        """Resolve a route and switch its service to the columnar path."""
        service = self._bound.get(route)
        if service is None:
            service = self.gateway.service(route)
            service.use_columnar(self.log, self.sim, self.row_completed)
            if self.serving is not None:
                service.configure_serving(self.serving)
            self._bound[route] = service
            service.stats = self._stats_for(
                route, self.log.intern_route(route)
            )
        return service

    def submit_for(self, route: str, payload: str) -> Callable[[int], None]:
        """The hot-path submit callable for one workload on ``route``.

        Classic mode picks the probe-free trusted submit when the
        workload's fixed payload validates up front (unsupported payloads
        keep the checking variant so they fail through the normal
        per-request path).  Serving mode routes through the
        micro-batcher, behind a per-route :class:`_SimCacheGate` when
        the policy enables the explanation cache.
        """
        service = self.bind(route)
        if service.serving is None:
            return (
                service.submit_trusted_row
                if service.service_time.supports(payload)
                else service.submit_row
            )
        policy = service.serving
        if policy.cache_size > 0:
            gate = self._cache_gates.get(route)
            if gate is None:
                gate = _SimCacheGate(self, route, service, policy)
                self._cache_gates[route] = gate
            return gate.submit
        return service.submit_row_serving

    def _entries(self, n: int) -> list:
        """Every driver enters through the one gateway; one seed step per
        workload."""
        self._groups += 1
        return [None] * n

    @property
    def tracer(self):
        """The gateway's tracer (read when a workload is added)."""
        return self.gateway.tracer

    # -- hot-path sinks -----------------------------------------------------

    def row_completed(self, service: MicroService, row: int, ok: bool) -> None:
        """Service finished a row: response leg, stats, advance, recycle.

        ``service`` is the station that served the row; its ``stats`` is
        the route's streaming aggregate.  ``ok`` arrives from the service
        (mirroring ``log.ok[row]``) and scalar column access goes through
        the log's memoryview mirrors so the sketch and reservoir work on
        plain Python floats/ints (faster hashing and math than numpy
        scalars on a per-event path).
        Closed-loop continuation comes off ``log.slots``: the owning
        virtual user (or a trace-sampled request's :class:`_TracedJob`)
        parked itself on its in-flight row and is cleared here, keeping
        the None-when-free invariant recycled rows rely on.  In ring mode
        the row then goes back on the free list.
        """
        log = self.log
        end = self.sim.now + self.overhead
        log.v_end[row] = end
        slots = log.slots
        owner = slots[row]
        if owner is not None:
            slots[row] = None
            if owner.__class__ is _TracedJob:
                self._trace(owner, service, row, end)
            else:
                # client receives at end; think; next submit one leg
                # later — owner.delay is denominated from ``end``, so no
                # clock read
                _heappush(
                    self._sim_queue,
                    (
                        end + owner.delay,
                        next(self._sim_counter),
                        owner.step,
                        _NO_ARG,
                    ),
                )
        service.stats.observe(
            end, (end - log.v_arrival[row]) * 1000.0, ok, log.v_active[row]
        )
        self.in_flight -= 1
        free = self._free
        if free is not None:
            free.append(row)

    def _trace(
        self, job: _TracedJob, service: MicroService, row: int, end: float
    ) -> None:
        """A trace-sampled row completed: build its trace with the
        gateway's span builder, offer it as an exemplar, resume the
        owner."""
        record = self.log.record(row)
        record.request.request_id = job.request_id
        record.trace = self.gateway.trace_record(service, record, self.sim.now)
        service.stats.exemplars.offer(
            record.response_time * 1000.0, end, record.request.route,
            record.trace,
        )
        if job.user is not None:
            job.user.resume(end)

    # -- reporting ----------------------------------------------------------

    def _stats_by_route(self) -> Dict[int, List[RouteStats]]:
        return {
            route_id: [self.route_stats[route_id]]
            for route_id in sorted(self.route_stats)
            if self.route_stats[route_id].n_requests > 0
        }

    def serving_summary(self) -> Dict[str, dict]:
        """Per-route batching/cache/shed counters for reports and the CLI."""
        out: Dict[str, dict] = {}
        for route in sorted(self._bound):
            service = self._bound[route]
            if service.serving is None:
                continue
            entry = service.serving_counters()
            gate = self._cache_gates.get(route)
            if gate is not None:
                entry["cache"] = gate.cache.counters()
                entry["cache_hit_rate"] = gate.cache.hit_rate
            out[route] = entry
        return out

    def serving_events(self, at: float) -> List[TelemetryEvent]:
        """Per-route serving/cache/shed counters as telemetry events.

        One ``serving:<route>`` event per batching service, one
        ``shed:<route>`` count when admission control dropped rows, and
        one ``cache:<route>`` hit-rate event per cache gate — all
        ``KIND_SERVING``, so they ride the same bus → WAL → rollup
        stream the dashboards and the SLO attribution read.
        """
        events = []
        for route in sorted(self._bound):
            service = self._bound[route]
            if service.serving is None:
                continue
            events.append(service.serving_event(at))
            if service._pool_workers:
                events.append(service.pool_event(at))
            if service.shed_rows:
                events.append(
                    TelemetryEvent(
                        source=f"shed:{route}",
                        value=float(service.shed_rows),
                        timestamp=at,
                        kind=KIND_SERVING,
                    )
                )
        for route in sorted(self._cache_gates):
            events.append(self._cache_gates[route].event(at))
        return events

    def exemplar_events(self) -> List[TelemetryEvent]:
        """Kept trace exemplars as trace-linked ``KIND_RESPONSE`` events."""
        events = []
        for route_id in sorted(self.route_stats):
            for ms, end, route, trace in self.route_stats[
                route_id
            ].exemplars.items():
                event = TelemetryEvent(
                    source=route,
                    value=ms,
                    timestamp=end,
                    kind=KIND_RESPONSE,
                    attrs={"exemplar": 1.0},
                )
                event.with_trace(trace.trace_id, trace.span_id)
                events.append(event)
        return events

    def _final_events(self, at: float) -> List[TelemetryEvent]:
        return self.exemplar_events() + self.serving_events(at)


def merged_report(
    bundle: List[RouteStats], duration: float, relative_accuracy: float
) -> SummaryReport:
    """One report over a bundle of streaming aggregates.

    The sketches and moments merge losslessly, so a one-element bundle
    reports exactly what its aggregate holds; an empty bundle gives the
    all-zero report.  The capacity runner passes routes, the cluster
    runner (node, route) shards.
    """
    sketch = QuantileSketch(relative_accuracy)
    moments = StreamingMoments()
    n_requests = 0
    n_errors = 0
    timeline = []
    for stats in bundle:
        sketch.merge(stats.latency)
        moments.merge(stats.moments)
        n_requests += stats.n_requests
        n_errors += stats.n_errors
        timeline.extend(stats.timeline())
    timeline.sort()
    n_ok = n_requests - n_errors
    if n_ok:
        avg = moments.mean
        median = sketch.quantile(0.5)
        p95 = sketch.quantile(0.95)
        p99 = sketch.quantile(0.99)
        peak = sketch.max
    else:
        avg = median = p95 = p99 = peak = 0.0
    return SummaryReport(
        n_requests=n_requests,
        n_errors=n_errors,
        avg_response_ms=avg,
        median_response_ms=median,
        p95_response_ms=p95,
        max_response_ms=peak,
        throughput_rps=n_ok / duration if duration > 0 else 0.0,
        duration_seconds=duration,
        p99_response_ms=p99,
        timeline=timeline,
    )
