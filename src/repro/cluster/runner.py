"""Cluster capacity runs: columnar workloads over a multi-node topology.

:class:`ClusterRunner` is the cluster sibling of
:class:`~repro.gateway.capacity.CapacityRunner` and runs on the same load
driver, which lives in :mod:`repro.gateway.capacity`: the same
closed-loop users and open-loop arrival drivers, the same single
:class:`~repro.gateway.records.RecordLog`, the same single event heap,
the same :class:`~repro.gateway.services.MicroService` station (one per
node and route, each reporting to one shared completion sink), the same
streaming aggregates and report merge — plus everything a one-node run
never needs:

* **replica dispatch** — each workload submits through its route's
  replica set, which sends a request to the first *serving* node on the
  route's ring preference list (one attribute check per request when
  the cluster is healthy);
* **failover** — a typed failure (queue-full rejection, crash-lost row,
  partition-lost response) retries on the next live replica up to
  ``max_attempts``, then finalises with a typed error; a shed or an
  unsupported payload is final at once.  Nothing is ever
  silently dropped: every appended row is observed exactly once, as a
  success or as an interned, named failure (``conservation()`` exposes
  the ledger the failover tests assert on);
* **per-node attribution** — stats shard per (node, route); summaries
  merge back per route, per node, and cluster-wide, and exemplar events
  carry node-qualified sources (``"shap@node-3"``) plus a ``node_id``
  label so rollups shard per node downstream;
* **cross-node traces** — with ``trace_every=N``, every Nth request
  materialises a full span tree at completion time (no extra heap
  events): gateway legs on the entry node, queue/process on the serving
  node, one error span per failed attempt.  Spans carry ``node_id``
  attributes, so when entry ≠ serving the critical path provably spans
  two nodes.

Fault plans (:mod:`repro.cluster.faults`) are replayed onto the shared
heap; the runner owns all consequences — the stations' epoch guard drops
stale completions, lost rows fail over here.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.faults import (
    FAULT_CRASH,
    FAULT_HEAL,
    FAULT_PARTITION,
    FAULT_POOL_CRASH,
    FAULT_RESTART,
    FAULT_RESTORE,
    FAULT_SLOW,
    FaultEvent,
    FaultPlan,
)
from repro.cluster.node import ClusterNode
from repro.cluster.topology import ClusterTopology
from repro.gateway.capacity import (
    _ColumnarRunner,
    _SimCacheGate,
    _TracedJob,
    merged_report,
)
from repro.gateway.loadgen import SummaryReport
from repro.gateway.services import MicroService
from repro.gateway.simulation import _NO_ARG
from repro.gateway.sketches import RouteStats
from repro.serving.policy import ServingPolicy
from repro.telemetry.events import (
    KIND_RESPONSE,
    KIND_SERVING,
    KIND_UTILIZATION,
    TelemetryEvent,
)
from repro.tracing import NODE_ID_ATTR, TraceCollector, Tracer

__all__ = ["ClusterRunner", "node_source"]


def node_source(route: str, node_id: str) -> str:
    """The node-qualified telemetry source (``"shap@node-3"``) that
    shards rollup windows per node."""
    return f"{route}@{node_id}"


class _Replicas:
    """One route's replica stations in ring preference order.

    The cluster's submit target for every workload on the route: a row
    goes to the first *serving* station (one attribute check per request
    when the cluster is healthy).  ``services`` is rebuilt on membership
    change, *not* on faults — dispatch skips dead nodes via the node
    ``serving`` flag.  In serving mode the route's cache gate, if any,
    answers hits at the entry gateway first.
    """

    __slots__ = ("runner", "sim", "route", "route_id", "services", "gate")

    def __init__(self, runner: "ClusterRunner", route: str, route_id: int):
        self.runner = runner
        self.sim = runner.sim
        self.route = route
        self.route_id = route_id
        self.services: List[MicroService] = []
        policy = runner.serving
        self.gate = (
            _SimCacheGate(runner, route, None, policy)
            if policy is not None and policy.cache_size > 0
            else None
        )

    def submit(self, row: int) -> None:
        """Classic dispatch: one row on the first serving replica."""
        for service in self.services:
            if service.node.serving:
                service.submit_row(row)
                return
        self.runner._final_fail(row, self.runner._err_no_replica)

    def submit_serving(self, row: int) -> None:
        """Serving-mode dispatch: cache probe, then the batched station.

        A cache hit completes the row at the entry gateway without any
        service work; misses flow to the first serving replica's
        micro-batcher, which may coalesce, queue, or shed them.
        """
        gate = self.gate
        if gate is not None and gate.lookup(self.sim.now):
            self.runner._cache_complete(row, self.route_id)
            return
        for service in self.services:
            if service.node.serving:
                service.submit_row_serving(row)
                return
        self.runner._final_fail(row, self.runner._err_no_replica)


class ClusterRunner(_ColumnarRunner):
    """Drives columnar workloads against a :class:`ClusterTopology`.

    Parameters
    ----------
    topology:
        The cluster control plane (nodes + ring + replica placement).
        The runner registers itself as the membership listener so
        autoscaler joins/drains rebind the data plane.
    retain_records:
        ``True`` keeps every row (exact oracles); ``False`` recycles
        completed rows — memory bounded by the in-flight count.
    trace_every:
        Materialise a full cross-node span tree for every Nth request
        (0 disables).
    max_attempts:
        Dispatch attempts per request (1 primary + retries) before the
        typed ``failover retries exhausted`` error.
    telemetry, topic:
        Optional telemetry target for :meth:`run`'s bounded summary,
        per-node and exemplar events.
    response_every:
        Publish every Nth completion as a live telemetry event stream
        (0 disables — the default, so capacity benches are untouched):
        a node-qualified latency event per sampled success plus an
        ``ok:<route>`` 0/1 availability event per sampled completion.
        This is the event feed the SLO burn-rate evaluator watches;
        sampled requests that are also traced carry exemplar labels.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        retain_records: bool = False,
        seed: int = 0,
        trace_every: int = 0,
        max_attempts: int = 3,
        series_slots: int = 512,
        exemplar_slots: int = 8,
        relative_accuracy: float = 0.005,
        telemetry=None,
        topic: str = "cluster",
        initial_capacity: int = 4096,
        max_traces: int = 1024,
        response_every: int = 0,
        serving: Optional[ServingPolicy] = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if response_every < 0:
            raise ValueError("response_every must be >= 0")
        super().__init__(
            topology.sim, topology.overhead_seconds, retain_records, seed,
            trace_every, series_slots, exemplar_slots, relative_accuracy,
            telemetry, topic, initial_capacity, serving,
        )
        self.topology = topology
        self.max_attempts = max_attempts
        self.response_every = response_every
        #: hot-path sampling stride; 0 when disabled *or* untargeted, so
        #: the completion sink pays one attribute check when off
        self._publish_every = response_every if telemetry is not None else 0
        self._completions = 0
        self.collector = TraceCollector(max_traces=max_traces)
        self.tracer = Tracer(
            clock=lambda: self.sim.now, collector=self.collector, seed=seed
        )
        # -- conservation ledger: appended == observed at drain, always
        self.observed = 0
        self.final_failures = 0
        self.failovers = 0
        self.lost_in_flight = 0
        self.lost_responses = 0
        self.pool_worker_crashes = 0
        self.pool_redispatched = 0
        self.cross_node_traces = 0
        self.shed_requests = 0
        self.cache_hits = 0
        self.fault_log: List[Tuple[float, str, str]] = []
        #: (node_id, route_id) -> streaming aggregate
        self.node_route_stats: Dict[Tuple[str, int], RouteStats] = {}
        self._lost_stats: Dict[int, RouteStats] = {}
        self._cache_stats: Dict[int, RouteStats] = {}
        #: route id -> the route's replica set (its workloads' submit)
        self._replicas: Dict[int, _Replicas] = {}
        self._node_ordinal: Dict[str, int] = {}
        #: row -> failover attempts so far; only rows that ever failed
        #: over appear here (empty for the whole run when no faults fire)
        self._attempts: Dict[int, int] = {}
        self._err_no_replica = self.log.intern_error(
            "no live replica (503)"
        )
        self._err_exhausted = self.log.intern_error(
            "failover retries exhausted (503)"
        )
        self._err_crash = self.log.intern_error(
            "node crash: request lost (retried)"
        )
        self._err_partition = self.log.intern_error(
            "network partition: response lost (retried)"
        )
        topology.set_listener(self)

    # -- wiring --------------------------------------------------------------

    def bind_route(self, route: str) -> int:
        """Resolve a route: intern it, bind its replica stations."""
        route_id = self.log.intern_route(route)
        if route_id not in self._replicas:
            self.topology.route_spec(route)  # raises on unknown routes
            replicas = _Replicas(self, route, route_id)
            self._replicas[route_id] = replicas
            self._rebind(replicas)
        return route_id

    def _rebind(self, replicas: _Replicas) -> None:
        services = []
        for node in self.topology.replica_nodes(replicas.route):
            service = node.services[replicas.route]
            if service.stats is None:
                self._attach(service, replicas.route_id)
            services.append(service)
        replicas.services = services

    def _attach(self, service: MicroService, route_id: int) -> None:
        node_id = service.node.node_id
        ordinal = self._node_ordinal.setdefault(
            node_id, len(self._node_ordinal)
        )
        if self.serving is not None:
            service.configure_serving(self.serving)
        service.use_columnar(self.log, self.sim, self._row_completed)
        service.stats = self._new_stats(
            service.name,
            self.seed + 7_919 * (route_id + 1) + 104_729 * (ordinal + 1),
        )
        self.node_route_stats[(node_id, route_id)] = service.stats

    def membership_changed(self, node: ClusterNode) -> None:
        """Topology listener: a node joined or drained; rebind placement."""
        for replicas in self._replicas.values():
            self._rebind(replicas)

    def lost_stats(self, route_id: int) -> RouteStats:
        """The node-less aggregate for requests no node could answer."""
        stats = self._lost_stats.get(route_id)
        if stats is None:
            stats = self._new_stats(
                self.log.route_name(route_id),
                self.seed + 7_919 * (route_id + 1),
            )
            self._lost_stats[route_id] = stats
        return stats

    # -- workloads -----------------------------------------------------------

    def submit_for(self, route: str, payload: str) -> Callable[[int], None]:
        """The route's replica-set dispatch, classic or serving."""
        replicas = self._replicas[self.bind_route(route)]
        if self.serving is None:
            return replicas.submit
        return replicas.submit_serving

    def _entries(self, n: int) -> List[ClusterNode]:
        """Round-robin entry nodes over the serving nodes; each pick is
        one step of the group counter."""
        live = self.topology.live_nodes()
        if n and not live:
            raise RuntimeError("no serving nodes to attach a workload to")
        first = self._groups
        self._groups += n
        return [live[(first + i) % len(live)] for i in range(n)]

    def apply_fault_plan(self, plan: FaultPlan) -> None:
        """Replay a fault plan onto the shared heap."""
        for event in plan:
            self.sim.schedule_call(event.at, self._apply_fault, event)

    def _trace(
        self,
        job: _TracedJob,
        service: Optional[MicroService],
        row: int,
        end: float,
        ms: float,
        ok: bool,
        final_code: int = 0,
    ):
        """Build a trace-sampled request's span tree; resume its owner.

        The tree comes from the row's columns and the job's recorded
        failover attempts: gateway legs on the entry node, queue/process
        on the serving node, one error span per failed attempt.  Returns
        the root span's context so the completion sink can stamp
        exemplar labels onto a sampled response event, when the same
        request is both traced and response-sampled.
        """
        tracer = self.tracer
        log = self.log
        entry_id = job.entry.node_id
        route = log.route_name(job.route_id)
        arrival = log.v_arrival[row]
        root = tracer.start_span(
            "cluster.request",
            start_time=arrival,
            attributes={NODE_ID_ATTR: entry_id, "route": route},
        )
        tracer.start_span(
            "gateway.route",
            parent=root,
            start_time=arrival,
            attributes={NODE_ID_ATTR: entry_id},
        ).end(at=arrival + self.overhead)
        cursor = arrival + self.overhead
        for node_id, code, failed_at in job.attempts:
            tracer.start_span(
                "service.attempt",
                parent=root,
                start_time=cursor,
                attributes={NODE_ID_ATTR: node_id},
            ).record_error(log.error_message(code)).end(at=failed_at)
            cursor = failed_at
        if ok and service is not None:
            serving = service.node
            start = log.v_start[row]
            finish = end - self.overhead
            if start > cursor:
                tracer.start_span(
                    "service.queue",
                    parent=root,
                    start_time=cursor,
                    attributes={NODE_ID_ATTR: serving.node_id},
                ).end(at=start)
            tracer.start_span(
                "service.process",
                parent=root,
                start_time=start,
                attributes={NODE_ID_ATTR: serving.node_id, "route": route},
            ).end(at=finish)
            tracer.start_span(
                "gateway.respond",
                parent=root,
                start_time=finish,
                attributes={NODE_ID_ATTR: entry_id},
            ).end(at=end)
            if serving is not job.entry:
                self.cross_node_traces += 1
            stats = service.stats
        else:
            reason = log.error_message(final_code)
            tracer.start_span(
                "cluster.failover",
                parent=root,
                start_time=cursor,
                attributes={NODE_ID_ATTR: entry_id},
            ).record_error(reason).end(at=end)
            root.record_error(reason)
            stats = self.lost_stats(job.route_id)
        root.end(at=end)
        stats.exemplars.offer(ms, end, route, root.context)
        if job.user is not None:
            job.user.resume(end)
        return root.context

    # -- hot path ------------------------------------------------------------

    def cache_stats(self, route_id: int) -> RouteStats:
        """The entry-gateway aggregate for cache-served requests."""
        stats = self._cache_stats.get(route_id)
        if stats is None:
            stats = self._new_stats(
                self.log.route_name(route_id),
                self.seed + 6_700_417 * (route_id + 1),
            )
            self._cache_stats[route_id] = stats
        return stats

    def _cache_complete(self, row: int, route_id: int) -> None:
        """Complete a cache-hit row at the entry gateway (no station work).

        The row still pays the gateway legs (arrival → response), so a
        hit's latency is the pure routing overhead — the cluster
        analogue of serving a SHAP attribution out of the explanation
        cache instead of re-running the kernel.
        """
        self.cache_hits += 1
        log = self.log
        now = self.sim.now
        log.v_start[row] = now
        end = now + self.overhead
        log.v_end[row] = end
        ms = (end - log.v_arrival[row]) * 1000.0
        stats = self.cache_stats(route_id)
        stats.observe(end, ms, True, log.v_active[row])
        owner = log.slots[row]
        context = None
        if owner is not None:
            log.slots[row] = None
            if owner.__class__ is _TracedJob:
                # traced cache hit: a single-span tree at the entry node
                root = self.tracer.start_span(
                    "cluster.request",
                    start_time=log.v_arrival[row],
                    attributes={
                        NODE_ID_ATTR: owner.entry.node_id,
                        "route": log.route_name(route_id),
                        "cache": "hit",
                    },
                )
                root.end(at=end)
                context = root.context
                stats.exemplars.offer(
                    ms, end, log.route_name(route_id), root.context
                )
                owner = owner.user
            if owner is not None:
                owner.resume(end)
        if self._publish_every:
            self._completions += 1
            if self._completions % self._publish_every == 0:
                route = log.route_name(route_id)
                event = TelemetryEvent(
                    source=f"ok:{route}",
                    value=1.0,
                    timestamp=end,
                    kind=KIND_RESPONSE,
                )
                if context is not None:
                    event.with_trace(context.trace_id, context.span_id)
                self.telemetry.publish(self.topic, event)
        self._release(row)

    def _row_completed(
        self, service: MicroService, row: int, ok: bool
    ) -> None:
        """Per-request completion sink (all replicas share this method).

        The failure and partition branches leave the hot path
        immediately.
        """
        if not ok or not service.node.reachable:
            self._completed_exceptional(service, row, ok)
            return
        log = self.log
        end = self.sim.now + self.overhead
        log.v_end[row] = end
        ms = (end - log.v_arrival[row]) * 1000.0
        slots = log.slots
        owner = slots[row]
        context = None
        if owner is not None:
            slots[row] = None
            if owner.__class__ is _TracedJob:
                context = self._trace(owner, service, row, end, ms, True)
            else:
                _heappush(
                    self._sim_queue,
                    (
                        end + owner.delay,
                        next(self._sim_counter),
                        owner.step,
                        _NO_ARG,
                    ),
                )
        if self._publish_every:
            self._completions += 1
            if self._completions % self._publish_every == 0:
                self._publish_response(service, row, end, ms, True, context)
        service.stats.observe(end, ms, True, log.v_active[row])
        # _release inlined: this sink runs once per simulated request
        self.in_flight -= 1
        self.observed += 1
        if self._attempts:
            self._attempts.pop(row, None)
        free = self._free
        if free is not None:
            free.append(row)

    def _release(self, row: int) -> None:
        """Close an observed row's ledger entry; recycle it in ring mode."""
        self.in_flight -= 1
        self.observed += 1
        if self._attempts:
            self._attempts.pop(row, None)
        free = self._free
        if free is not None:
            free.append(row)

    def _publish_response(
        self, service, row, end, ms, ok, context
    ) -> None:
        """Emit one sampled completion onto the telemetry bus.

        Successes publish a node-qualified latency event (trace-stamped
        when the request was also trace-sampled) plus the availability
        tick; final failures publish only the 0-valued availability tick
        — both land on the same ``ok:<route>`` source so a rollup window
        over it is a success ratio.
        """
        route = self.log.route_name(self.log.v_route_ids[row])
        telemetry = self.telemetry
        if ok:
            node_id = service.node.node_id
            event = TelemetryEvent(
                source=node_source(route, node_id),
                value=ms,
                timestamp=end,
                kind=KIND_RESPONSE,
            )
            event.with_node(node_id)
            if context is not None:
                event.with_trace(context.trace_id, context.span_id)
            telemetry.publish(self.topic, event)
        telemetry.publish(
            self.topic,
            TelemetryEvent(
                source=f"ok:{route}",
                value=1.0 if ok else 0.0,
                timestamp=end,
                kind=KIND_RESPONSE,
            ),
        )

    # -- failover (cold path) ------------------------------------------------

    def _completed_exceptional(
        self, service: MicroService, row: int, ok: bool
    ) -> None:
        if ok:
            # the station finished the work, but its node is partitioned:
            # the response cannot reach the gateway — typed retry
            self.lost_responses += 1
            self._failover(row, service.node, self._err_partition)
            return
        code = int(self.log.v_error_codes[row])
        if code == service._err_queue_full:
            # typed rejection: the log row already carries the interned
            # error; try the next replica before giving up
            self._failover(row, service.node, code)
        elif code == service._err_shed:
            # admission control shed the request *deliberately* —
            # retrying on a replica would convert load shedding into
            # load spreading and defeat the overload protection, so a
            # shed is final and keeps its typed 503
            self._final_shed(row, code)
        else:
            # unsupported payload: every replica serves the route from
            # one RouteSpec, so a retry would fail the same way
            self._final_fail(row, code)

    def _failover(
        self, row: int, failed_node: ClusterNode, code: int
    ) -> None:
        log = self.log
        owner = log.slots[row]
        if owner is not None and owner.__class__ is _TracedJob:
            owner.attempts.append((failed_node.node_id, code, self.sim.now))
        attempts = self._attempts.get(row, 0) + 1
        if attempts < self.max_attempts:
            for service in self._replicas[log.v_route_ids[row]].services:
                node = service.node
                if node is not failed_node and node.serving:
                    self._attempts[row] = attempts
                    self.failovers += 1
                    # clear failure residue so the retry's completion
                    # reads a clean row
                    log.v_ok[row] = True
                    log.v_error_codes[row] = 0
                    # the station path a first attempt takes, minus the
                    # cache probe the row already made at its entry
                    if self.serving is None:
                        service.submit_row(row)
                    else:
                        service.submit_row_serving(row)
                    return
            final_code = self._err_no_replica
        else:
            final_code = self._err_exhausted
        self._final_fail(row, final_code)

    def _final_shed(self, row: int, code: int) -> None:
        """Finalise a deliberately-shed row; mark the stride sample.

        Same ledger as :meth:`_final_fail`, plus the ``shed:<route>``
        marker published on the *same* stride as the 0-valued
        availability tick — so after WAL replay, a window's shed count
        can be subtracted from its failure count to attribute burn to
        "deliberately shed" vs "failed" (see
        :func:`repro.slo.attribute_unavailability`).
        """
        self.shed_requests += 1
        if self._publish_every and (
            (self._completions + 1) % self._publish_every == 0
        ):
            route = self.log.route_name(self.log.v_route_ids[row])
            self.telemetry.publish(
                self.topic,
                TelemetryEvent(
                    source=f"shed:{route}",
                    value=1.0,
                    timestamp=self.sim.now,
                    kind=KIND_SERVING,
                ),
            )
        self._final_fail(row, code)

    def _final_fail(self, row: int, code: int) -> None:
        """Finalise a row nobody could serve: typed error, full ledger."""
        log = self.log
        now = self.sim.now
        log.fail(row, code, now)
        self.lost_stats(log.v_route_ids[row]).n_errors += 1
        self.final_failures += 1
        owner = log.slots[row]
        if owner is not None:
            log.slots[row] = None
            if owner.__class__ is _TracedJob:
                ms = (now - log.v_arrival[row]) * 1000.0
                self._trace(owner, None, row, now, ms, False, code)
            else:
                owner.resume(now)
        if self._publish_every:
            self._completions += 1
            if self._completions % self._publish_every == 0:
                self._publish_response(None, row, now, 0.0, False, None)
        self._release(row)

    # -- faults --------------------------------------------------------------

    def _apply_fault(self, event: FaultEvent) -> None:
        kind = event.kind
        topology = self.topology
        self.fault_log.append((self.sim.now, kind, event.node_id))
        if kind == FAULT_CRASH:
            node = topology.nodes[event.node_id]
            lost = topology.crash_node(event.node_id)
            self.lost_in_flight += len(lost)
            for row in lost:
                self._failover(row, node, self._err_crash)
        elif kind == FAULT_RESTART:
            topology.restart_node(event.node_id)
        elif kind == FAULT_PARTITION:
            topology.partition_node(event.node_id)
        elif kind == FAULT_HEAL:
            topology.heal_node(event.node_id)
        elif kind == FAULT_SLOW:
            topology.degrade_node(event.node_id, event.factor)
        elif kind == FAULT_RESTORE:
            topology.restore_node(event.node_id)
        elif kind == FAULT_POOL_CRASH:
            # resubmission is internal to the station: no failover, no
            # ledger movement — conservation must reconcile unchanged
            self.pool_worker_crashes += 1
            self.pool_redispatched += topology.nodes[
                event.node_id
            ].crash_pool_workers()

    # -- reporting -----------------------------------------------------------

    def conservation(self) -> Dict[str, int]:
        """The zero-loss ledger: every appended row observed exactly once."""
        return {
            "appended": self.log.appended,
            "observed": self.observed,
            "in_flight": self.in_flight,
            "final_failures": self.final_failures,
            "failovers": self.failovers,
            "lost_in_flight": self.lost_in_flight,
            "lost_responses": self.lost_responses,
            "stale_completions": sum(
                service.stale_completions
                for node in self.topology.nodes.values()
                for service in node.services.values()
            ),
            "shed_requests": self.shed_requests,
            "cache_hits": self.cache_hits,
            # pool-worker crashes resubmit internally: these two count
            # the injections and the rows that went back out, while the
            # appended == observed identity must hold regardless
            "pool_worker_crashes": self.pool_worker_crashes,
            "pool_redispatched": self.pool_redispatched,
        }

    def _stats_by_route(self) -> Dict[int, List[RouteStats]]:
        grouped: Dict[int, List[RouteStats]] = {}
        for (node_id, route_id), stats in self.node_route_stats.items():
            if stats.n_requests > 0:
                grouped.setdefault(route_id, []).append(stats)
        for route_id, stats in self._lost_stats.items():
            if stats.n_requests > 0:
                grouped.setdefault(route_id, []).append(stats)
        for route_id, stats in self._cache_stats.items():
            if stats.n_requests > 0:
                grouped.setdefault(route_id, []).append(stats)
        return grouped

    def summary_by_node(self, duration: float) -> Dict[str, SummaryReport]:
        """Per-node rollup: one merged report per node that saw traffic."""
        per_node: Dict[str, List[RouteStats]] = {}
        for (node_id, _), stats in self.node_route_stats.items():
            if stats.n_requests > 0:
                per_node.setdefault(node_id, []).append(stats)
        return {
            node_id: merged_report(bundle, duration, self.relative_accuracy)
            for node_id, bundle in sorted(per_node.items())
        }

    def exemplar_events(self) -> List[TelemetryEvent]:
        """Kept exemplars as node-sharded, trace-linked response events.

        Sources are node-qualified (:func:`node_source`), and every event
        additionally carries the ``node_id`` label — so a rollup over
        these events shards per node *and* each window resolves back to
        its (possibly cross-node) traces after WAL replay.
        """
        events = []
        for (node_id, route_id) in sorted(self.node_route_stats):
            stats = self.node_route_stats[(node_id, route_id)]
            route = self.log.route_name(route_id)
            for ms, end, _, trace in stats.exemplars.items():
                event = TelemetryEvent(
                    source=node_source(route, node_id),
                    value=ms,
                    timestamp=end,
                    kind=KIND_RESPONSE,
                    attrs={"exemplar": 1.0},
                )
                event.with_trace(trace.trace_id, trace.span_id)
                event.with_node(node_id)
                events.append(event)
        return events

    def serving_summary(self) -> Dict[str, dict]:
        """Per-(route, node) batching counters plus cluster cache/shed.

        Shaped for reports and the CLI: one entry per route with a
        ``nodes`` sub-map (batching counters per station), the route's
        cache counters when the gate is enabled, and the cluster-wide
        shed/hit ledger under ``"_totals"``.
        """
        if self.serving is None:
            return {}
        out: Dict[str, dict] = {}
        for _, replicas in sorted(self._replicas.items()):
            nodes = {
                service.node.node_id: service.serving_counters()
                for service in replicas.services
            }
            entry: Dict[str, object] = {"nodes": nodes}
            gate = replicas.gate
            if gate is not None:
                entry["cache"] = gate.cache.counters()
                entry["cache_hit_rate"] = gate.cache.hit_rate
            out[replicas.route] = entry
        out["_totals"] = {
            "shed_requests": self.shed_requests,
            "cache_hits": self.cache_hits,
        }
        return out

    def serving_events(self, at: float) -> List[TelemetryEvent]:
        """Batch/cache/shed counters as ``KIND_SERVING`` events.

        One node-qualified ``serving:<route>@<node>`` event per batching
        station, one ``cache:<route>`` hit-rate event per gate, and one
        cumulative ``shed_total:<route>`` counter snapshot.  The
        snapshot rides a separate source from the per-sample
        ``shed:<route>`` stride markers :meth:`_final_shed` publishes
        live, so summing the marker series (what
        :func:`repro.slo.attribute_unavailability` does per window)
        never double-counts.
        """
        events: List[TelemetryEvent] = []
        if self.serving is None:
            return events
        shed_by_route: Dict[str, int] = {}
        for _, replicas in sorted(self._replicas.items()):
            route = replicas.route
            for service in replicas.services:
                events.append(service.serving_event(at))
                if service._pool_workers:
                    events.append(service.pool_event(at))
                if service.shed_rows:
                    shed_by_route[route] = (
                        shed_by_route.get(route, 0) + service.shed_rows
                    )
            if replicas.gate is not None:
                events.append(replicas.gate.event(at))
        for route, count in sorted(shed_by_route.items()):
            events.append(
                TelemetryEvent(
                    source=f"shed_total:{route}",
                    value=float(count),
                    timestamp=at,
                    kind=KIND_SERVING,
                )
            )
        return events

    def node_events(self, timestamp: float) -> List[TelemetryEvent]:
        """One utilization snapshot per node (queue depth + lifecycle)."""
        events = []
        for node_id in self.topology.node_ids():
            node = self.topology.nodes[node_id]
            event = TelemetryEvent(
                source=node_source("node", node_id),
                value=float(node.queue_depth),
                timestamp=timestamp,
                kind=KIND_UTILIZATION,
                attrs={
                    "busy_workers": float(node.busy_workers),
                    "inflight_rows": float(node.inflight_rows),
                    "crashes": float(node.crashes),
                    "serving": 1.0 if node.serving else 0.0,
                },
            )
            event.with_node(node_id)
            events.append(event)
        return events

    def _final_events(self, at: float) -> List[TelemetryEvent]:
        return (
            self.exemplar_events()
            + self.node_events(at)
            + self.serving_events(at)
        )
