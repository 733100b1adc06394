"""Machines, requests and micro-services for the deployment simulation.

Each micro-service is an M/G/c-style station: ``concurrency`` parallel
workers (defaulting to the host machine's vCPUs — or a large batch width for
the GPU-backed impact service), a bounded FIFO queue, and a payload-aware
service-time model calibrated against our real metric implementations and
the latencies the paper reports.  A request reaches a station as a row of
a :class:`~repro.gateway.records.RecordLog`, whoever sends it: the
gateway's ``dispatch``, a capacity runner or a cluster node.  No tracer
and no :class:`RequestRecord` passes through a station; the gateway and
the runners build records and spans from a finished row's stamps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappush as _heappush
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.gateway.simulation import Simulator
from repro.serving.admission import SHED_ERROR_MESSAGE
from repro.serving.policy import ServingPolicy
from repro.tracing import SpanContext


@dataclass(frozen=True)
class Machine:
    """One deployment host from Fig. 8(a)."""

    name: str
    vcpus: int
    ram_gb: int
    gpu: bool = False

    def __post_init__(self) -> None:
        if self.vcpus < 1 or self.ram_gb < 1:
            raise ValueError("machines need at least 1 vCPU and 1 GB RAM")


@dataclass
class Request:
    """One client request routed through the gateway."""

    request_id: int
    route: str
    payload: str = "tabular"  # "tabular" | "image"
    created_at: float = 0.0


@dataclass
class RequestRecord:
    """Lifecycle of one request, used by the summary listeners."""

    request: Request
    arrival: float
    start: float = 0.0
    end: float = 0.0
    success: bool = True
    error: str = ""
    #: Root span context of the trace this request ran under (``None``
    #: when tracing is off).  The load generator copies it onto the
    #: telemetry events it publishes — the exemplar link from rollup
    #: buckets back to recorded traces.
    trace: Optional[SpanContext] = None

    @property
    def response_time(self) -> float:
        """Seconds from arrival at the gateway to the response."""
        return self.end - self.arrival

    @property
    def wait_time(self) -> float:
        """Seconds spent queued before a worker picked the request up."""
        return self.start - self.arrival


class ServiceTimeModel:
    """Payload-conditional lognormal service times.

    Parameters
    ----------
    base_seconds:
        Payload kind → median service time in seconds.
    jitter:
        Lognormal sigma (relative spread); 0 gives deterministic times.
    seed:
        RNG seed; every sample is reproducible.
    """

    def __init__(
        self,
        base_seconds: Dict[str, float],
        jitter: float = 0.15,
        seed: int = 0,
    ) -> None:
        if not base_seconds:
            raise ValueError("base_seconds must define at least one payload kind")
        if any(v <= 0 for v in base_seconds.values()):
            raise ValueError("service times must be positive")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.base_seconds = dict(base_seconds)
        self.jitter = jitter
        self._rng = np.random.default_rng(seed)

    def sample_batch(self, payload: str, n: int) -> np.ndarray:
        """Draw ``n`` service times in one vectorized call.

        Feeds the station's per-payload refill buffers: one generator call
        per few thousand requests instead of one per request.  For one
        payload kind the batch holds exactly the draws ``n`` successive
        one-at-a-time ``lognormal`` calls would give.  Payload kinds that
        share a station each draw their block ahead, rather than taking
        turns on the generator in arrival order.
        """
        if payload not in self.base_seconds:
            raise KeyError(
                f"service does not handle payload {payload!r}; "
                f"supported: {sorted(self.base_seconds)}"
            )
        if n < 1:
            raise ValueError("n must be >= 1")
        base = self.base_seconds[payload]
        if self.jitter == 0:
            return np.full(n, base)
        return base * self._rng.lognormal(0.0, self.jitter, size=n)

    def supports(self, payload: str) -> bool:
        return payload in self.base_seconds


#: Refill size for the pre-sampled service-time buffers: one vectorized
#: generator call (plus a ``tolist`` for C-speed scalar reads) per this
#: many requests of a payload kind.
SERVICE_TIME_BATCH = 4096


class _SampleBuffer:
    """Cursor over one payload's pre-sampled service-time batch."""

    __slots__ = ("values", "pos")

    def __init__(self) -> None:
        self.values: List[float] = []
        self.pos = 0


class MicroService:
    """A metric micro-service: c parallel workers over a bounded FIFO queue.

    This is the one simulated station, and a request reaches it only as
    a row of a bound :class:`~repro.gateway.records.RecordLog`.  A
    single-node deployment binds it to the log of its
    :class:`~repro.gateway.gateway.APIGateway` (``dispatch``) or of a
    :class:`~repro.gateway.capacity.CapacityRunner`; a cluster node
    hosts one per route, bound by
    :class:`~repro.cluster.runner.ClusterRunner`.  The serving tier (a
    micro-batcher and a simulated kernel pool) and the fault surface
    (crash, slow-down) sit on top of the row path; without faults the
    crash guard costs each row one epoch-token add and check and one
    in-flight dict insert and removal.

    Parameters
    ----------
    name:
        Route name (e.g. ``"shap"``).
    machine:
        Host machine; default worker count is its vCPU count.  ``None``
        for a cluster node's station, whose concurrency comes from its
        route spec.
    service_time:
        Payload-aware :class:`ServiceTimeModel`.
    concurrency:
        Parallel in-flight requests (overrides vCPUs; the GPU impact
        service uses a large batch width here).
    queue_capacity:
        Waiting-room size; arrivals beyond it fail fast with a 503-style
        error, which is what JMeter's error-rate column counts.
    stages:
        Optional ordered mapping of pipeline stage name → relative weight
        (e.g. ``{"pipeline.preprocess": 1, "pipeline.predict": 4,
        "pipeline.explain": 5}``).  When a traced request finishes, the
        gateway's span builder partitions its service time proportionally
        into child spans of the processing span — a stage-level profile
        of where the service time went, built after the fact without
        scheduling extra simulator events.
    """

    def __init__(
        self,
        name: str,
        machine: Optional[Machine],
        service_time: ServiceTimeModel,
        concurrency: Optional[int] = None,
        queue_capacity: int = 1000,
        stages: Optional[Dict[str, float]] = None,
    ) -> None:
        if queue_capacity < 0:
            raise ValueError("queue_capacity must be non-negative")
        if stages is not None:
            if not stages:
                raise ValueError("stages mapping must not be empty")
            if any(w <= 0 for w in stages.values()):
                raise ValueError("stage weights must be positive")
        if concurrency is None:
            if machine is None:
                raise ValueError("a machine-less station needs concurrency")
            concurrency = machine.vcpus
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.name = name
        self.machine = machine
        self.service_time = service_time
        self.concurrency = concurrency
        self.queue_capacity = queue_capacity
        self.stages = dict(stages) if stages else None
        #: Optional completion hook ``probe(tracer, span, record)``,
        #: fired as a request finishes processing: by the gateway's span
        #: builder for a traced request (``span`` is its processing
        #: span), and by the gateway for an untraced request it sent
        #: (``span`` is the :data:`~repro.tracing.span.NULL_SPAN`).
        #: ``record`` is rebuilt from the request's row with the client's
        #: times: ``arrival`` at dispatch, ``end`` one leg after the
        #: finish.  The traced capacity scenario wires this to a sensor
        #: poll, attaching real AI-trust measurements to the trace.
        self.probe: Optional[Callable] = None
        #: The cluster node hosting this station (set by
        #: ``ClusterNode.add_service``); ``None`` on a single-node
        #: deployment.  A node-bound station names its node in its error
        #: texts and telemetry sources.
        self.node = None
        #: The runner's streaming stats bundle, attached at bind time so
        #: the completion sink reaches it without a lookup.
        self.stats = None
        self._busy = 0
        # FIFO of row entries (bare ints) and parked serving batches
        # (lists); deque gives O(1) popleft.
        self._waiting: deque = deque()
        #: Rows served successfully (the row itself lives in the bound
        #: :class:`~repro.gateway.records.RecordLog`, possibly recycled —
        #: only the count is retained here).
        self.completed_rows = 0
        #: Rows typed-failed (queue full, shed, unsupported payload).
        self.failed_rows = 0
        self.rejected = 0
        #: Completions that arrived after a crash had already handed
        #: their rows back (dropped, never sunk).
        self.stale_completions = 0
        self._peak_queue = 0
        self._busy_seconds = 0.0  # cumulative worker-seconds of service
        # Crash safety: row completions are scheduled as the token
        # ``(epoch << 32) + row`` and batch completions as
        # ``(epoch, batch)``.  A crash bumps the epoch, so everything
        # scheduled before it arrives stale.  ``_tag`` caches
        # ``epoch << 32``; without faults it stays 0 and the token is
        # the row.
        self._epoch = 0
        self._tag = 0
        self._slow = 1.0
        # rows on station workers, as an insertion-ordered dict so a
        # crash hands them back in service-start order, never in an
        # order that depends on the row numbers
        self._inflight: Dict[int, None] = {}
        # Row-path bindings (set by use_columnar); None until bound.
        self._log = None
        self._sim: Optional[Simulator] = None
        self._sink = None
        self._sim_queue: Optional[list] = None
        self._sim_counter = None
        self._supported_ids: frozenset = frozenset()
        self._err_queue_full = 0
        self._err_shed = 0
        self._err_unsupported: Dict[int, int] = {}
        self._st_buffers: Dict[int, _SampleBuffer] = {}
        self._st_last_id = -1  # last payload's buffer, cached off the dict
        self._st_last_buf: Optional[_SampleBuffer] = None
        self._finish_cb = self._finish_row  # pre-bound: no per-event binding
        # Serving-mode bindings (set by configure_serving); None keeps
        # the classic one-row-per-worker dispatch untouched.
        self.serving: Optional[ServingPolicy] = None
        self._srv_pending: Dict[int, list] = {}
        self._srv_epoch: Dict[int, int] = {}
        self._srv_queued = 0
        self._srv_max_batch = 0
        self._srv_window = 0.0
        self._srv_marginal = 0.0
        self._srv_shed_depth = 0
        self.batches_flushed = 0
        self.rows_batched = 0
        self.flushed_by_size = 0
        self.flushed_by_deadline = 0
        self.shed_rows = 0
        self.batch_size_peak = 0
        self._flush_deadline_cb = self._flush_deadline
        self._finish_batch_cb = self._finish_batch
        # Kernel-pool bindings (policy.pool_workers > 0): flushed
        # batches occupy simulated pool workers instead of station
        # workers, so the station keeps admitting while kernels run —
        # the discrete-event mirror of repro.pool.
        self._pool_workers = 0
        self._pool_busy = 0
        self._pool_waiting: deque = deque()
        self._pool_inflight: Dict[int, tuple] = {}
        self._pool_seq = 0
        self._pool_busy_seconds = 0.0
        self._pool_peak_queue = 0
        self.pool_batches = 0
        self.pool_rows = 0
        self.pool_crashes = 0
        self.pool_restarts = 0
        self.pool_resubmitted = 0
        self.pool_peak_inflight = 0
        self._finish_pool_batch_cb = self._finish_pool_batch

    # -- worker hand-off (shared by every entry kind) ------------------------

    def _release_worker(self) -> None:
        """A worker finished: hand it to the queue head, or free it.

        Runs *before* the completion is reported, so a caller that
        resubmits synchronously queues behind earlier arrivals instead of
        grabbing the worker.  While ``busy`` exceeds a cap that
        :meth:`set_concurrency` just lowered, the worker retires instead.
        """
        waiting = self._waiting
        if waiting and self._busy <= self.concurrency:
            self._start_entry(waiting.popleft())
        else:
            self._busy -= 1

    def _start_entry(self, entry) -> None:
        """Start one queue entry (a row or a parked batch) on a claimed
        worker."""
        if type(entry) is int:
            self._start_row(entry)
        else:
            self._start_batch(entry)

    def set_concurrency(self, target: int, sim: Simulator) -> None:
        """Re-provision the worker pool (autoscaling, §V dynamic capacity).

        Growing the pool immediately starts queued requests on the new
        workers; shrinking only lowers the cap — in-flight requests finish,
        and each worker that frees up above the new cap retires instead
        of taking the next queued request.
        """
        if target < 1:
            raise ValueError("concurrency must be >= 1")
        self.concurrency = target
        # drain strictly from the head so FIFO arrival order is preserved
        waiting = self._waiting
        while self._busy < target and waiting:
            self._busy += 1
            self._start_entry(waiting.popleft())

    # -- row path --------------------------------------------------------------
    #
    # The one request path: a request is a row index in a bound
    # RecordLog, the service time comes from a refillable pre-sampled
    # buffer, and every scheduled callback is a bound method pushed
    # straight onto the simulator heap — no Request/RequestRecord
    # dataclasses, no closures, no per-request tuples.

    def use_columnar(self, log, sim: Simulator, sink) -> None:
        """Bind this service to a record log for the row-based hot path.

        ``sink(service, row, ok)`` is invoked once per row when the
        station is done with it (success, reject, shed or unsupported
        payload); ``service`` is this station, so one sink can serve many
        stations and read per-station state such as :attr:`stats` or
        :attr:`node`.  The caller owns response-leg accounting —
        including the row's ``end`` stamp, which the station leaves
        untouched on the success path — plus streaming stats and row
        recycling.  ``ok`` mirrors ``log.ok[row]``.
        """
        self._log = log
        self._sim = sim
        self._sink = sink
        # scheduling a service completion is a pure heap push (service
        # times are strictly positive, so the schedule-into-the-past
        # guard is dead); grab the simulator's heap and tie-break counter
        # once — both live for the simulator's lifetime
        self._sim_queue = sim._queue
        self._sim_counter = sim._counter
        self._supported_ids = frozenset(
            log.intern_payload(p) for p in self.service_time.base_seconds
        )
        # a node-bound station names itself in its typed errors; the shed
        # text keeps the SHED_ERROR_MESSAGE prefix, so is_shed_error()
        # still matches
        node = self.node
        where = "" if node is None else f" at {node.node_id}/{self.name}"
        self._err_queue_full = log.intern_error(f"queue full{where} (503)")
        self._err_shed = log.intern_error(SHED_ERROR_MESSAGE + where)
        self._err_unsupported = {}
        self._st_buffers = {}
        self._st_last_id = -1
        self._st_last_buf = None

    def submit_row(self, row: int) -> None:
        """Accept (or typed-reject) a columnar request at the current time."""
        payload_id = self._log.v_payload_ids[row]
        if payload_id not in self._supported_ids:
            self._fail_unsupported(row, payload_id)
        else:
            self.submit_trusted_row(row)

    def submit_trusted_row(self, row: int) -> None:
        """:meth:`submit_row` minus the payload check.

        For callers that validated the payload once at bind time (a
        closed-loop group or arrival process sends one fixed payload, so
        re-probing ``_supported_ids`` per request is dead work).  The
        congested branch never reads the payload column at all.
        """
        if self._busy < self.concurrency:
            # the uncongested accept runs once per simulated request, so
            # _start_row is inlined: the call alone costs as much as the
            # buffer bookkeeping
            log = self._log
            payload_id = log.v_payload_ids[row]
            self._busy += 1
            now = self._sim.now
            log.v_start[row] = now
            self._inflight[row] = None
            if payload_id == self._st_last_id:
                buffer = self._st_last_buf
            else:
                buffer = self._buffer(payload_id)
            pos = buffer.pos
            values = buffer.values
            if pos >= len(values):
                values = self._refill(buffer, payload_id)
                pos = 0
            buffer.pos = pos + 1
            _heappush(
                self._sim_queue,
                (
                    now + values[pos] * self._slow,
                    next(self._sim_counter),
                    self._finish_cb,
                    self._tag + row,
                ),
            )
        else:
            waiting = self._waiting
            depth = len(waiting)
            if depth < self.queue_capacity:
                waiting.append(row)
                if depth >= self._peak_queue:
                    self._peak_queue = depth + 1
            else:
                self.rejected += 1
                self._fail(row, self._err_queue_full)

    def _fail(self, row: int, code: int) -> None:
        """Typed-fail a row now and report it to the sink."""
        self._log.fail(row, code, self._sim.now)
        self.failed_rows += 1
        self._sink(self, row, False)

    def _fail_unsupported(self, row: int, payload_id: int) -> None:
        code = self._err_unsupported.get(payload_id)
        if code is None:
            log = self._log
            payload = log.payload_name(payload_id)
            code = log.intern_error(f"unsupported payload {payload!r}")
            self._err_unsupported[payload_id] = code
        self._fail(row, code)

    def _buffer(self, payload_id: int) -> _SampleBuffer:
        """The payload's service-time buffer, cached as the last one used."""
        buffer = self._st_buffers.get(payload_id)
        if buffer is None:
            buffer = _SampleBuffer()
            self._st_buffers[payload_id] = buffer
        self._st_last_id = payload_id
        self._st_last_buf = buffer
        return buffer

    def _refill(self, buffer: _SampleBuffer, payload_id: int) -> List[float]:
        values = self.service_time.sample_batch(
            self._log.payload_name(payload_id), SERVICE_TIME_BATCH
        ).tolist()
        buffer.values = values
        return values

    def _sample_service(self, payload_id: int) -> float:
        """One service-time draw off the pre-sampled buffers."""
        if payload_id == self._st_last_id:
            buffer = self._st_last_buf
        else:
            buffer = self._buffer(payload_id)
        pos = buffer.pos
        values = buffer.values
        if pos >= len(values):
            values = self._refill(buffer, payload_id)
            pos = 0
        buffer.pos = pos + 1
        return values[pos]

    def _start_row(self, row: int) -> None:
        """Serve a row on a claimed worker (the queue-drain path)."""
        log = self._log
        now = self._sim.now
        log.v_start[row] = now
        self._inflight[row] = None
        draw = self._sample_service(log.v_payload_ids[row])
        _heappush(
            self._sim_queue,
            (
                now + draw * self._slow,
                next(self._sim_counter),
                self._finish_cb,
                self._tag + row,
            ),
        )

    def _finish_row(self, token: int) -> None:
        tag = self._tag
        row = token - tag
        if row < 0:
            # scheduled before a crash: the row was handed back already
            self.stale_completions += 1
            return
        del self._inflight[row]
        # the sink stamps ``end`` (with the response leg folded in), so
        # the service does not write the column here
        now = self._sim.now
        log = self._log
        self._busy_seconds += now - log.v_start[row]
        self.completed_rows += 1
        # _release_worker, with the row-entry case inlined: a saturated
        # run drains a queued row on nearly every completion, and the
        # worker simply stays busy
        waiting = self._waiting
        if waiting and self._busy <= self.concurrency:
            entry = waiting.popleft()
            if type(entry) is int:
                log.v_start[entry] = now
                self._inflight[entry] = None
                payload_id = log.v_payload_ids[entry]
                if payload_id == self._st_last_id:
                    buffer = self._st_last_buf
                else:
                    buffer = self._buffer(payload_id)
                pos = buffer.pos
                values = buffer.values
                if pos >= len(values):
                    values = self._refill(buffer, payload_id)
                    pos = 0
                buffer.pos = pos + 1
                _heappush(
                    self._sim_queue,
                    (
                        now + values[pos] * self._slow,
                        next(self._sim_counter),
                        self._finish_cb,
                        tag + entry,
                    ),
                )
            else:
                self._start_entry(entry)
        else:
            self._busy -= 1
        self._sink(self, row, True)

    # -- serving mode: micro-batcher + admission control ---------------------

    def configure_serving(self, policy: ServingPolicy) -> None:
        """Enable micro-batched dispatch + admission control (DESIGN §15).

        Rows submitted through :meth:`submit_row_serving` coalesce per
        payload shape and flush as one fused kernel call occupying one
        worker for ``draw * (1 + (n-1)*batch_marginal)`` — the measured
        sublinear scaling of the vectorized kernels.  Once the backlog
        (pending + queued batch rows) reaches ``shed_depth``, new rows
        are shed with the typed ``503 shed`` error the SLO attribution
        layer keys on.  The classic per-row submit paths are untouched,
        so unbatched and batched runs compare apples to apples.
        """
        self.serving = policy
        self._srv_pending = {}
        self._srv_epoch = {}
        self._srv_queued = 0
        self._srv_max_batch = policy.max_batch
        self._srv_window = policy.batch_window
        self._srv_marginal = policy.batch_marginal
        self._srv_shed_depth = policy.shed_depth
        self._pool_workers = policy.pool_workers

    def submit_row_serving(self, row: int) -> None:
        """Accept, batch, or shed a columnar request at the current time."""
        payload_id = self._log.v_payload_ids[row]
        if payload_id not in self._supported_ids:
            self._fail_unsupported(row, payload_id)
            return
        if self._srv_shed_depth and self._srv_queued >= self._srv_shed_depth:
            self.shed_rows += 1
            self._fail(row, self._err_shed)
            return
        pending = self._srv_pending.get(payload_id)
        if pending is None:
            pending = []
            self._srv_pending[payload_id] = pending
            self._srv_epoch[payload_id] = 0
        pending.append(row)
        self._srv_queued += 1
        if len(pending) >= self._srv_max_batch:
            self.flushed_by_size += 1
            self._flush_payload(payload_id)
        elif len(pending) == 1:
            self._sim.schedule_call(
                self._srv_window,
                self._flush_deadline_cb,
                (self._srv_epoch[payload_id], payload_id),
            )

    def _flush_deadline(self, token) -> None:
        """Window-expiry flush; stale epochs are already-flushed groups."""
        epoch, payload_id = token
        if epoch != self._srv_epoch.get(payload_id, -1):
            return
        if self._srv_pending.get(payload_id):
            self.flushed_by_deadline += 1
            self._flush_payload(payload_id)

    def _flush_payload(self, payload_id: int) -> None:
        batch = self._srv_pending[payload_id]
        self._srv_pending[payload_id] = []
        self._srv_epoch[payload_id] += 1
        if self._pool_workers:
            self._dispatch_pool_batch(batch)
            return
        if self._busy < self.concurrency:
            self._busy += 1
            self._start_batch(batch)
            return
        waiting = self._waiting
        depth = len(waiting)
        # capacity is counted in queue *entries*: a parked batch is one
        # fused unit of work, exactly like one row
        if depth < self.queue_capacity:
            waiting.append(batch)
            if depth >= self._peak_queue:
                self._peak_queue = depth + 1
            return
        n = len(batch)
        self.rejected += n
        self._srv_queued -= n
        code = self._err_queue_full
        for row in batch:
            self._fail(row, code)

    def _open_batch(self, batch: list, now: float) -> None:
        """Count a flushed batch as started and stamp its rows."""
        n = len(batch)
        self._srv_queued -= n
        v_start = self._log.v_start
        for row in batch:
            v_start[row] = now
        self.batches_flushed += 1
        self.rows_batched += n
        if n > self.batch_size_peak:
            self.batch_size_peak = n

    def _batch_seconds(self, batch: list) -> float:
        """One fused call: a single draw, scaled sublinearly in rows."""
        return (
            self._sample_service(self._log.v_payload_ids[batch[0]])
            * self._slow
            * (1.0 + (len(batch) - 1) * self._srv_marginal)
        )

    def _start_batch(self, batch: list) -> None:
        """Run one fused batch on a claimed worker (one draw, n rows)."""
        now = self._sim.now
        self._open_batch(batch, now)
        inflight = self._inflight
        for row in batch:
            inflight[row] = None
        _heappush(
            self._sim_queue,
            (
                now + self._batch_seconds(batch),
                next(self._sim_counter),
                self._finish_batch_cb,
                (self._epoch, batch),
            ),
        )

    def _finish_batch(self, token) -> None:
        epoch, batch = token
        if epoch != self._epoch:
            # scheduled before a crash: every row was handed back already
            self.stale_completions += len(batch)
            return
        inflight = self._inflight
        for row in batch:
            del inflight[row]
        # one worker held for the whole fused call
        self._busy_seconds += self._sim.now - self._log.v_start[batch[0]]
        self.completed_rows += len(batch)
        self._release_worker()
        sink = self._sink
        for row in batch:
            sink(self, row, True)

    # -- simulated kernel pool (policy.pool_workers > 0) ---------------------
    #
    # The discrete-event mirror of repro.pool: flushed batches occupy
    # pool workers, not station workers, so the station's event loop
    # (admission, coalescing, window timers) overlaps with kernel
    # execution.  Pool completions carry a dispatch id instead of the
    # epoch: a pool-worker crash re-dispatches its oldest in-flight
    # batch under a fresh id, a station crash clears the in-flight map,
    # and either way the orphaned completion finds its id gone and does
    # nothing, so no row is ever lost or double-counted.

    def _dispatch_pool_batch(self, batch: list) -> None:
        """Route one flushed batch to the pool tier (park if saturated).

        Parked batches stay in ``_srv_queued`` so admission control
        back-pressures on the pool backlog exactly as it does on the
        coalescing backlog.
        """
        if self._pool_busy < self._pool_workers:
            self._start_pool_batch(batch)
        else:
            waiting = self._pool_waiting
            waiting.append(batch)
            if len(waiting) > self._pool_peak_queue:
                self._pool_peak_queue = len(waiting)

    def _start_pool_batch(self, batch: list, resubmit: bool = False) -> None:
        """Occupy one pool worker with a fused batch (one draw, n rows).

        ``resubmit`` re-dispatches a crash-orphaned batch: the rows were
        already started and counted, so only a fresh completion is
        scheduled — telemetry never double-counts a resubmission.
        Dispatch ids are monotonic and never reused, so an orphaned
        completion can only miss the in-flight map, never collide with a
        later batch.
        """
        now = self._sim.now
        if not resubmit:
            self._pool_busy += 1
            # a pooled batch is still one fused serving batch — the
            # serving counters stay comparable across pool on/off runs
            self._open_batch(batch, now)
            self.pool_batches += 1
            self.pool_rows += len(batch)
        inflight = len(self._pool_inflight) + 1
        if inflight > self.pool_peak_inflight:
            self.pool_peak_inflight = inflight
        self._pool_seq += 1
        dispatch_id = self._pool_seq
        self._pool_inflight[dispatch_id] = (batch, now)
        _heappush(
            self._sim_queue,
            (
                now + self._batch_seconds(batch),
                next(self._sim_counter),
                self._finish_pool_batch_cb,
                dispatch_id,
            ),
        )

    def _finish_pool_batch(self, dispatch_id: int) -> None:
        entry = self._pool_inflight.pop(dispatch_id, None)
        if entry is None:
            # orphaned: a pool-worker crash resubmitted the batch under a
            # new id, or a station crash handed its rows back
            return
        batch, started = entry
        now = self._sim.now
        self._pool_busy_seconds += now - started
        self.completed_rows += len(batch)
        self._pool_busy -= 1
        if self._pool_waiting and self._pool_busy < self._pool_workers:
            self._start_pool_batch(self._pool_waiting.popleft())
        sink = self._sink
        for row in batch:
            sink(self, row, True)

    def crash_pool_worker(self) -> int:
        """Kill one pool worker; returns rows re-dispatched.

        The oldest in-flight batch dies with the worker and is
        resubmitted onto the instantly-restarted replacement with a
        fresh service draw.  Batch/row counters do not advance again.
        """
        if not self._pool_workers:
            return 0
        self.pool_crashes += 1
        self.pool_restarts += 1
        if not self._pool_inflight:
            return 0
        dispatch_id = min(self._pool_inflight)
        batch, _started = self._pool_inflight.pop(dispatch_id)
        self.pool_resubmitted += len(batch)
        self._start_pool_batch(batch, resubmit=True)
        return len(batch)

    @property
    def pool_backlog(self) -> int:
        """In-flight plus parked pool batches (the POOL panel's value)."""
        return len(self._pool_inflight) + len(self._pool_waiting)

    @property
    def pool_busy_seconds(self) -> float:
        """Cumulative pool-worker-seconds spent on completed batches."""
        return self._pool_busy_seconds

    # -- fault surface (cluster nodes) ---------------------------------------

    def crash(self) -> List[int]:
        """Invalidate the station: return every row it owned, for failover.

        Bumping the epoch orphans every scheduled row and batch
        completion (they arrive stale); in-flight, queued,
        batch-pending and pooled rows are handed back to the caller to
        retry elsewhere or typed-fail.  Every request is a row, so the
        hand-back covers every request the station holds.
        """
        self._epoch += 1
        self._tag = self._epoch << 32
        lost = list(self._inflight)
        for entry in self._waiting:
            if type(entry) is list:
                lost.extend(entry)
            else:
                lost.append(entry)
        # unflushed coalescing groups die with the station; bumping each
        # payload epoch orphans their pending window timers
        for payload_id, pending in self._srv_pending.items():
            if pending:
                lost.extend(pending)
                self._srv_pending[payload_id] = []
            self._srv_epoch[payload_id] += 1
        self._srv_queued = 0
        # pool tier: in-flight and parked pool batches die with the
        # station (their orphaned completions find their dispatch ids gone)
        for batch, _started in self._pool_inflight.values():
            lost.extend(batch)
        for batch in self._pool_waiting:
            lost.extend(batch)
        self._pool_inflight.clear()
        self._pool_waiting.clear()
        self._pool_busy = 0
        self._inflight.clear()
        self._waiting.clear()
        self._busy = 0
        return lost

    def set_slow(self, factor: float) -> None:
        """Degrade (or restore, with 1.0) the station's service times."""
        if factor <= 0:
            raise ValueError("slow factor must be positive")
        self._slow = factor

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def inflight_rows(self) -> int:
        """Rows on station workers right now (pooled batches excluded)."""
        return len(self._inflight)

    # -- introspection and telemetry -----------------------------------------

    @property
    def busy_workers(self) -> int:
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    @property
    def peak_queue_length(self) -> int:
        return self._peak_queue

    @property
    def busy_seconds(self) -> float:
        """Cumulative worker-seconds spent serving completed requests."""
        return self._busy_seconds

    def utilization(self, elapsed_seconds: float) -> float:
        """Mean worker utilisation over an observation window.

        ``busy_seconds / (workers × elapsed)``; > 0.8 is the §IX signal
        that a metric needs its own (or a bigger) machine.
        """
        if elapsed_seconds <= 0:
            raise ValueError("elapsed_seconds must be positive")
        return self._busy_seconds / (self.concurrency * elapsed_seconds)

    def utilization_event(self, elapsed_seconds: float):
        """The utilisation snapshot as a telemetry event.

        ``value`` is mean worker utilisation over the window; queue depth,
        concurrency and rejection counts ride in ``attrs``, so capacity
        runs land on the same bus → WAL → rollup stream as sensor
        readings and the §IX "needs a bigger machine" signal becomes a
        queryable series instead of a one-off print.
        """
        from repro.telemetry.events import KIND_UTILIZATION, TelemetryEvent

        completed = self.completed_rows + self.failed_rows
        return TelemetryEvent(
            source=self.name,
            value=self.utilization(elapsed_seconds),
            timestamp=elapsed_seconds,
            kind=KIND_UTILIZATION,
            attrs={
                "busy_workers": float(self._busy),
                "concurrency": float(self.concurrency),
                "queue_length": float(len(self._waiting)),
                "peak_queue_length": float(self._peak_queue),
                "rejected": float(self.rejected),
                "completed": float(completed),
            },
        )

    def emit_utilization(
        self, telemetry, elapsed_seconds: float, topic: str = "services"
    ) -> None:
        """Publish :meth:`utilization_event` to a pipeline or bus."""
        telemetry.publish(topic, self.utilization_event(elapsed_seconds))

    def serving_counters(self) -> dict:
        """Batching counters (plus the pool tier's, when it is on).

        One station's entry in a runner's ``serving_summary``, shaped
        for reports, the CLI and the dashboard's serving/POOL panels.
        """
        batches = self.batches_flushed
        entry = {
            "batches": batches,
            "rows_batched": self.rows_batched,
            "mean_batch": self.rows_batched / batches if batches else 0.0,
            "by_size": self.flushed_by_size,
            "by_deadline": self.flushed_by_deadline,
            "peak_batch": self.batch_size_peak,
            "shed_rows": self.shed_rows,
        }
        if self._pool_workers:
            entry["pool"] = {
                "workers": self._pool_workers,
                "batches": self.pool_batches,
                "rows": self.pool_rows,
                "crashes": self.pool_crashes,
                "restarts": self.pool_restarts,
                "resubmitted": self.pool_resubmitted,
                "peak_inflight": self.pool_peak_inflight,
            }
        return entry

    def _station_event(self, family: str, value: float, at, kind, attrs):
        """A ``<family>:<route>`` event; node-bound stations publish
        ``<family>:<route>@<node>`` with a ``node_id`` label, so rollups
        shard per node."""
        from repro.telemetry.events import TelemetryEvent

        node = self.node
        if node is None:
            return TelemetryEvent(
                f"{family}:{self.name}", value, at, kind, attrs
            )
        event = TelemetryEvent(
            f"{family}:{self.name}@{node.node_id}", value, at, kind, attrs
        )
        return event.with_node(node.node_id)

    def serving_event(self, at: float):
        """Batching/shedding counters as a telemetry event.

        ``value`` is the mean rows per fused kernel call; flush-trigger
        splits, the batch-size peak and the shed count ride in ``attrs``
        so serving efficiency lands on the same bus → WAL → rollup
        stream as utilisation.
        """
        from repro.telemetry.events import KIND_SERVING

        batches = self.batches_flushed
        return self._station_event(
            "serving",
            self.rows_batched / batches if batches else 0.0,
            at,
            KIND_SERVING,
            {
                "batches": float(batches),
                "rows": float(self.rows_batched),
                "by_size": float(self.flushed_by_size),
                "by_deadline": float(self.flushed_by_deadline),
                "peak": float(self.batch_size_peak),
                "shed": float(self.shed_rows),
            },
        )

    def pool_event(self, at: float):
        """Pool queue depth + fan-out counters as a telemetry event.

        ``value`` is the pool backlog (in-flight + parked batches);
        worker occupancy, fan-out and the crash/resubmit ledger ride in
        ``attrs`` so the POOL dashboard panel reads one source per
        station.
        """
        from repro.telemetry.events import KIND_POOL

        batches = self.pool_batches
        return self._station_event(
            "pool",
            float(self.pool_backlog),
            at,
            KIND_POOL,
            {
                "workers": float(self._pool_workers),
                "busy": float(self._pool_busy),
                "queued": float(len(self._pool_waiting)),
                "batches": float(batches),
                "rows": float(self.pool_rows),
                "mean_fan_out": self.pool_rows / batches if batches else 0.0,
                "peak_inflight": float(self.pool_peak_inflight),
                "crashes": float(self.pool_crashes),
                "restarts": float(self.pool_restarts),
                "resubmitted": float(self.pool_resubmitted),
                "busy_seconds": self._pool_busy_seconds,
            },
        )
