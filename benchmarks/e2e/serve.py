"""``serve-zipf`` and ``serve-unique``: the real serving path under load.

Both drive one in-process :class:`repro.serving.ServingEngine` (cache →
admission → micro-batcher → kernels) from a single-threaded driver:

* **phase A** — an open loop on a precomputed, seeded Poisson schedule.
  A request's latency runs from its *scheduled* send time to the end of
  the engine call during which the driver first sees it done, so a
  stalled driver charges the requests queued behind the stall; the
  driver's own lateness is recorded as a validity guard.  The part of a
  latency the driver or the pool worker spent computing is scaled to
  reference-host time (:mod:`.speed`); the part the driver spent idle,
  waiting for an arrival or a batch window, is wall time and is not.
  The driver spins while it waits, so it never wakes late;
* **phase B** — a flood: a closed loop keeping ``FLOOD_OUTSTANDING``
  requests in flight, in blocks of ``FLOOD_BLOCK_S``.  After each block
  the engine drains and the host speed is sampled; the median over
  blocks of completions per reference-host second is the saturation
  throughput.

``serve-zipf`` picks payloads from 1,024 vectors by Zipf(1.1), so the
explanation cache, in-batch dedup and engine overhead do most of the
work.  ``serve-unique`` sends a fresh vector every time through a
one-worker :class:`repro.pool.KernelPool`: no cache hit is possible, so
the kernels and the pool transport do the work.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.ml import RandomForestClassifier
from repro.pool import KernelPool
from repro.serving import PRIORITY_BATCH, PRIORITY_INTERACTIVE, ServingEngine, ServingPolicy
from repro.xai.shap import KernelShapExplainer

from benchmarks.e2e.common import Measurement, OracleError, percentile, windowed
from benchmarks.e2e.layers import LayerTracer, TimedPool, attribution, timed_kernels
from benchmarks.e2e.speed import HostSpeed

POLICY = ServingPolicy(max_batch=8, batch_window=0.004, cache_size=256, shed_depth=64)
FIXTURE_SEED = 7
N_FEATURES = 6
N_TRAIN = 400
N_BACKGROUND = 32
N_COALITIONS = 64
N_VECTORS = 1024
ZIPF_EXPONENT = 1.1
BATCH_PRIORITY_SHARE = 0.1
DEADLINE_S = 0.25
#: Phase A gets this share of the run, the flood the rest.
OPEN_LOOP_SHARE = 0.6
#: Flood concurrency; below ``shed_depth`` so the flood never sheds.
FLOOD_OUTSTANDING = 32
#: Waits shorter than this return at once; the driver loop re-checks.
MIN_WAIT_S = 0.0001
#: How often a waiting driver polls an attached pool.
POLL_INTERVAL_S = 0.0002
#: Driver iterations per ``bench.driver`` root span: one span per
#: iteration would cost more than the cache-hit requests it times.
SLICE_ITERATIONS = 64
#: Results compared bit for bit against per-row kernel calls.
ORACLE_SAMPLE = 200
#: Pooled batches replayed in-process to time the kernels (traced runs).
KERNEL_REPLAY_BATCHES = 48
#: The open-loop latency limit; a run whose p99 exceeds it is flagged.
LATENCY_LIMIT_MS = 250.0
#: Open-loop latency percentiles are taken per window of consecutive
#: requests (in schedule order) and reported as their median over the
#: windows; a window holds this many samples beyond the tail percentile.
TAIL_SAMPLES = 10
#: The flood runs in blocks this long; between blocks the engine drains
#: and ``FLOOD_SAMPLES`` host-speed samples are taken.  Throughput is the
#: median over blocks.
FLOOD_BLOCK_S = 0.1
FLOOD_SAMPLES = 5
#: In phase A a wait at least this long starts with a host-speed sample
#: (about 0.15 ms), at most one per ``IDLE_SAMPLE_EVERY_S``.
IDLE_SAMPLE_GAP_S = 0.001
IDLE_SAMPLE_EVERY_S = 0.02
LATENESS_GUARD_MS = 5.0


@dataclass(frozen=True)
class ServeConfig:
    name: str
    #: Phase A rate: 15-20% of the flood rate measured on the quiet
    #: reference host, so a 2.4x slow spell does not saturate the open
    #: loop (README, "Rates").
    rate_rps: float
    explain_share: float
    unique: bool
    pooled: bool
    #: Generous upper bound on flood throughput; sizes the input stream.
    flood_cap_rps: float
    #: ``tail_ms`` percentile: the highest that repeats across seeds on
    #: a busy host (README, "Percentiles").
    tail_percentile: int


class _Inputs:
    """The model fixture and the seeded traffic.

    The training data and the Zipf payload pool are the fixed fixture of
    ``benchmarks/bench_serving.py`` (seed 7), so every seed serves the
    same model; the seed drives the traffic: arrival times, payload
    picks, request kinds and priorities, and serve-unique's vectors.
    """

    def __init__(self, cfg: ServeConfig, seed: int, seconds: float) -> None:
        fixture = np.random.default_rng(FIXTURE_SEED)
        self.X = fixture.normal(size=(N_TRAIN, N_FEATURES))
        self.y = (self.X[:, 0] + self.X[:, 1] * self.X[:, 2] > 0).astype(int)
        pool = fixture.normal(size=(N_VECTORS, N_FEATURES))
        rng = np.random.default_rng(seed)
        self.open_seconds = seconds * OPEN_LOOP_SHARE
        self.flood_blocks = max(1, round((seconds - self.open_seconds) / FLOOD_BLOCK_S))
        self.flood_seconds = self.flood_blocks * FLOOD_BLOCK_S
        expected = cfg.rate_rps * self.open_seconds
        gaps = rng.exponential(1.0 / cfg.rate_rps, size=int(expected * 1.2) + 64)
        offsets = np.cumsum(gaps)
        self.offsets = offsets[offsets < self.open_seconds].tolist()
        n_open = len(self.offsets)
        n_flood = int(cfg.flood_cap_rps * self.flood_seconds) + 256
        total = n_open + n_flood
        self.explain = (rng.random(total) < cfg.explain_share).tolist()
        self.priority = np.where(
            rng.random(total) < BATCH_PRIORITY_SHARE,
            PRIORITY_BATCH,
            PRIORITY_INTERACTIVE,
        ).tolist()
        if cfg.unique:
            self.vectors = rng.normal(size=(total, N_FEATURES))
            self.ids = list(range(total))
        else:
            self.vectors = pool
            weights = (np.arange(N_VECTORS) + 1.0) ** -ZIPF_EXPONENT
            self.ids = rng.choice(N_VECTORS, size=total, p=weights / weights.sum()).tolist()
        self.n_open = n_open
        # oracle sample: half from the open loop, half from the first
        # flood requests (a flood always gets this far)
        half = ORACLE_SAMPLE // 2
        self.sample = set(rng.choice(n_open, size=min(half, n_open), replace=False).tolist())
        early_flood = max(half, int(50 * self.flood_seconds))
        self.sample.update(
            (n_open + rng.choice(early_flood, size=half, replace=False)).tolist()
        )


class _System:
    def __init__(self, cfg: ServeConfig, inputs: _Inputs, layers) -> None:
        self.model = RandomForestClassifier(n_estimators=10, max_depth=6, seed=0).fit(
            inputs.X, inputs.y
        )
        background = inputs.X[:N_BACKGROUND]
        self.explainer = KernelShapExplainer(
            self.model.predict_proba, background, n_coalitions=N_COALITIONS, seed=0
        )
        predict, explainer = self.model.predict_proba, self.explainer
        self.timed_predict = self.timed_explainer = None
        if layers.traced:
            predict, explainer = timed_kernels(layers, self.model, background, N_COALITIONS)
            self.timed_predict, self.timed_explainer = predict, explainer
        self.pool = None
        engine_pool = None
        if cfg.pooled:
            # the workers get the unwrapped kernels
            self.pool = KernelPool(self.model.predict_proba, self.explainer, workers=1, arena_mb=8)
            engine_pool = (
                TimedPool(layers, self.pool, KERNEL_REPLAY_BATCHES)
                if layers.traced
                else self.pool
            )
        self.engine = ServingEngine(predict, explainer, POLICY, pool=engine_pool)
        # warm every kernel once, outside the engine's counters
        warm = inputs.X[:2]
        self.model.predict_proba(warm[:1])
        self.explainer.shap_values_batch_exact(warm)
        if self.pool is not None:
            self.pool.submit_explain(warm)
            self.pool.submit_predict(warm)
            self.pool.drain()

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()


class _Driver:
    """The single-threaded load generator and its bookkeeping."""

    def __init__(
        self, cfg: ServeConfig, inputs: _Inputs, system: _System, layers, speed: HostSpeed
    ) -> None:
        self.cfg = cfg
        self.inputs = inputs
        self.engine = system.engine
        #: the real pool, whose queue depth tells whether the worker is busy
        self.pool = system.pool
        self.layers = layers
        self.speed = speed
        self.pending: List = []
        self.latency_ms = array("d")
        #: the scheduled send time of each latency sample, when it was
        #: seen done, and how much of it the driver spent idle
        self.latency_due = array("d")
        self.latency_end = array("d")
        self.latency_idle_ms = array("d")
        #: seconds the driver has spent waiting or sampling host speed
        #: while nothing computed for it
        self.idle_s = 0.0
        self.idle_at_submit: Dict[int, float] = {}
        self.sample_when_idle = False
        self.last_sample = 0.0
        #: (start, end, completions, idle seconds) of each flood block
        self.flood_blocks: List = []
        #: send time minus scheduled time, and the part of it the driver
        #: itself caused: time since control last came back from an
        #: engine call or a wait (the engine runs on the driver's thread,
        #: so a long inline batch delays arrivals without the generator
        #: being at fault)
        self.late_ms = array("d")
        self.generator_late_ms = array("d")
        self.free_at = 0.0
        #: enqueue -> resolution seconds inside the engine, batched requests
        self.engine_wait_ms = array("d")
        self.failed = 0
        self.completed = 0
        self.samples: List = []
        self.scheduled: Dict[int, float] = {}

    def _collect(self, t_end: float) -> None:
        keep = []
        for item in self.pending:
            request, index = item
            if not request.done:
                keep.append(item)
                continue
            if request.error is not None:
                self.failed += 1
            else:
                self.completed += 1
                if not request.cache_hit:
                    self.engine_wait_ms.append(
                        (request.completed_at - request.enqueued_at) * 1e3
                    )
                due = self.scheduled.pop(index, None)
                if due is not None:
                    self.latency_ms.append((t_end - due) * 1e3)
                    self.latency_due.append(due)
                    self.latency_end.append(t_end)
                    self.latency_idle_ms.append(
                        (self.idle_s - self.idle_at_submit.pop(index)) * 1e3
                    )
            if index in self.inputs.sample:
                self.samples.append((request, index))
        self.pending = keep
        self.free_at = t_end

    def _submit(self, index: int, now: float, deadline: float) -> None:
        inputs = self.inputs
        x = inputs.vectors[inputs.ids[index]]
        submit = self.engine.submit_explain if inputs.explain[index] else self.engine.submit_predict
        request = self.layers.call(
            "serving.engine.submit", submit, x, now, inputs.priority[index], deadline
        )
        self.pending.append((request, index))
        self._collect(time.perf_counter())

    def _service(self, now: float) -> bool:
        """Flush a due batch or poll the pool; True when work was done."""
        layers = self.layers
        deadline = self.engine.next_deadline()
        if deadline is not None and deadline <= now:
            layers.call("serving.engine.flush_due", self.engine.flush_due, now)
            self._collect(time.perf_counter())
            return True
        if self.cfg.pooled and self.pending:
            rows = layers.call("serving.engine.poll", self.engine.poll, now)
            if rows:
                self._collect(time.perf_counter())
            self.free_at = time.perf_counter()
            return bool(rows)
        return False

    def _wait(self, until: float) -> None:
        """Wait until ``until``.  The wait counts as idle unless the pool
        worker is computing for the driver meanwhile.

        The driver spins while nothing computes for it: a sleeping
        driver's CPU halts, and on a busy host it wakes from a 4 ms sleep
        1.5 ms late at p90 and 10 ms late at p99, lateness that would land
        in the measured latencies.  While the worker computes, the driver
        sleeps in ``POLL_INTERVAL_S`` slices instead: spinning then slowed
        the worker, raising serve-unique's p50 from 5.5 to 7.5 ms.
        """
        pc = time.perf_counter
        start = pc()
        if self.cfg.pooled and self.pending:
            until = min(until, start + POLL_INTERVAL_S)
        gap = until - start
        if gap <= MIN_WAIT_S:
            return
        worker_busy = self.pool is not None and self.pool.queue_depth > 0
        if (
            self.sample_when_idle
            and not worker_busy
            and gap >= IDLE_SAMPLE_GAP_S
            and start - self.last_sample >= IDLE_SAMPLE_EVERY_S
        ):
            self.last_sample = start
            with self.layers.span("bench.calibrate"):
                self.speed.sample()
        with self.layers.span("bench.driver.wait"):
            if worker_busy:
                time.sleep(until - start)
            else:
                while pc() < until:
                    pass
        self.free_at = pc()
        if not worker_busy:
            self.idle_s += self.free_at - start

    def open_loop(self) -> float:
        """Phase A; returns its wall seconds."""
        pc = time.perf_counter
        t0 = pc() + 0.005
        due = [t0 + offset for offset in self.inputs.offsets]
        n = len(due)
        i = 0
        self.free_at = t0
        self.sample_when_idle = True
        while i < n or self.pending:
            with self.layers.span("bench.driver"):
                for __ in range(SLICE_ITERATIONS):
                    if not (i < n or self.pending):
                        break
                    now = pc()
                    if i < n and due[i] <= now:
                        self.late_ms.append((now - due[i]) * 1e3)
                        self.generator_late_ms.append((now - max(due[i], self.free_at)) * 1e3)
                        self.scheduled[i] = due[i]
                        self.idle_at_submit[i] = self.idle_s
                        self._submit(i, now, due[i] + DEADLINE_S)
                        i += 1
                    elif not self._service(now):
                        deadline = self.engine.next_deadline()
                        nxt = due[i] if i < n else float("inf")
                        if deadline is not None:
                            nxt = min(nxt, deadline)
                        if nxt == float("inf") and not self.cfg.pooled:
                            raise RuntimeError("requests pending with nothing to resolve them")
                        self._wait(nxt)
        self.sample_when_idle = False
        return pc() - t0

    def flood(self) -> tuple:
        """Phase B; returns its (start, end)."""
        pc = time.perf_counter
        layers = self.layers
        index = self.inputs.n_open
        limit = len(self.inputs.ids)
        start = pc()
        for __ in range(self.inputs.flood_blocks):
            self.completed = 0
            idle_before = self.idle_s
            now = block_start = pc()
            block_end = block_start + FLOOD_BLOCK_S
            while now < block_end:
                with layers.span("bench.driver"):
                    for __ in range(SLICE_ITERATIONS):
                        if len(self.pending) < FLOOD_OUTSTANDING and index < limit:
                            self._submit(index, now, now + DEADLINE_S)
                            index += 1
                        elif not self._service(now):
                            self._wait(min(block_end, self.engine.next_deadline() or block_end))
                        now = pc()
                        if now >= block_end:
                            break
            self.flood_blocks.append(
                (block_start, now, self.completed, self.idle_s - idle_before)
            )
            # the sample waits for in-flight work: a busy pool worker
            # slows this process's CPU too (up to 2x on the reference
            # host), which is the program's cost, not the host's
            layers.call("serving.engine.drain", self.engine.drain, now)
            self._collect(pc())
            with layers.span("bench.calibrate"):
                self.speed.sample(FLOOD_SAMPLES)
        self.flood_submitted = index - self.inputs.n_open
        return start, pc()


class ServeWorkload:
    def __init__(self, cfg: ServeConfig) -> None:
        self.cfg = cfg
        self.name = cfg.name
        self.tail_percentile = cfg.tail_percentile

    def inputs(self, seed: int, seconds: float) -> _Inputs:
        return _Inputs(self.cfg, seed, seconds)

    def build(self, inputs: _Inputs, layers) -> _System:
        return _System(self.cfg, inputs, layers)

    def close(self, system: _System) -> None:
        system.close()

    def run(self, inputs: _Inputs, system: _System, layers, speed: HostSpeed) -> Measurement:
        driver = _Driver(self.cfg, inputs, system, layers, speed)
        open_wall = driver.open_loop()
        layers.reset()
        flood_span = driver.flood()
        blocks = driver.flood_blocks
        system.samples = driver.samples
        engine = system.engine
        attempted = inputs.n_open + driver.flood_submitted
        # in schedule order, so each window is a stretch of phase A
        due = driver.latency_due
        order = sorted(range(len(due)), key=due.__getitem__)
        raw = [driver.latency_ms[i] for i in order]
        idle = [driver.latency_idle_ms[i] for i in order]
        latency = speed.scaled(raw, [driver.latency_end[i] for i in order], idle)
        tail = self.tail_percentile
        window = TAIL_SAMPLES * 100 // (100 - tail)
        p99 = percentile(raw, 99)
        generator_late_p99 = percentile(driver.generator_late_ms, 99)
        info = {
            "rate_rps": self.cfg.rate_rps,
            "open_loop_seconds": inputs.open_seconds,
            "open_loop_wall_s": open_wall,
            "open_loop_requests": inputs.n_open,
            "flood_seconds": inputs.flood_seconds,
            "flood_requests": driver.flood_submitted,
            "flood_blocks": len(blocks),
            "latency_samples": len(latency),
            "latency_percentiles": {q: percentile(raw, q) for q in (50, 90, 95, 99)},
            "latency_idle_share": sum(idle) / sum(raw) if raw else 0.0,
            "latency_window": window,
            "flood_rps_mean": sum(b[2] for b in blocks) / sum(b[1] - b[0] for b in blocks),
            "p99_ms": p99,
            "sustainable": p99 <= LATENCY_LIMIT_MS,
            "late_p99_ms": percentile(driver.late_ms, 99),
            "late_max_ms": max(driver.late_ms, default=0.0),
            "generator_late_p99_ms": generator_late_p99,
            "generator_valid": generator_late_p99 <= LATENESS_GUARD_MS,
            "engine": engine.counters(),
        }
        measurement = Measurement(
            attempted=attempted,
            failed=driver.failed,
            e2e={
                "ops_per_s": speed.block_rate(blocks),
                "p50_ms": windowed(latency, window, 50),
                "tail_ms": windowed(latency, window, tail),
            },
            raw={
                # a HostSpeed without samples scales nothing
                "ops_per_s": HostSpeed().block_rate(blocks),
                "p50_ms": windowed(raw, window, 50),
                "tail_ms": windowed(raw, window, tail),
            },
            info=info,
        )
        if layers.traced:
            measurement.layers = self._layers(system, layers, driver, flood_span, attempted)
            measurement.info["spans"] = layers.fold.table(flood_span[1] - flood_span[0])
        return measurement

    def _layers(self, system, layers, driver, flood_span, attempted) -> Dict[str, float]:
        """Per-layer values over the flood, whose spans alone are folded."""
        engine = system.engine
        fold = layers.fold
        wall = flood_span[1] - flood_span[0]
        flushes = engine.flushed_by_size + engine.flushed_by_deadline + engine.flushed_by_drain
        out = {
            "bench.driver.late_p99_ms": percentile(driver.generator_late_ms, 99),
            "bench.driver.share": fold.share(wall, "bench.driver"),
            "serving.engine.submit_us_p50": fold.self_p50("serving.engine.submit") * 1e6,
            "serving.engine.share": fold.share(
                wall,
                "serving.engine.submit",
                "serving.engine.flush_due",
                "serving.engine.poll",
                "serving.engine.drain",
            ),
            "serving.batcher.mean_batch": engine.mean_batch_size,
            "serving.batcher.wait_p50_ms": percentile(driver.engine_wait_ms, 50),
            "serving.batcher.deadline_flush_frac": (
                engine.flushed_by_deadline / flushes if flushes else 0.0
            ),
            "serving.cache.hit_rate": engine.cache.hit_rate,
            "serving.cache.evictions": float(engine.cache.evictions),
            "serving.admission.shed_frac": engine.admission.shed / attempted,
            "attributed_frac": attribution(fold, flood_span),
            "tracing.overhead_frac": layers.overhead_frac(wall),
        }
        if self.cfg.pooled:
            pool = engine.pool
            out["pool.roundtrip_p50_ms"] = percentile(pool.roundtrips(), 50) * 1e3
            out["pool.poll_us_p50"] = fold.duration_p50("pool.poll") * 1e6
            out["pool.resubmitted"] = pool.counters()["resubmitted"]
            out["pool.share"] = fold.share(wall, "pool.submit", "pool.poll", "pool.drain")
            # the pooled kernels run in the worker, where no span reaches:
            # their in-process share of the flood is zero, and their cost
            # is timed by replaying the batches the pool served
            predict, explainer = self._kernel_replay(system, pool)
        else:
            predict, explainer = system.timed_predict, system.timed_explainer
            out["xai.shap.self_share"] = fold.share(wall, "xai.shap")
            out["xai.shap.model_share"] = fold.share(wall, "xai.shap.model")
            out["ml.predict.share"] = fold.share(wall, "ml.predict")
        out["xai.shap.rows_per_s"] = explainer.rows_per_s
        out["ml.predict.rows_per_s"] = predict.rows_per_s
        return out

    @staticmethod
    def _kernel_replay(system: _System, pool: TimedPool):
        """(predict, explainer) proxies after replaying the pool's batches."""
        predict, explainer = timed_kernels(
            LayerTracer(), system.model, system.explainer.background, N_COALITIONS
        )
        for kind, X in pool.batches:
            (explainer if kind == "explain" else predict)(X)
        return predict, explainer

    def verify(self, inputs: _Inputs, system: _System, measurement: Measurement) -> None:
        """Sampled results must equal per-row kernel calls bit for bit."""
        compared = 0
        for request, index in system.samples:
            if request.error is not None:
                continue
            x = inputs.vectors[inputs.ids[index]]
            if inputs.explain[index]:
                expected = system.explainer.shap_values(x)
            else:
                expected = system.model.predict_proba(x[None])[0]
            check_bitwise(request.value, expected, f"request {index}")
            compared += 1
        if compared == 0:
            raise OracleError("no sampled request completed")
        measurement.info["oracle_compared"] = compared


def check_bitwise(value, expected, what: str) -> None:
    if value is None or not np.array_equal(value, expected):
        raise OracleError(f"{what}: served result differs from the per-row kernel call")


ZIPF = ServeConfig(
    "serve-zipf", rate_rps=2000.0, explain_share=0.3, unique=False, pooled=False,
    flood_cap_rps=20000.0, tail_percentile=95,
)
UNIQUE = ServeConfig(
    "serve-unique", rate_rps=150.0, explain_share=0.6, unique=True, pooled=True,
    flood_cap_rps=2500.0, tail_percentile=90,
)
