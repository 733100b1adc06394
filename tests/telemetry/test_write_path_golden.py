"""A pinned, seeded telemetry stream through the whole write path.

One stream (twelve series, reordered and late events, an incident that
pages) goes bus → WAL → rollups → SLO evaluator.  Three digests pin what
comes out: the WAL's bytes segment by segment, every finalised
``WindowStat`` at every cascade level in finalisation order, and the
alert edges.  The expected values were computed with the reference
implementation, which wrote the WAL with ``json.dumps`` and computed
level-0 windows with ``ndarray.mean``/``min``/``max`` and
``numpy.percentile``; the faster write path must reproduce them exactly.
"""

import hashlib
import struct

import numpy as np

from repro.slo import SLO_TOPIC, SLOEvaluator, default_definitions
from repro.telemetry import TelemetryEvent, TelemetryPipeline

SOURCES = [f"shap@node-{i}" for i in range(8)] + [
    "ok:shap",
    "shed:shap",
    "cache:shap",
    "performance",
]
N_EVENTS = 24_000
SPAN_S = 240.0

WAL_SHA256 = "23964c129aabcc1a3d07c4814a67f7bc74f32f58f2861189d25bd34055679042"
WINDOWS_SHA256 = "27b151417e22077249782de5f250e31fbb5bef0e77649f721500750657741ea5"
ALERTS_SHA256 = "9b589ea48277077e3ff801fad7b4d47ccaa62a3802d0c87eac894f4d90cf3603"


def seeded_stream(seed=2024):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, SPAN_S, N_EVENTS))
    reordered = rng.random(N_EVENTS) < 0.02
    times[reordered] -= rng.uniform(0.0, 0.5, int(reordered.sum()))
    late = rng.random(N_EVENTS) < 0.002
    times[late] -= rng.uniform(2.0, 30.0, int(late.sum()))
    times = np.maximum(times, 0.0)
    series = rng.integers(0, len(SOURCES), N_EVENTS)
    incident = (times >= 80.0) & (times < 180.0)
    values = rng.lognormal(np.log(80.0), 0.6, N_EVENTS)
    values[incident & (series == 3)] *= 4.0
    ok = series == 8
    fail = rng.random(N_EVENTS) < np.where(incident, 0.05, 0.0005)
    values[ok] = (~fail[ok]).astype(float)
    shed = series == 9
    values[shed] = rng.poisson(0.2, N_EVENTS)[shed]
    cache = series == 10
    values[cache] = np.clip(rng.normal(0.8, 0.05, N_EVENTS), 0, 1)[cache]
    perf = series == 11
    values[perf] = (np.where(incident, 0.6, 0.9) + rng.normal(0, 0.02, N_EVENTS))[perf]
    # a few non-finite latencies ride along (shed counts are integers)
    values[rng.choice(np.flatnonzero(series < 8), 5)] = np.inf
    return [
        TelemetryEvent(
            source=SOURCES[s],
            value=int(v) if s == 9 else float(v),
            timestamp=float(t),
            kind="sensor_reading" if s == 11 else "response",
            labels={"node_id": f"node-{s}"} if s < 8 and i % 7 == 0 else {},
            attrs={"retries": float(i % 3)} if s == 8 and i % 5 == 0 else {},
        )
        for i, (s, v, t) in enumerate(
            zip(series.tolist(), values.tolist(), times.tolist())
        )
    ]


def run_write_path(wal_dir):
    pipeline = TelemetryPipeline(
        wal_dir=wal_dir,
        window_seconds=1.0,
        cascades=(10.0, 60.0),
        max_segment_bytes=1 << 18,
        auto_pump_every=256,
    ).start()
    evaluator = SLOEvaluator(
        default_definitions(),
        emit=lambda event: pipeline.publish(SLO_TOPIC, event),
    )
    evaluator.attach(pipeline.rollups)
    windows = []
    for level in range(3):
        pipeline.rollups.on_finalize(
            lambda stat, level=level: windows.append((level, stat)), level=level
        )
    for event in seeded_stream():
        pipeline.publish("gateway", event)
    pipeline.flush()
    pipeline.flush()
    pipeline.close()
    return pipeline, windows, evaluator.alerts


def wal_digest(pipeline):
    digest = hashlib.sha256()
    for path in pipeline.wal.segments:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(b"%d:" % len(data))
        digest.update(data)
    return digest.hexdigest()


def float_bits(x):
    """The float's bytes; every NaN reads the same (numpy's min and max
    return the data's NaN or a fresh one depending on the array size)."""
    return b"NaN" if x != x else struct.pack("<d", x)


def windows_digest(windows):
    digest = hashlib.sha256()
    for level, s in windows:
        digest.update(repr((level, s.source, s.count, s.exact_percentiles)).encode())
        for x in (s.window_start, s.window_seconds, s.mean, s.min, s.max, s.p50, s.p95):
            digest.update(float_bits(x))
    return digest.hexdigest()


def alerts_digest(alerts):
    edges = [
        (a.slo, a.source, a.rule, a.state, a.timestamp.hex(),
         a.short_burn.hex(), a.long_burn.hex())
        for a in alerts
    ]
    return hashlib.sha256(repr(edges).encode()).hexdigest()


def test_write_path_outputs_are_pinned(tmp_path):
    pipeline, windows, alerts = run_write_path(tmp_path / "wal")
    assert len(pipeline.wal.segments) > 1  # rotation is part of the pin
    assert {level for level, __ in windows} == {0, 1, 2}
    assert any(a.firing for a in alerts)
    assert wal_digest(pipeline) == WAL_SHA256
    assert windows_digest(windows) == WINDOWS_SHA256
    assert alerts_digest(alerts) == ALERTS_SHA256
