"""Tests for the TelemetryPipeline façade (bus → WAL → rollups)."""

import pytest

from repro.slo import (
    KIND_SLO_ALERT,
    OBJECTIVE_AVAILABILITY,
    SLO_TOPIC,
    BurnRateRule,
    SLODefinition,
    SLOEvaluator,
)
from repro.telemetry import (
    TelemetryEvent,
    TelemetryPipeline,
    replay,
)
from repro.telemetry.wal import WriteAheadLog


def make_event(i, source="s"):
    return TelemetryEvent(source=source, value=0.5, timestamp=float(i))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestLifecycle:
    def test_publish_before_start_raises(self, tmp_path):
        pipe = TelemetryPipeline(wal_dir=tmp_path / "wal")
        with pytest.raises(RuntimeError):
            pipe.publish("t", make_event(0))

    def test_double_start_raises(self):
        pipe = TelemetryPipeline().start()
        with pytest.raises(RuntimeError):
            pipe.start()

    def test_close_is_idempotent_and_final(self, tmp_path):
        pipe = TelemetryPipeline(wal_dir=tmp_path / "wal").start()
        pipe.publish("t", make_event(0))
        pipe.close()
        pipe.close()
        with pytest.raises(RuntimeError):
            pipe.start()

    def test_publish_after_close_says_closed(self, tmp_path):
        pipe = TelemetryPipeline(wal_dir=tmp_path / "wal").start()
        pipe.close()
        with pytest.raises(RuntimeError, match="pipeline is closed"):
            pipe.publish("t", make_event(0))

    def test_context_manager_flushes_to_wal(self, tmp_path):
        with TelemetryPipeline(wal_dir=tmp_path / "wal") as pipe:
            for i in range(5):
                pipe.publish("t", make_event(i))
        assert len(list(replay(tmp_path / "wal"))) == 5

    def test_memory_only_mode(self):
        with TelemetryPipeline() as pipe:
            pipe.publish("t", make_event(0))
            pipe.publish("t", make_event(1))
        assert pipe.wal is None
        assert pipe.rollups.ingested == 2
        assert pipe.stats()["wal"] is None


class TestWiring:
    def test_events_reach_wal_and_rollups(self, tmp_path):
        with TelemetryPipeline(wal_dir=tmp_path / "wal") as pipe:
            for i in range(20):
                pipe.publish("t", make_event(i))
            pipe.flush()
            assert pipe.wal.appended == 20
            assert pipe.rollups.ingested == 20

    def test_extra_subscribers_coexist(self, tmp_path):
        seen = []
        with TelemetryPipeline(wal_dir=tmp_path / "wal") as pipe:
            pipe.bus.subscribe("spy", topics="t", callback=seen.extend)
            pipe.publish("t", make_event(0))
            pipe.pump()
        assert len(seen) == 1

    def test_auto_pump_bounds_queues(self, tmp_path):
        pipe = TelemetryPipeline(
            wal_dir=tmp_path / "wal", auto_pump_every=10
        ).start()
        for i in range(100):
            pipe.publish("t", make_event(i))
        # queues were drained every 10 events, not left to pile up
        stats = pipe.stats()["bus"]["subscriptions"]
        assert stats["wal"]["backlog"] == 0
        assert pipe.wal.appended == 100
        pipe.close()

    def test_auto_pump_validation(self):
        with pytest.raises(ValueError):
            TelemetryPipeline(auto_pump_every=0)

    def test_query_spans_both_tiers(self, tmp_path):
        with TelemetryPipeline(wal_dir=tmp_path / "wal") as pipe:
            for i in range(12):
                pipe.publish("t", make_event(i))
            pipe.flush()
            query = pipe.query()
            assert len(query.events()) == 12
            assert sum(w.count for w in query.windows()) >= 11

    def test_stats_snapshot_shape(self, tmp_path):
        with TelemetryPipeline(wal_dir=tmp_path / "wal") as pipe:
            pipe.publish("t", make_event(0))
            pipe.flush()
            snapshot = pipe.stats()
        assert snapshot["bus"]["topics"]["t"]["published"] == 1
        assert snapshot["wal"]["appended"] == 1
        assert snapshot["rollup"]["ingested"] == 1

    def test_close_persists_the_alert_edges_it_fires(self, tmp_path):
        pipe = TelemetryPipeline(wal_dir=tmp_path / "wal", cascades=()).start()
        slo = SLODefinition(
            "avail", "ok:shap", OBJECTIVE_AVAILABILITY, target=0.9,
            burn_rules=(BurnRateRule("fast", 2.0, 10.0, 4.0),),
        )
        evaluator = SLOEvaluator(
            [slo], emit=lambda event: pipe.publish(SLO_TOPIC, event)
        )
        evaluator.attach(pipe.rollups)
        # window [0, 1) fails and fires the rule; [1, 2) and [2, 3)
        # succeed and resolve it: every edge fires inside close()
        for i, value in enumerate([0.0, 1.0, 1.0, 1.0]):
            pipe.publish("t", TelemetryEvent("ok:shap", value, i + 0.5))
        pipe.close()
        assert [a.state for a in evaluator.alerts] == ["firing", "resolved"]
        edges = [e for e in replay(tmp_path / "wal") if e.kind == KIND_SLO_ALERT]
        assert edges == [alert.to_event() for alert in evaluator.alerts]


class FlakyHandle:
    """A segment handle whose writes pass through, except the WAL's
    ``fault_at``-th write (counted across rotations), which raises."""

    def __init__(self, handle, writes, fault_at):
        self.handle = handle
        self.writes = writes
        self.fault_at = fault_at

    def write(self, data):
        self.writes.append(len(data))
        if len(self.writes) == self.fault_at:
            raise OSError("disk full")
        return self.handle.write(data)

    def __getattr__(self, name):
        return getattr(self.handle, name)


class TestWalWriteFault:
    @pytest.mark.parametrize("fault_at", [1, 2, 3])
    def test_failed_write_is_retried_once_without_duplicates(
        self, tmp_path, monkeypatch, fault_at
    ):
        """A batch straddles several segments; one of its writes fails.
        The events of the writes before it count as delivered, the rest
        stay queued, and the next pump writes each of them once, rotating
        after the same lines as a run without the fault."""
        pipe = TelemetryPipeline(wal_dir=tmp_path / "wal", max_segment_bytes=600)
        pipe.start()
        published = [make_event(i) for i in range(40)]
        for event in published[:10]:
            pipe.publish("t", event)
        pipe.pump()
        wal = pipe.wal
        writes = []
        open_segment = wal._open_segment

        def open_flaky_segment():
            open_segment()
            wal._handle = FlakyHandle(wal._handle, writes, fault_at)

        monkeypatch.setattr(wal, "_open_segment", open_flaky_segment)
        wal._handle = FlakyHandle(wal._handle, writes, fault_at)
        for event in published[10:]:
            pipe.publish("t", event)
        with pytest.raises(OSError, match="disk full"):
            pipe.pump()
        queued = pipe.bus.stats()["subscriptions"]["wal"]
        assert queued["delivered"] == wal.appended < 40
        assert queued["delivered"] + queued["backlog"] == 40
        pipe.pump()
        pipe.close()
        assert len(writes) > 3  # the batch spanned several segments
        assert list(replay(tmp_path / "wal")) == published
        with WriteAheadLog(tmp_path / "clean", max_segment_bytes=600) as clean:
            for event in published:
                clean.append(event)
        assert list(map(read_bytes, wal.segments)) == list(
            map(read_bytes, clean.segments)
        )
        stats = pipe.stats()
        subscriptions = stats["bus"]["subscriptions"]
        assert stats["bus"]["topics"]["t"]["published"] == wal.appended == 40
        assert subscriptions["wal"]["delivered"] == 40
        assert subscriptions["wal"]["backlog"] == 0
        rollup = stats["rollup"]
        assert rollup["ingested"] + rollup["late_events"] == 40
        assert subscriptions["rollup"]["delivered"] == 40


class TestWalRecordPath:
    def test_each_record_goes_through_append(self, tmp_path, monkeypatch):
        """The ``wal`` subscription writes a batch record by record through
        :meth:`WriteAheadLog.append`, so a wrapped ``append`` sees every
        event the pipeline persists, in order, across rotations."""
        seen = []
        append = WriteAheadLog.append

        def recording(self, event):
            seen.append(event)
            append(self, event)

        monkeypatch.setattr(WriteAheadLog, "append", recording)
        published = [make_event(i) for i in range(40)]
        with TelemetryPipeline(
            wal_dir=tmp_path / "wal", max_segment_bytes=600
        ) as pipe:
            for event in published:
                pipe.publish("t", event)
            pipe.pump()
            assert seen == published
            assert len(pipe.wal.segments) > 3
        assert list(replay(tmp_path / "wal")) == published

    def test_a_record_lost_in_append_unbalances_the_ledger(
        self, tmp_path, monkeypatch
    ):
        """A record ``append`` counts but never writes leaves the WAL one
        short of what it reports appended."""
        append = WriteAheadLog.append

        def lossy(self, event):
            if self.appended != 5:
                append(self, event)
            else:
                self.appended += 1

        monkeypatch.setattr(WriteAheadLog, "append", lossy)
        with TelemetryPipeline(wal_dir=tmp_path / "wal") as pipe:
            for i in range(12):
                pipe.publish("t", make_event(i))
            pipe.pump()
            assert pipe.wal.appended == 12
        assert len(list(replay(tmp_path / "wal"))) == 11
