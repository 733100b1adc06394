"""Tests for the pub/sub telemetry bus and its backpressure policies."""

import pytest

from repro.telemetry import BackpressureError, TelemetryBus, TelemetryEvent
from repro.telemetry.bus import consume


def make_event(i=0, source="s", topic_value=1.0):
    return TelemetryEvent(source=source, value=topic_value, timestamp=float(i))


@pytest.fixture()
def bus():
    return TelemetryBus()


class TestSubscriptions:
    def test_duplicate_name_raises(self, bus):
        bus.subscribe("a")
        with pytest.raises(ValueError):
            bus.subscribe("a")

    def test_unsubscribe_unknown_raises(self, bus):
        with pytest.raises(KeyError):
            bus.unsubscribe("ghost")

    def test_unsubscribed_consumer_stops_receiving(self, bus):
        sub = bus.subscribe("a", topics="t")
        bus.publish("t", make_event())
        bus.unsubscribe("a")
        bus.publish("t", make_event())
        assert sub.backlog == 1  # only the pre-unsubscribe event

    def test_invalid_policy_rejected(self, bus):
        with pytest.raises(ValueError):
            bus.subscribe("a", policy="block")

    def test_invalid_capacity_rejected(self, bus):
        with pytest.raises(ValueError):
            bus.subscribe("a", capacity=0)


class TestTopicRouting:
    def test_topic_isolation(self, bus):
        only_a = bus.subscribe("only-a", topics="a")
        only_b = bus.subscribe("only-b", topics="b")
        bus.publish("a", make_event())
        assert only_a.backlog == 1
        assert only_b.backlog == 0

    def test_wildcard_sees_everything(self, bus):
        sub = bus.subscribe("all")
        bus.publish("a", make_event())
        bus.publish("b", make_event())
        assert sub.backlog == 2

    def test_multi_topic_subscription(self, bus):
        sub = bus.subscribe("ab", topics=["a", "b"])
        bus.publish("a", make_event())
        bus.publish("b", make_event())
        bus.publish("c", make_event())
        assert sub.backlog == 2

    def test_routes_follow_subscriptions_made_after_a_publish(self, bus):
        early = bus.subscribe("early", topics="t")
        bus.publish("t", make_event(0))
        late = bus.subscribe("late", topics="t")
        everything = bus.subscribe("all")
        bus.publish("t", make_event(1))
        bus.unsubscribe("early")
        assert bus.publish("t", make_event(2)) == 2
        assert [e.timestamp for e in early.poll()] == [0.0, 1.0]
        assert [e.timestamp for e in late.poll()] == [1.0, 2.0]
        assert [e.timestamp for e in everything.poll()] == [1.0, 2.0]
        assert bus.stats()["topics"]["t"]["delivered"] == 6

    def test_publish_returns_placements(self, bus):
        bus.subscribe("x", topics="t")
        bus.subscribe("y", topics="t")
        bus.subscribe("z", topics="other")
        assert bus.publish("t", make_event()) == 2


class TestBackpressure:
    def test_drop_oldest_keeps_freshest(self, bus):
        sub = bus.subscribe("slow", topics="t", capacity=3, policy="drop_oldest")
        for i in range(10):
            bus.publish("t", make_event(i))
        batch = sub.poll()
        assert [e.timestamp for e in batch] == [7.0, 8.0, 9.0]
        assert sub.dropped == 7

    def test_drop_newest_keeps_history(self, bus):
        sub = bus.subscribe("slow", topics="t", capacity=3, policy="drop_newest")
        for i in range(10):
            bus.publish("t", make_event(i))
        batch = sub.poll()
        assert [e.timestamp for e in batch] == [0.0, 1.0, 2.0]
        assert sub.dropped == 7

    def test_error_policy_raises_at_publisher(self, bus):
        bus.subscribe("strict", topics="t", capacity=2, policy="error")
        bus.publish("t", make_event(0))
        bus.publish("t", make_event(1))
        with pytest.raises(BackpressureError):
            bus.publish("t", make_event(2))

    def test_slow_subscriber_never_blocks_publisher(self, bus):
        """Acceptance criterion: unbounded publishing against a slow
        drop_oldest consumer always completes, queue stays bounded, and
        the dropped counter accounts for every missing event."""
        n_events = 10_000
        capacity = 64
        sub = bus.subscribe(
            "slow", topics="t", capacity=capacity, policy="drop_oldest"
        )
        for i in range(n_events):
            bus.publish("t", make_event(i))
        assert sub.backlog == capacity
        assert sub.dropped == n_events - capacity
        assert sub.enqueued == n_events
        delivered = sub.poll()
        assert len(delivered) == capacity
        assert sub.enqueued - sub.dropped == sub.delivered


class TestDelivery:
    def test_poll_invokes_callback(self, bus):
        seen = []
        sub = bus.subscribe("cb", topics="t", callback=seen.append)
        bus.publish("t", make_event(1))
        bus.publish("t", make_event(2))
        batch = sub.poll()
        # one call, with the whole drained batch, which poll returns
        assert seen == [batch]
        assert [e.timestamp for e in batch] == [1.0, 2.0]

    def test_pump_drains_callback_subscribers_only(self, bus):
        seen = []
        bus.subscribe("cb", topics="t", callback=seen.extend)
        pull = bus.subscribe("pull", topics="t")
        bus.publish("t", make_event())
        assert bus.pump() == 1
        assert len(seen) == 1
        assert pull.backlog == 1  # pull-style queue untouched

    def test_poll_respects_max_events(self, bus):
        sub = bus.subscribe("batch", topics="t")
        for i in range(5):
            bus.publish("t", make_event(i))
        assert len(sub.poll(max_events=2)) == 2
        assert sub.backlog == 3

    def test_failing_callback_keeps_the_rest_of_the_batch(self, bus):
        """A raising callback loses nothing on a lossless subscription:
        the events it did not pop stay queued, ahead of any event
        published meanwhile, and only the popped events count."""
        seen = []
        broken = {1.0}

        def sink(batch):
            while batch:
                if batch[0].timestamp in broken:
                    raise OSError("disk full")
                seen.append(batch.popleft().timestamp)

        sub = bus.subscribe("audit", topics="t", policy="error", callback=sink)
        for i in range(4):
            bus.publish("t", make_event(i))
        with pytest.raises(OSError):
            bus.pump()
        assert seen == [0.0]
        assert sub.counters() == {
            "enqueued": 4, "delivered": 1, "dropped": 0, "backlog": 3,
        }
        bus.publish("t", make_event(4))
        broken.clear()
        assert bus.pump() == 4
        assert seen == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert sub.enqueued - sub.dropped == sub.delivered + sub.backlog

    def test_failing_callback_under_max_events(self, bus):
        seen = []

        def sink(batch):
            for done, event in enumerate(batch):
                if event.timestamp == 2.0 and not seen[2:]:
                    seen.append("failed")
                    consume(batch, done)
                    raise ValueError("bad event")
                seen.append(event.timestamp)

        sub = bus.subscribe("cb", topics="t", callback=sink)
        for i in range(5):
            bus.publish("t", make_event(i))
        with pytest.raises(ValueError):
            sub.poll(max_events=3)
        assert sub.delivered == 2 and sub.backlog == 3
        assert [e.timestamp for e in sub.poll()] == [2.0, 3.0, 4.0]
        assert seen == [0.0, 1.0, "failed", 2.0, 3.0, 4.0]
        assert sub.delivered == 5 and sub.backlog == 0

    def test_callback_publishing_to_its_own_topic(self, bus):
        """Events a callback publishes wait for the next drain."""
        seen = []

        def echo(batch):
            for event in batch:
                seen.append(event.timestamp)
                if event.timestamp < 10.0:
                    bus.publish("t", make_event(event.timestamp + 10.0))

        bus.subscribe("echo", topics="t", callback=echo)
        bus.publish("t", make_event(0))
        bus.publish("t", make_event(1))
        assert bus.pump() == 2
        assert seen == [0.0, 1.0]
        assert bus.pump() == 2
        assert seen == [0.0, 1.0, 10.0, 11.0]


class TestCounters:
    def test_topic_and_subscription_stats(self, bus):
        bus.subscribe("a", topics="t", capacity=1, policy="drop_newest")
        bus.publish("t", make_event(0))
        bus.publish("t", make_event(1))
        stats = bus.stats()
        assert stats["topics"]["t"] == {
            "published": 2,
            "delivered": 1,
            "dropped": 1,
        }
        assert stats["subscriptions"]["a"]["enqueued"] == 1
        assert stats["subscriptions"]["a"]["dropped"] == 1
        assert bus.topics == ["t"]
