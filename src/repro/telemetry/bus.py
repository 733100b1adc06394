"""In-process pub/sub telemetry bus with explicit backpressure.

The ROADMAP's production framing demands that monitoring never stalls the
inference path: producers (sensor polls, gateway listeners) publish into
*bounded* per-subscriber queues and return immediately; consumers (WAL
writer, rollup aggregator, dashboard) drain their queues when pumped.  A
slow consumer therefore costs dropped telemetry — an explicit, counted
policy decision — never a blocked producer.

Backpressure policies per subscription:

``drop_oldest``
    Evict the oldest queued event to admit the new one (keep freshest).
``drop_newest``
    Discard the incoming event (keep history, lose freshness).
``error``
    Raise :class:`BackpressureError` at the publisher — for consumers that
    must be lossless (e.g. an audit WAL) where dropping is worse than
    failing loudly.

Delivery hands each consumer its whole drained queue at once: a callback
is called once per drain with the batch (a deque, oldest event first),
so a consumer pays its per-call costs once per batch, not per event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple, Union

from repro.telemetry.events import TelemetryEvent

#: Subscribe to every topic.
WILDCARD = "*"

POLICIES = ("drop_oldest", "drop_newest", "error")

#: A push consumer: called once per drain with the drained batch.
BatchCallback = Callable[[Deque[TelemetryEvent]], None]


def consume(batch: Iterable[TelemetryEvent], n: int) -> None:
    """Pop the first ``n`` events off a bus batch (see :class:`Subscription`).

    A batch callback that raises calls this first with the number of
    events it has consumed, so only those count as delivered.  Batch
    bodies also accept plain sequences from direct callers; those are
    the caller's and are left as they are.
    """
    if isinstance(batch, deque):
        for __ in range(n):
            batch.popleft()


class BackpressureError(RuntimeError):
    """A lossless (`policy="error"`) subscription's queue overflowed."""


@dataclass
class TopicCounters:
    """Per-topic publication accounting."""

    published: int = 0
    delivered: int = 0
    dropped: int = 0


class Subscription:
    """One consumer's bounded queue on the bus.

    Created via :meth:`TelemetryBus.subscribe`; not instantiated directly.
    Events accumulate in the queue at publish time and are handed out as
    one batch, the deque :meth:`poll` drains: returned to the caller (pull
    style), and passed to the optional ``callback`` when one is set (push
    style, when the bus is pumped).

    A callback that returns has consumed its whole batch.  One that
    raises first pops the events it has consumed off the batch's left
    (:func:`consume`); the events still in the batch go back to the front
    of the queue, ahead of anything published meanwhile, and only the
    popped ones count as delivered.  So ``enqueued - dropped == delivered
    + backlog`` holds even after a callback raised.
    """

    def __init__(
        self,
        name: str,
        topics: Iterable[str],
        capacity: int,
        policy: str,
        callback: Optional[BatchCallback],
    ) -> None:
        if capacity < 1:
            raise ValueError("subscription capacity must be >= 1")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown backpressure policy {policy!r}; choose from {POLICIES}"
            )
        self.name = name
        self.topics = frozenset(topics)
        self.capacity = capacity
        self.policy = policy
        self.callback = callback
        self._queue: Deque[TelemetryEvent] = deque()
        self.enqueued = 0
        self.delivered = 0
        self.dropped = 0

    def matches(self, topic: str) -> bool:
        return WILDCARD in self.topics or topic in self.topics

    def _offer(self, event: TelemetryEvent) -> bool:
        """Admit one event under the backpressure policy.

        Returns ``True`` if the event was enqueued, ``False`` if dropped.
        """
        queue = self._queue
        if len(queue) >= self.capacity:
            if self.policy == "drop_oldest":
                queue.popleft()
                self.dropped += 1
            elif self.policy == "drop_newest":
                self.dropped += 1
                return False
            else:
                raise BackpressureError(
                    f"subscription {self.name!r} queue full "
                    f"({self.capacity} events) and policy is 'error'"
                )
        queue.append(event)
        self.enqueued += 1
        return True

    def poll(self, max_events: Optional[int] = None) -> Deque[TelemetryEvent]:
        """Drain up to ``max_events`` (all, when ``None``) from the queue as
        one batch, hand it to the callback when one is set, and return it.

        A full drain swaps the queue out whole, so the batch is the old
        queue itself.  The callback is called once with the batch; what it
        pops off the batch is gone from the returned deque too.  If it
        raises, the events left in the batch go back to the front of the
        queue and the exception propagates (see :class:`Subscription`).
        """
        queue = self._queue
        if max_events is None or max_events >= len(queue):
            self._queue = deque()
            batch = queue
        else:
            batch = deque(queue.popleft() for __ in range(max_events))
        size = len(batch)
        callback = self.callback
        if callback is not None:
            try:
                callback(batch)
            except BaseException:
                undelivered = deque(batch)
                undelivered.extend(self._queue)
                self._queue = undelivered
                self.delivered += size - len(batch)
                raise
        self.delivered += size
        return batch

    @property
    def backlog(self) -> int:
        """Events queued but not yet delivered."""
        return len(self._queue)

    def counters(self) -> Dict[str, int]:
        return {
            "enqueued": self.enqueued,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "backlog": self.backlog,
        }


class TelemetryBus:
    """Named-topic pub/sub with per-subscriber bounded queues.

    >>> bus = TelemetryBus()
    >>> sub = bus.subscribe("sink", topics=["sensors"], capacity=2)
    >>> e = TelemetryEvent(source="s", value=1.0, timestamp=0.0)
    >>> bus.publish("sensors", e)
    1
    >>> [ev.source for ev in sub.poll()]
    ['s']
    """

    def __init__(self) -> None:
        self._subscriptions: Dict[str, Subscription] = {}
        self._topic_counters: Dict[str, TopicCounters] = {}
        #: topic -> its counters and matching subscriptions, resolved at
        #: the topic's first publish after a (un)subscribe
        self._routes: Dict[str, Tuple[TopicCounters, Tuple[Subscription, ...]]] = {}

    # -- subscription management ----------------------------------------------

    def subscribe(
        self,
        name: str,
        topics: Union[str, Iterable[str]] = WILDCARD,
        capacity: int = 4096,
        policy: str = "drop_oldest",
        callback: Optional[BatchCallback] = None,
    ) -> Subscription:
        """Register a consumer; names must be unique on the bus.

        ``callback``, when given, is called with each drained batch (a
        deque of events, oldest first) and follows the failure rule of
        :class:`Subscription`.  Subscriptions drain in the order they were
        made.
        """
        if name in self._subscriptions:
            raise ValueError(f"subscription {name!r} already exists")
        if isinstance(topics, str):
            topics = (topics,)
        subscription = Subscription(name, topics, capacity, policy, callback)
        self._subscriptions[name] = subscription
        self._routes.clear()
        return subscription

    def unsubscribe(self, name: str) -> None:
        if name not in self._subscriptions:
            raise KeyError(f"unknown subscription {name!r}")
        del self._subscriptions[name]
        self._routes.clear()

    @property
    def subscriptions(self) -> List[Subscription]:
        return list(self._subscriptions.values())

    # -- publish / deliver ------------------------------------------------------

    def publish(self, topic: str, event: TelemetryEvent) -> int:
        """Fan one event out to every matching subscription queue.

        Never blocks: each subscription admits or drops per its policy.
        Returns the number of queues the event landed in.
        """
        route = self._routes.get(topic)
        if route is None:
            route = self._route(topic)
        counters, subscriptions = route
        counters.published += 1
        landed = 0
        for subscription in subscriptions:
            if subscription._offer(event):
                counters.delivered += 1
                landed += 1
            else:
                counters.dropped += 1
        return landed

    def _route(
        self, topic: str
    ) -> Tuple[TopicCounters, Tuple[Subscription, ...]]:
        """Resolve and cache a topic's counters and matching subscriptions."""
        counters = self._topic_counters.get(topic)
        if counters is None:
            counters = self._topic_counters[topic] = TopicCounters()
        route = self._routes[topic] = (
            counters,
            tuple(s for s in self._subscriptions.values() if s.matches(topic)),
        )
        return route

    def pump(self, max_events: Optional[int] = None) -> int:
        """Drain every subscription that has a callback (push delivery),
        one batch each, in subscription order.

        Pull-style subscriptions (no callback) are left untouched — their
        owners call :meth:`Subscription.poll` themselves.  Returns the
        number of events delivered.
        """
        delivered = 0
        for subscription in self._subscriptions.values():
            if subscription.callback is None:
                continue
            before = subscription.delivered
            subscription.poll(max_events)
            delivered += subscription.delivered - before
        return delivered

    # -- introspection ----------------------------------------------------------

    @property
    def topics(self) -> List[str]:
        return sorted(self._topic_counters)

    def stats(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Counter snapshot: per topic and per subscription."""
        return {
            "topics": {
                topic: {
                    "published": c.published,
                    "delivered": c.delivered,
                    "dropped": c.dropped,
                }
                for topic, c in self._topic_counters.items()
            },
            "subscriptions": {
                name: sub.counters()
                for name, sub in self._subscriptions.items()
            },
        }
