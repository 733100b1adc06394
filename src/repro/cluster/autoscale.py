"""Telemetry-driven autoscaling: rollup pressure adds or drains nodes.

The autoscaler closes the paper's §V elasticity loop *through the
telemetry pipeline*, not by peeking at simulator internals: a periodic
tick publishes one utilization snapshot per node into a
:class:`~repro.telemetry.rollup.TumblingWindowAggregator`, and scaling
decisions read only the *finalized* rollup windows back — the same
watermark-delayed, bounded view a real control loop would get from its
metrics store.  Pressure above the policy's high watermark joins a fresh
node (the ring moves ~K/N keys to it); pressure below the low watermark
drains the least-loaded node (no new dispatch, in-flight work finishes,
ring points withdrawn).

Ticks ride the shared event heap and re-arm only while other work
remains scheduled, so a run still terminates when its workload drains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.runner import ClusterRunner, node_source
from repro.telemetry.rollup import TumblingWindowAggregator

__all__ = ["AutoscalePolicy", "ClusterAutoscaler", "ScalingDecision"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """Watermarks and bounds for the scaling loop."""

    #: Mean queue depth per serving node above which a node is added.
    hi_queue: float = 32.0
    #: Mean queue depth below which the least-loaded node is drained.
    lo_queue: float = 2.0
    min_nodes: int = 1
    max_nodes: int = 16
    #: Minimum simulated seconds between consecutive scaling actions.
    cooldown_seconds: float = 2.0

    def __post_init__(self) -> None:
        if self.lo_queue < 0 or self.hi_queue <= self.lo_queue:
            raise ValueError("need 0 <= lo_queue < hi_queue")
        if not 1 <= self.min_nodes <= self.max_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown must be non-negative")


@dataclass(frozen=True)
class ScalingDecision:
    """One recorded scale action: when, what, why."""

    at: float
    action: str  # "add" | "drain"
    node_id: str
    pressure: float


class ClusterAutoscaler:
    """Periodic rollup-pressure controller over a cluster runner.

    Parameters
    ----------
    runner:
        The data plane; supplies per-node utilization events and owns
        the topology the controller mutates.
    aggregator:
        The rollup store the controller publishes into and reads from.
        Passing it in (rather than building one) lets tests and the CLI
        share the store with other consumers.
    policy, interval:
        Watermark policy and tick period in simulated seconds.
    """

    def __init__(
        self,
        runner: ClusterRunner,
        aggregator: TumblingWindowAggregator,
        policy: Optional[AutoscalePolicy] = None,
        interval: float = 0.5,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.runner = runner
        self.aggregator = aggregator
        self.policy = policy or AutoscalePolicy()
        self.interval = interval
        self.decisions: List[ScalingDecision] = []
        self.ticks = 0
        self._last_action_at = -1e18

    def start(self) -> None:
        """Arm the first tick on the shared heap."""
        self.runner.sim.schedule(self.interval, self._tick)

    # -- control loop --------------------------------------------------------

    def _tick(self) -> None:
        sim = self.runner.sim
        now = sim.now
        self.ticks += 1
        self.aggregator.ingest_many(self.runner.node_events(now))
        pressures = self._window_pressures()
        if pressures and now - self._last_action_at >= (
            self.policy.cooldown_seconds
        ):
            self._decide(now, pressures)
        # re-arm only while the workload still has events scheduled —
        # when this tick is the last thing on the heap, the run is over
        if sim._queue:
            sim.schedule(self.interval, self._tick)

    def _window_pressures(self) -> Dict[str, float]:
        """Latest finalized queue-depth window mean per *serving* node."""
        pressures: Dict[str, float] = {}
        topology = self.runner.topology
        for node_id in topology.node_ids():
            if not topology.nodes[node_id].serving:
                continue
            windows = self.aggregator.windows(
                source=node_source("node", node_id), level=0
            )
            if windows:
                pressures[node_id] = windows[-1].mean
        return pressures

    def _decide(self, now: float, pressures: Dict[str, float]) -> None:
        topology = self.runner.topology
        mean_pressure = sum(pressures.values()) / len(pressures)
        policy = self.policy
        if (
            mean_pressure > policy.hi_queue
            and len(topology) < policy.max_nodes
        ):
            node = topology.add_node()
            self._record(now, "add", node.node_id, mean_pressure)
        elif (
            mean_pressure < policy.lo_queue
            and len(topology) > policy.min_nodes
        ):
            # drain the least-loaded serving node (ties: lowest id)
            victim = min(sorted(pressures), key=lambda n: pressures[n])
            topology.remove_node(victim)
            self._record(now, "drain", victim, mean_pressure)

    def _record(
        self, now: float, action: str, node_id: str, pressure: float
    ) -> None:
        self._last_action_at = now
        self.decisions.append(
            ScalingDecision(
                at=now, action=action, node_id=node_id, pressure=pressure
            )
        )
