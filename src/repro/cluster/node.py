"""Cluster nodes: a bundle of per-route stations plus a lifecycle.

A :class:`ClusterNode` is one simulated gateway/service host.  It owns one
:class:`~repro.gateway.services.MicroService` per route — the same
columnar M/G/c station a single-node deployment runs, bound to this node
so its typed errors and telemetry sources name it.  What a cluster adds
is that **a node can die with work in flight**: the station's fault
surface (``crash``, ``set_slow``) is driven from here.

Crash safety hinges on *epoch tokens*.  Every in-service completion is
scheduled on the shared event heap carrying the station epoch; a crash
bumps it, so completions scheduled before the crash arrive with a stale
epoch and are dropped and counted instead of completing a row that was
already failed over (and possibly recycled) elsewhere.  Without the
guard, a restarted ring-mode run would let a ghost completion from the
dead node corrupt whatever request now owns that row slot.

Node states form a small machine (documented in DESIGN.md §12):

``UP ↔ DOWN`` via crash/restart (crash loses in-flight + queued rows,
which the runner fails over), ``UP ↔ UP/unreachable`` via
partition/heal (the node keeps computing but responses are lost), and
``UP → DRAINING`` when the autoscaler retires a node (no new dispatch,
in-flight work finishes normally).
"""

from __future__ import annotations

from typing import Dict, List

from repro.gateway.services import MicroService

__all__ = [
    "NODE_DOWN",
    "NODE_DRAINING",
    "NODE_UP",
    "ClusterNode",
]

#: Node lifecycle states (see the module docstring's state machine).
NODE_UP = "up"
NODE_DOWN = "down"
NODE_DRAINING = "draining"


class ClusterNode:
    """One simulated host: a bundle of per-route stations plus lifecycle.

    ``serving`` is the single flag the dispatch hot path reads; fault and
    autoscaler transitions (rare) keep it consistent with ``state`` and
    ``reachable``.
    """

    __slots__ = (
        "node_id",
        "services",
        "state",
        "reachable",
        "serving",
        "slow_factor",
        "crashes",
        "restarts",
        "partitions",
        "heals",
    )

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.services: Dict[str, MicroService] = {}
        self.state = NODE_UP
        self.reachable = True
        self.serving = True
        self.slow_factor = 1.0
        self.crashes = 0
        self.restarts = 0
        self.partitions = 0
        self.heals = 0

    def add_service(self, service: MicroService) -> None:
        """Host a route's station; binds the station to this node."""
        if service.name in self.services:
            raise ValueError(
                f"node {self.node_id} already hosts route {service.name!r}"
            )
        service.node = self
        self.services[service.name] = service

    # -- state transitions ----------------------------------------------------

    def crash(self) -> List[int]:
        """UP/DRAINING → DOWN; returns every row the node was holding."""
        if self.state == NODE_DOWN:
            raise RuntimeError(f"node {self.node_id} is already down")
        self.state = NODE_DOWN
        self.serving = False
        self.crashes += 1
        lost: List[int] = []
        for service in self.services.values():
            lost.extend(service.crash())
        return lost

    def restart(self) -> None:
        """DOWN → UP: fresh epochs already in place, ready to serve."""
        if self.state != NODE_DOWN:
            raise RuntimeError(f"node {self.node_id} is not down")
        self.state = NODE_UP
        self.slow_factor = 1.0
        self.restarts += 1
        self.serving = self.reachable

    def partition(self) -> None:
        """Sever the network: node keeps computing, responses are lost."""
        if not self.reachable:
            raise RuntimeError(f"node {self.node_id} is already partitioned")
        self.reachable = False
        self.serving = False
        self.partitions += 1

    def heal(self) -> None:
        """Rejoin the network after a partition."""
        if self.reachable:
            raise RuntimeError(f"node {self.node_id} is not partitioned")
        self.reachable = True
        self.heals += 1
        self.serving = self.state == NODE_UP

    def drain(self) -> None:
        """UP → DRAINING: no new dispatch, in-flight finishes normally."""
        if self.state != NODE_UP:
            raise RuntimeError(f"node {self.node_id} cannot drain ({self.state})")
        self.state = NODE_DRAINING
        self.serving = False

    def degrade(self, factor: float) -> None:
        """Slow every station on the node by ``factor`` (1.0 restores)."""
        self.slow_factor = factor
        for service in self.services.values():
            service.set_slow(factor)

    def crash_pool_workers(self) -> int:
        """Kill one kernel-pool worker per pool-enabled station.

        Returns the total rows re-dispatched.  A DOWN node has no pool
        workers to kill (its pool state was already cleared), so this is
        a no-op there.
        """
        if self.state == NODE_DOWN:
            return 0
        redispatched = 0
        for service in self.services.values():
            redispatched += service.crash_pool_worker()
        return redispatched

    # -- introspection -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return sum(s.queue_length for s in self.services.values())

    @property
    def busy_workers(self) -> int:
        return sum(s.busy_workers for s in self.services.values())

    @property
    def inflight_rows(self) -> int:
        return sum(s.inflight_rows for s in self.services.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        reach = "" if self.reachable else ", unreachable"
        return f"ClusterNode({self.node_id}, {self.state}{reach})"
