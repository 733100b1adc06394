"""Cluster topology: N nodes, a hash ring, per-route replica sets.

:class:`ClusterTopology` is the control plane of the simulated cluster.
It owns the membership (node objects + the consistent-hash ring), builds
one :class:`~repro.gateway.services.MicroService` station per (node,
route) pair, and answers the one question the data plane asks per
request: *which nodes may serve this route, in what failover order?*

Placement is two-level:

* the **ring** maps each route to its ``replication``-sized preference
  list of node ids — stable under faults, minimally perturbed by
  membership changes (DESIGN.md §12);
* **fault state** is *not* in the ring.  A crashed or partitioned node
  stays on the ring and is skipped at dispatch time via the node's
  ``serving`` flag, so a restart needs no rebalancing at all.  Only
  autoscaler joins and drains move ring points (and therefore keys).

Every node hosts a station for every route it might be asked to serve
(anything in its preference lists — for simplicity, all routes); a
route's *traffic* only reaches the nodes on its preference list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.node import ClusterNode
from repro.cluster.ring import ConsistentHashRing
from repro.gateway.cluster import PAPER_SERVICES
from repro.gateway.services import MicroService, ServiceTimeModel
from repro.gateway.simulation import Simulator

__all__ = ["ClusterTopology", "RouteSpec", "paper_route_specs"]


@dataclass(frozen=True)
class RouteSpec:
    """Declarative shape of one route's per-node station."""

    route: str
    #: payload kind -> median service seconds (lognormal around it).
    base_seconds: Dict[str, float] = field(
        default_factory=lambda: {"tabular": 0.01}
    )
    concurrency: int = 4
    queue_capacity: int = 1000
    jitter: float = 0.12

    def __post_init__(self) -> None:
        if not self.route:
            raise ValueError("route name must be non-empty")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")


def paper_route_specs(queue_capacity: int = 1000) -> List[RouteSpec]:
    """The Fig. 8(a) metric services as cluster route specs.

    Concurrency follows the paper hosts' vCPU counts (with the GPU
    impact service's wide batching override), scaled per *node* rather
    than per dedicated host — each cluster node is a uniform box hosting
    replicas of every metric service.
    """
    specs = []
    for route, (machine, base_seconds, override) in PAPER_SERVICES.items():
        specs.append(
            RouteSpec(
                route=route,
                base_seconds=dict(base_seconds),
                concurrency=override or machine.vcpus,
                queue_capacity=queue_capacity,
            )
        )
    return specs


class ClusterTopology:
    """Membership + placement for a simulated multi-node deployment.

    Parameters
    ----------
    sim:
        The shared discrete-event simulator every station schedules on.
    routes:
        Route specs; each node gets one station per route.
    n_nodes:
        Initial membership (``node-0`` … ``node-{n-1}``).
    replication:
        Preference-list length per route: 1 primary + (replication-1)
        failover replicas.
    vnodes:
        Virtual points per node on the ring.
    seed:
        Base seed; each (node, route) station derives an independent
        service-time stream from it, so runs are reproducible and no two
        stations share an RNG.
    """

    def __init__(
        self,
        sim: Simulator,
        routes: List[RouteSpec],
        n_nodes: int = 4,
        replication: int = 2,
        vnodes: int = 128,
        seed: int = 0,
        overhead_seconds: float = 0.002,
        hop_seconds: float = 0.0005,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if not routes:
            raise ValueError("topology needs at least one route")
        names = [spec.route for spec in routes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate route names in topology")
        self.sim = sim
        self.routes = list(routes)
        self.replication = replication
        self.seed = seed
        self.overhead_seconds = overhead_seconds
        self.hop_seconds = hop_seconds
        self.ring = ConsistentHashRing(vnodes=vnodes)
        self.nodes: Dict[str, ClusterNode] = {}
        #: Bumped on every membership change; the runner compares it to
        #: rebuild its cached route→service preference lists.
        self.membership_version = 0
        #: Routes whose primary changed on the last membership change —
        #: the "key movement" the ring minimises, surfaced for reports.
        self.last_rebalanced_routes: List[str] = []
        self._spawned = 0
        self._listener = None
        for _ in range(n_nodes):
            self.add_node()

    # -- membership ----------------------------------------------------------

    def set_listener(self, listener) -> None:
        """Register the runner: ``listener.membership_changed(node)`` runs
        after every join/drain so the data plane can rebind."""
        self._listener = listener

    def node_ids(self) -> List[str]:
        """Member node ids, sorted."""
        return sorted(self.nodes)

    def live_nodes(self) -> List[ClusterNode]:
        """Nodes currently accepting dispatch, sorted by id."""
        return [self.nodes[n] for n in self.node_ids() if self.nodes[n].serving]

    def add_node(self, node_id: Optional[str] = None) -> ClusterNode:
        """Join a new node: build its stations, add it to the ring."""
        if node_id is None:
            node_id = f"node-{self._spawned}"
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already in the topology")
        # seed by spawn ordinal, not current membership size: after churn
        # two live nodes must never share a service-time stream
        node_seed = self.seed + 104_729 * (self._spawned + 1)
        self._spawned += 1
        node = ClusterNode(node_id)
        for route_index, spec in enumerate(self.routes):
            model = ServiceTimeModel(
                spec.base_seconds,
                jitter=spec.jitter,
                seed=node_seed + 7_919 * (route_index + 1),
            )
            node.add_service(
                MicroService(
                    spec.route,
                    None,
                    model,
                    concurrency=spec.concurrency,
                    queue_capacity=spec.queue_capacity,
                )
            )
        before = self._primaries()
        self.nodes[node_id] = node
        self.ring.add_node(node_id)
        self._membership_changed(node, before)
        return node

    def remove_node(self, node_id: str) -> ClusterNode:
        """Drain a node out of membership: ring points withdrawn, no new
        dispatch; in-flight work on the node finishes normally."""
        node = self._require(node_id)
        before = self._primaries()
        node.drain()
        self.ring.remove_node(node_id)
        del self.nodes[node_id]
        self._membership_changed(node, before)
        return node

    def _membership_changed(
        self, node: ClusterNode, before: Dict[str, str]
    ) -> None:
        self.membership_version += 1
        after = self._primaries()
        self.last_rebalanced_routes = sorted(
            route for route, primary in after.items()
            if before.get(route) != primary
        )
        if self._listener is not None:
            self._listener.membership_changed(node)

    def _primaries(self) -> Dict[str, str]:
        if len(self.ring) == 0:
            return {}
        return {
            spec.route: self.ring.node_for(spec.route) for spec in self.routes
        }

    # -- placement -----------------------------------------------------------

    def replica_nodes(self, route: str) -> List[ClusterNode]:
        """The route's preference list (primary first) as node objects."""
        return [
            self.nodes[n] for n in self.ring.preference(route, self.replication)
        ]

    def route_spec(self, route: str) -> RouteSpec:
        for spec in self.routes:
            if spec.route == route:
                return spec
        raise KeyError(f"unknown route {route!r}")

    # -- fault surface (called by the runner's fault handler) ----------------

    def crash_node(self, node_id: str) -> List[int]:
        """Crash a node; returns the rows it was holding for failover."""
        return self._require(node_id).crash()

    def restart_node(self, node_id: str) -> None:
        self._require(node_id).restart()

    def partition_node(self, node_id: str) -> None:
        self._require(node_id).partition()

    def heal_node(self, node_id: str) -> None:
        self._require(node_id).heal()

    def degrade_node(self, node_id: str, factor: float) -> None:
        self._require(node_id).degrade(factor)

    def restore_node(self, node_id: str) -> None:
        self._require(node_id).degrade(1.0)

    def _require(self, node_id: str) -> ClusterNode:
        node = self.nodes.get(node_id)
        if node is None:
            raise KeyError(f"unknown node {node_id!r}")
        return node

    def __len__(self) -> int:
        return len(self.nodes)
