"""Sharded multi-node deployment: ring placement, failover, fault plans.

The paper's §V scaling story ("augment dynamically the capacity of each
individual metric") needs more than one simulated gateway node; this
package is the cluster above :mod:`repro.gateway`'s single-node engine:

* :class:`ConsistentHashRing` — virtual-node consistent hashing; routes
  land on ``replication`` nodes with minimal movement on join/leave.
* :class:`ClusterTopology` — membership + placement control plane over
  :class:`ClusterNode`\\ s, whose epoch-guarded stations can crash with
  work in flight without corrupting the shared columnar log.
* :class:`FaultPlan` — declarative crash/restart, partition/heal and
  slow-node schedules replayed onto the shared event heap.
* :class:`ClusterRunner` — the data plane: columnar million-request
  workloads with replica failover, typed (never silent) failures,
  per-node stats sharding and retroactively materialised cross-node
  traces.
* :class:`ClusterAutoscaler` — rollup-pressure controller that joins or
  drains nodes through the telemetry pipeline.

Everything runs on the *single* discrete-event heap and the *single*
:class:`~repro.gateway.records.RecordLog` of DESIGN.md §11, so an
8-node, million-request run with an active fault plan keeps bounded
memory in ring mode.  DESIGN.md §12 documents the architecture;
``python -m repro cluster`` drives it from the command line.
"""

from repro.cluster.autoscale import (
    AutoscalePolicy,
    ClusterAutoscaler,
    ScalingDecision,
)
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
from repro.cluster.node import NODE_DOWN, NODE_DRAINING, NODE_UP, ClusterNode
from repro.cluster.ring import ConsistentHashRing, stable_hash64
from repro.cluster.runner import ClusterRunner, node_source
from repro.cluster.topology import (
    ClusterTopology,
    RouteSpec,
    paper_route_specs,
)

__all__ = [
    "AutoscalePolicy",
    "ClusterAutoscaler",
    "ClusterNode",
    "ClusterRunner",
    "ClusterTopology",
    "ConsistentHashRing",
    "FAULT_CRASH",
    "FAULT_HEAL",
    "FAULT_PARTITION",
    "FAULT_POOL_CRASH",
    "FAULT_RESTART",
    "FAULT_RESTORE",
    "FAULT_SLOW",
    "FaultEvent",
    "FaultPlan",
    "NODE_DOWN",
    "NODE_DRAINING",
    "NODE_UP",
    "RouteSpec",
    "ScalingDecision",
    "node_source",
    "paper_route_specs",
    "stable_hash64",
]
