"""Deployment substrate: micro-services, API gateway and load generation.

The paper deploys SPATIAL's metric micro-services behind a Kong API gateway
on six machines and stresses them with JMeter (§VI-B).  That testbed is not
available offline, so this package provides a discrete-event simulation of
the same deployment: machines with vCPU counts, micro-services with
calibrated service-time models, a gateway with routing overhead, and a
closed-loop thread-group load generator producing the same summary metrics
JMeter reports (average response time, throughput, error rate).

For production-scale runs the package also provides a columnar pipeline
(:class:`~repro.gateway.records.RecordLog`,
:class:`~repro.gateway.capacity.CapacityRunner`): requests become row
indices in struct-of-arrays numpy columns, statistics stream through
quantile sketches and seeded reservoirs instead of retained samples, and
open-loop Poisson arrival groups express workloads closed-loop threads
cannot — millions of requests in seconds of wall-clock and bounded memory
(DESIGN.md §11).
"""

from repro.gateway.simulation import Simulator
from repro.gateway.services import (
    Machine,
    MicroService,
    Request,
    RequestRecord,
    ServiceTimeModel,
)
from repro.gateway.gateway import APIGateway, StationBoundError
from repro.gateway.admission import AdmittingGateway
from repro.gateway.autoscale import Autoscaler, AutoscalerPolicy, ScalingEvent
from repro.gateway.ratelimit import RateLimitRule, RateLimitedGateway
from repro.gateway.cluster import (
    PAPER_SERVICES,
    PAPER_STAGE_PROFILES,
    build_paper_deployment,
)
from repro.gateway.loadgen import LoadGenerator, SummaryReport, ThreadGroup
from repro.gateway.records import RecordLog
from repro.gateway.sketches import (
    ExemplarSlots,
    QuantileSketch,
    ReservoirSample,
    RouteStats,
    StreamingMoments,
)
from repro.gateway.arrivals import PoissonArrivalGroup, arrival_chunks
from repro.gateway.capacity import CapacityRunner

__all__ = [
    "APIGateway",
    "AdmittingGateway",
    "Autoscaler",
    "AutoscalerPolicy",
    "CapacityRunner",
    "ExemplarSlots",
    "LoadGenerator",
    "Machine",
    "MicroService",
    "PAPER_SERVICES",
    "PAPER_STAGE_PROFILES",
    "PoissonArrivalGroup",
    "QuantileSketch",
    "RateLimitRule",
    "RateLimitedGateway",
    "RecordLog",
    "Request",
    "RequestRecord",
    "ReservoirSample",
    "RouteStats",
    "ScalingEvent",
    "ServiceTimeModel",
    "Simulator",
    "StationBoundError",
    "StreamingMoments",
    "SummaryReport",
    "ThreadGroup",
    "arrival_chunks",
    "build_paper_deployment",
]
