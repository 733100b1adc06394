"""Station epoch guard on a cluster node + ClusterNode lifecycle."""

import pytest

from repro.cluster.node import (
    NODE_DOWN,
    NODE_DRAINING,
    NODE_UP,
    ClusterNode,
)
from repro.gateway.records import RecordLog
from repro.gateway.services import MicroService, ServiceTimeModel
from repro.gateway.simulation import Simulator


def _station(concurrency=2, queue_capacity=4, seed=7):
    sim = Simulator()
    log = RecordLog(initial_capacity=64)
    node = ClusterNode("node-0")
    service = MicroService(
        "shap",
        None,
        ServiceTimeModel({"tabular": 0.01}, seed=seed),
        concurrency=concurrency,
        queue_capacity=queue_capacity,
    )
    node.add_service(service)
    done = []
    service.use_columnar(log, sim, lambda svc, row, ok: done.append((row, ok)))
    return sim, log, service, done


def _submit(log, service, n, at=0.0):
    route = log.intern_route("shap")
    payload = log.intern_payload("tabular")
    rows = []
    for _ in range(n):
        row = log.append(route, payload, at)
        service.submit_row(row)
        rows.append(row)
    return rows


def test_completions_drain_queue_and_hit_sink():
    sim, log, service, done = _station(concurrency=2, queue_capacity=4)
    rows = _submit(log, service, 5)
    assert service.busy_workers == 2
    assert service.queue_length == 3
    sim.run()
    assert sorted(row for row, ok in done) == sorted(rows)
    assert all(ok for _, ok in done)
    assert service.completed_rows == 5
    assert service.busy_workers == 0
    assert all(log.v_end[row] == 0.0 for row in rows)  # sink owns the end stamp
    # queued rows only got their start stamp when a worker freed up
    assert all(log.v_start[row] > 0.0 for row in rows[2:])


def test_queue_overflow_is_a_typed_rejection_not_a_drop():
    sim, log, service, done = _station(concurrency=1, queue_capacity=1)
    rows = _submit(log, service, 3)
    overflow = rows[2]
    # the third row was typed-failed synchronously
    assert service.rejected == 1
    assert (overflow, False) in done
    assert not log.v_ok[overflow]
    code = int(log.v_error_codes[overflow])
    assert "queue full at node-0/shap (503)" == log.error_message(code)
    sim.run()
    assert service.completed_rows == 2


def test_epoch_guard_drops_stale_completions():
    sim, log, service, done = _station(concurrency=2)
    rows = _submit(log, service, 2)
    assert service.inflight_rows == 2
    lost = service.crash()
    assert sorted(lost) == sorted(rows)
    assert service.epoch == 1
    assert service.inflight_rows == 0
    assert service.busy_workers == 0
    # the pre-crash completion events are still on the heap; they must
    # arrive stale and never reach the sink
    sim.run()
    assert done == []
    assert service.stale_completions == 2
    assert service.completed_rows == 0


def test_crash_returns_queued_rows_too():
    sim, log, service, done = _station(concurrency=1, queue_capacity=8)
    rows = _submit(log, service, 5)
    lost = service.crash()
    assert sorted(lost) == sorted(rows)  # 1 in flight + 4 queued
    sim.run()
    assert service.stale_completions == 1
    assert done == []


def test_resubmission_after_crash_completes_on_the_new_epoch():
    sim, log, service, done = _station(concurrency=1)
    (row,) = _submit(log, service, 1)
    service.crash()
    service.submit_row(row)  # failover back onto the restarted station
    sim.run()
    assert done == [(row, True)]
    assert service.stale_completions == 1
    assert service.completed_rows == 1


def test_slow_factor_scales_service_times():
    sim_a, log_a, svc_a, _ = _station(seed=3)
    sim_b, log_b, svc_b, _ = _station(seed=3)
    svc_b.set_slow(4.0)
    _submit(log_a, svc_a, 1)
    _submit(log_b, svc_b, 1)
    sim_a.run()
    sim_b.run()
    assert sim_b.now == pytest.approx(4.0 * sim_a.now)
    with pytest.raises(ValueError):
        svc_b.set_slow(0.0)


def test_station_validation():
    node = ClusterNode("node-0")
    model = ServiceTimeModel({"tabular": 0.01}, seed=0)
    with pytest.raises(ValueError):
        MicroService("shap", None, model, concurrency=0)
    with pytest.raises(ValueError):
        MicroService("shap", None, model, concurrency=1, queue_capacity=-1)
    node.add_service(MicroService("shap", None, model, concurrency=1))
    with pytest.raises(ValueError):
        node.add_service(MicroService("shap", None, model, concurrency=1))


# -- ClusterNode state machine ------------------------------------------------


def test_crash_restart_cycle():
    node = ClusterNode("node-1")
    assert (node.state, node.serving) == (NODE_UP, True)
    node.crash()
    assert (node.state, node.serving) == (NODE_DOWN, False)
    with pytest.raises(RuntimeError):
        node.crash()
    node.restart()
    assert (node.state, node.serving) == (NODE_UP, True)
    with pytest.raises(RuntimeError):
        node.restart()
    assert (node.crashes, node.restarts) == (1, 1)


def test_partition_and_heal_toggle_reachability():
    node = ClusterNode("node-1")
    node.partition()
    assert node.state == NODE_UP  # still computing, just unreachable
    assert not node.reachable and not node.serving
    with pytest.raises(RuntimeError):
        node.partition()
    node.heal()
    assert node.reachable and node.serving
    with pytest.raises(RuntimeError):
        node.heal()


def test_partitioned_node_that_crashes_stays_unreachable_after_restart():
    node = ClusterNode("node-1")
    node.partition()
    node.crash()
    node.restart()
    assert node.state == NODE_UP
    assert not node.serving  # reachability survives the restart
    node.heal()
    assert node.serving


def test_drain_blocks_new_dispatch_only():
    node = ClusterNode("node-1")
    node.drain()
    assert (node.state, node.serving) == (NODE_DRAINING, False)
    with pytest.raises(RuntimeError):
        node.drain()
