"""KernelPool: forked workers, ordered release, crash recovery, NullPool.

These tests fork real processes.  Batches stay small so each case runs
in well under a second; the ordering and crash contracts are what is
under test, not throughput (``benchmarks/bench_pool.py`` gates that).
"""

import numpy as np
import pytest

from repro.pool import (
    KIND_CODE_PREDICT,
    KernelPool,
    NullPool,
)
from repro.xai.shap import KernelShapExplainer

D = 4


def _predict(X):
    X = np.asarray(X, dtype=np.float64)
    return np.stack([X.sum(axis=1), (X * X).sum(axis=1)], axis=1)


@pytest.fixture(scope="module")
def explainer():
    rng = np.random.default_rng(0)
    return KernelShapExplainer(
        _predict, rng.normal(size=(16, D)), n_coalitions=16, seed=0
    )


@pytest.fixture()
def pool(explainer):
    p = KernelPool(_predict, explainer, workers=2, arena_mb=2.0)
    yield p
    p.close()


class TestDispatch:
    def test_predict_bitwise_equals_inline(self, pool):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, D))
        future = pool.submit_predict(X, now=0.0)
        assert not future.done
        [released] = pool.drain(now=1.0)
        assert released is future and future.done
        assert np.array_equal(future.result(), _predict(X))

    def test_explain_bitwise_equals_inline(self, pool, explainer):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(3, D))
        future = pool.submit_explain(X, now=0.0)
        pool.drain(now=1.0)
        assert np.array_equal(
            future.result(), explainer.shap_values_batch_exact(X)
        )

    def test_release_is_in_submission_order(self, pool):
        rng = np.random.default_rng(3)
        futures = [
            pool.submit_predict(rng.normal(size=(2, D)), now=0.0)
            for _ in range(6)
        ]
        released = pool.drain(now=1.0)
        assert [f.seq for f in released] == [f.seq for f in futures]
        assert [f.seq for f in released] == sorted(f.seq for f in released)

    def test_slot_backpressure_blocks_not_breaks(self, explainer):
        # 2 slots force submit to reap in-line once both are pinned
        pool = KernelPool(
            _predict, explainer, workers=1, arena_mb=1.0, slots=2
        )
        try:
            rng = np.random.default_rng(4)
            xs = [rng.normal(size=(3, D)) for _ in range(5)]
            futures = [pool.submit_predict(X, now=0.0) for X in xs]
            pool.drain(now=1.0)
            assert pool.slot_waits > 0
            for X, future in zip(xs, futures):
                assert np.array_equal(future.result(), _predict(X))
        finally:
            pool.close()

    def test_counters_track_dispatch(self, pool):
        rng = np.random.default_rng(5)
        pool.submit_predict(rng.normal(size=(4, D)), now=0.0)
        pool.submit_predict(rng.normal(size=(2, D)), now=0.0)
        pool.drain(now=1.0)
        counters = pool.counters()
        assert counters["dispatched"] == counters["completed"] == 2.0
        assert counters["rows"] == 6.0
        assert counters["mean_fan_out"] == 3.0
        assert counters["queue_depth"] == 0.0
        assert counters["bytes_pinned"] == 6 * D * 8

    def test_submit_validates(self, pool):
        with pytest.raises(ValueError):
            pool.submit_predict(np.zeros(D), now=0.0)
        # explain without explainer refused before any pinning
        with KernelPool(_predict, None, workers=1, arena_mb=1.0) as p:
            with pytest.raises(RuntimeError):
                p.submit_explain(np.zeros((2, D)), now=0.0)


class TestCrashRecovery:
    def test_crash_resubmits_and_loses_nothing(self, pool):
        rng = np.random.default_rng(6)
        xs = [rng.normal(size=(2, D)) for _ in range(4)]
        pool.inject_crash(worker_id=0)
        futures = [pool.submit_predict(X, now=0.0) for X in xs]
        released = pool.drain(now=1.0)
        assert len(released) == 4
        for X, future in zip(xs, futures):
            assert np.array_equal(future.result(), _predict(X))
        assert pool.crashes >= 1
        assert pool.restarts == pool.crashes
        assert pool.resubmitted >= 1
        # telemetry not double-counted: one dispatch per submit
        assert pool.dispatched == 4
        assert pool.completed == 4
        assert pool.rows_dispatched == 8

    def test_repeated_crashes_still_converge(self, explainer):
        pool = KernelPool(_predict, explainer, workers=2, arena_mb=2.0)
        try:
            rng = np.random.default_rng(7)
            xs = [rng.normal(size=(2, D)) for _ in range(6)]
            futures = []
            for i, X in enumerate(xs):
                if i % 2 == 0:
                    pool.inject_crash(worker_id=i % pool.workers)
                futures.append(pool.submit_predict(X, now=0.0))
            released = pool.drain(now=1.0)
            assert len(released) == 6
            for X, future in zip(xs, futures):
                assert np.array_equal(future.result(), _predict(X))
            assert pool.completed == 6
        finally:
            pool.close()


class TestLifecycle:
    def test_close_is_idempotent_and_final(self, explainer):
        pool = KernelPool(_predict, explainer, workers=1, arena_mb=1.0)
        pool.submit_predict(np.zeros((2, D)), now=0.0)
        pool.drain(now=0.0)
        pool.close()
        pool.close()  # second close is a no-op
        with pytest.raises(RuntimeError):
            pool.submit_predict(np.zeros((2, D)), now=0.0)

    def test_telemetry_event_shape(self, pool):
        pool.submit_predict(np.zeros((2, D)), now=0.0)
        pool.drain(now=0.5)
        [event] = pool.telemetry_events(now=0.5, route="shap")
        assert event.source == "pool:shap"
        assert event.kind == "pool"
        assert event.attrs["workers"] == 2.0
        assert event.attrs["dispatched"] == 1.0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            KernelPool(_predict, workers=0)
        with pytest.raises(ValueError):
            KernelPool(_predict, workers=1, arena_mb=0.0)


class TestNullPool:
    def test_resolves_at_submit_bitwise(self, explainer):
        pool = NullPool(_predict, explainer)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(3, D))
        future = pool.submit_predict(X, now=0.0)
        assert future.done
        assert np.array_equal(future.result(), _predict(X))
        phi = pool.submit_explain(X, now=0.0)
        assert np.array_equal(
            phi.result(), explainer.shap_values_batch_exact(X)
        )
        assert pool.poll(0.0) == [] and pool.drain(0.0) == []
        assert pool.counters()["dispatched"] == 2.0
        pool.close()

    def test_kernel_error_resolves_typed(self):
        def boom(X):
            raise ValueError("boom")

        pool = NullPool(boom)
        future = pool.submit_predict(np.ones((2, D)), now=0.5)
        # the text a pool worker sends back for the same fault
        assert future.done and future.error == "ValueError: boom"
        assert future.value is None and future.completed_at == 0.5
        with pytest.raises(RuntimeError, match="boom"):
            future.result()
        assert pool.counters()["completed"] == 1.0
        assert pool.idle_workers == 0

    def test_kind_codes_are_stable(self):
        # the arena header encodes these; renumbering breaks live slots
        assert KIND_CODE_PREDICT == 0
