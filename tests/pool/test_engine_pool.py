"""ServingEngine(pool=…): pooled flushes, digest reuse, shutdown snapshot."""

import numpy as np
import pytest

from repro.pool import KernelPool, NullPool
from repro.serving import ServingEngine, ServingPolicy
from repro.tracing import TraceCollector, Tracer
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


#: A row whose first feature is MARK makes ``_touchy_predict`` raise.
MARK = 99.0


def _touchy_predict(X):
    X = np.asarray(X, dtype=np.float64)
    if (X[:, 0] == MARK).any():
        raise ValueError("boom")
    return _predict(X)


def _policy(**overrides):
    defaults = dict(max_batch=4, batch_window=0.010)
    defaults.update(overrides)
    return ServingPolicy(**defaults)


class TestPooledBitwiseEquality:
    def test_predict_matches_inline_engine(self, explainer):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(10, D))
        inline = ServingEngine(_predict, explainer, _policy())
        with KernelPool(_predict, explainer, workers=2, arena_mb=2.0) as p:
            pooled = ServingEngine(_predict, explainer, _policy(), pool=p)
            inline_reqs = [inline.submit_predict(x, now=0.0) for x in xs]
            pooled_reqs = [pooled.submit_predict(x, now=0.0) for x in xs]
            inline.drain(now=0.1)
            pooled.drain(now=0.1)
            for a, b in zip(inline_reqs, pooled_reqs):
                assert np.array_equal(a.result(), b.result())
            assert pooled.batches == inline.batches
            assert pooled.rows_batched == inline.rows_batched == 10

    def test_explain_matches_inline_engine(self, explainer):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(6, D))
        inline = ServingEngine(_predict, explainer, _policy(cache_size=0))
        with KernelPool(_predict, explainer, workers=2, arena_mb=2.0) as p:
            pooled = ServingEngine(
                _predict, explainer, _policy(cache_size=0), pool=p
            )
            a_reqs = [inline.submit_explain(x, now=0.0) for x in xs]
            b_reqs = [pooled.submit_explain(x, now=0.0) for x in xs]
            inline.drain(now=0.1)
            pooled.drain(now=0.1)
            for a, b in zip(a_reqs, b_reqs):
                assert np.array_equal(a.result(), b.result())

    def test_duplicate_rows_dedup_through_arena(self, explainer):
        x = np.array([0.5, -1.0, 2.0, 0.25])
        with KernelPool(_predict, explainer, workers=1, arena_mb=2.0) as p:
            engine = ServingEngine(
                _predict, explainer, _policy(max_batch=3), pool=p
            )
            reqs = [engine.submit_explain(x, now=0.0) for _ in range(3)]
            engine.drain(now=0.1)
            values = [r.result() for r in reqs]
            assert np.array_equal(values[0], values[1])
            assert np.array_equal(values[0], values[2])
            # only the unique row crossed the boundary
            assert p.rows_dispatched == 1

    def test_nullpool_matches_inline_engine(self, explainer):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(8, D))
        inline = ServingEngine(_predict, explainer, _policy())
        pooled = ServingEngine(
            _predict, explainer, _policy(), pool=NullPool(_predict, explainer)
        )
        a_reqs = [inline.submit_predict(x, now=0.0) for x in xs]
        b_reqs = [pooled.submit_predict(x, now=0.0) for x in xs]
        inline.drain(now=0.1)
        pooled.drain(now=0.1)
        for a, b in zip(a_reqs, b_reqs):
            assert np.array_equal(a.result(), b.result())
        assert pooled.counters()["pool_inflight"] == 0.0

    def test_cache_populated_from_pooled_batches(self, explainer):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        with KernelPool(_predict, explainer, workers=1, arena_mb=2.0) as p:
            engine = ServingEngine(
                _predict, explainer, _policy(cache_size=8), pool=p
            )
            first = engine.submit_explain(x, now=0.0)
            engine.drain(now=0.1)
            second = engine.submit_explain(x, now=0.2)
            assert second.done and second.cache_hit
            assert np.array_equal(first.result(), second.result())


class TestServedExplanationsReadOnly:
    """Co-batched duplicates, the cache and later hits share one array."""

    @pytest.mark.parametrize("pool_kind", ["inline", "nullpool", "kernelpool"])
    def test_in_place_write_raises_and_changes_nothing(self, explainer, pool_kind):
        x = np.array([0.5, -1.0, 2.0, 0.25])
        expected = explainer.shap_values(x)
        pool = {
            "inline": lambda: None,
            "nullpool": lambda: NullPool(_predict, explainer),
            "kernelpool": lambda: KernelPool(
                _predict, explainer, workers=1, arena_mb=2.0
            ),
        }[pool_kind]()
        try:
            engine = ServingEngine(
                _predict, explainer, _policy(max_batch=2, cache_size=8), pool=pool
            )
            first = engine.submit_explain(x, now=0.0)
            twin = engine.submit_explain(x, now=0.0)  # co-batched duplicate
            engine.drain(now=0.1)
            with pytest.raises(ValueError):
                first.value *= 0
            hit = engine.submit_explain(x, now=0.2)
            assert hit.cache_hit
            for request in (first, twin, hit):
                assert np.array_equal(request.result(), expected)
        finally:
            if pool is not None:
                pool.close()


class TestKernelFailures:
    """A raising kernel fails its own batch, typed and counted, whichever
    pool runs it; the engine's other batches are still served."""

    @pytest.mark.parametrize("kind", ["predict", "explain"])
    @pytest.mark.parametrize("pool_kind", ["inline", "nullpool", "kernelpool"])
    def test_failing_batch_is_typed_and_counted(self, pool_kind, kind):
        rng = np.random.default_rng(9)
        # the explainer evaluates _touchy_predict on coalitions that
        # carry the instance's first feature, so a marked row raises
        # from inside the SHAP kernel too
        explainer = KernelShapExplainer(
            _touchy_predict, rng.normal(size=(16, D)), n_coalitions=16, seed=0
        )
        pool = {
            "inline": lambda: None,
            "nullpool": lambda: NullPool(_touchy_predict, explainer),
            "kernelpool": lambda: KernelPool(
                _touchy_predict, explainer, workers=1, arena_mb=2.0
            ),
        }[pool_kind]()
        try:
            engine = ServingEngine(
                _touchy_predict, explainer, _policy(max_batch=2), pool=pool
            )
            submit = (
                engine.submit_explain if kind == "explain" else engine.submit_predict
            )
            xs = rng.normal(size=(6, D))
            xs[3, 0] = MARK  # the second of three size-2 batches
            requests = [submit(x, now=0.0) for x in xs]
            engine.drain(now=0.1)
            assert all(request.done for request in requests)
            failed = "ValueError: boom"
            assert [request.error for request in requests] == [
                None, None, failed, failed, None, None,
            ]
            for i in (0, 1, 4, 5):
                expected = (
                    explainer.shap_values(xs[i])
                    if kind == "explain"
                    else _predict(xs[i][None])[0]
                )
                assert np.array_equal(requests[i].result(), expected)
            counters = engine.counters()
            assert counters["failed_rows"] == 2.0
            assert counters["batches"] == 2.0
            assert counters["rows_batched"] == 4.0
        finally:
            if pool is not None:
                pool.close()


class TestEventLoopOverlap:
    def test_submit_keeps_admitting_while_pool_runs(self, explainer):
        with KernelPool(_predict, explainer, workers=2, arena_mb=2.0) as p:
            engine = ServingEngine(
                _predict, explainer, _policy(max_batch=2), pool=p
            )
            rng = np.random.default_rng(4)
            reqs = [
                engine.submit_predict(x, now=0.0)
                for x in rng.normal(size=(8, D))
            ]
            # four batches dispatched without blocking the loop: none
            # had to be resolved to admit the next
            assert engine.counters()["pool_inflight"] > 0.0
            engine.drain(now=0.1)
            assert all(r.done for r in reqs)
            assert engine.counters()["pool_inflight"] == 0.0

    def test_poll_resolves_in_submission_order(self, explainer):
        with KernelPool(_predict, explainer, workers=2, arena_mb=2.0) as p:
            engine = ServingEngine(
                _predict, explainer, _policy(max_batch=2), pool=p
            )
            rng = np.random.default_rng(5)
            reqs = [
                engine.submit_predict(x, now=0.0)
                for x in rng.normal(size=(6, D))
            ]
            resolved = 0
            deadline = 200  # ~10s of 50ms probes; far beyond need
            for _ in range(deadline):
                resolved += engine.poll(now=0.05)
                if resolved == 6:
                    break
                p._reap(block=True)  # let workers finish between polls
            assert resolved == 6
            done_times = [r.completed_at for r in reqs]
            assert done_times == sorted(done_times)

    def test_pooled_batches_get_retroactive_spans(self, explainer):
        collector = TraceCollector()
        tracer = Tracer(clock=lambda: 0.0, collector=collector, seed=0)
        with KernelPool(_predict, explainer, workers=1, arena_mb=2.0) as p:
            engine = ServingEngine(
                _predict,
                explainer,
                _policy(max_batch=2),
                tracer=tracer,
                pool=p,
            )
            rng = np.random.default_rng(6)
            for x in rng.normal(size=(4, D)):
                engine.submit_predict(x, now=0.0)
            engine.drain(now=0.1)
        traces = collector.traces()
        batch_spans = [
            span
            for tree in traces
            for span in tree.spans
            if span.name == "serving.batch"
        ]
        assert len(batch_spans) == 2
        for span in batch_spans:
            assert span.attributes["pooled"] == 1


class TestDigestComputedOnce:
    def test_submit_hashes_payload_exactly_once(self, explainer, monkeypatch):
        import repro.serving.engine as engine_module

        calls = {"n": 0}
        real = engine_module.digest_features

        def counting(x):
            calls["n"] += 1
            return real(x)

        monkeypatch.setattr(engine_module, "digest_features", counting)
        engine = ServingEngine(
            _predict, explainer, _policy(max_batch=2, cache_size=8)
        )
        x = np.array([1.0, 2.0, 3.0, 4.0])
        engine.submit_explain(x, now=0.0)
        engine.submit_explain(x, now=0.0)  # flush by size: dedup + cache put
        assert calls["n"] == 2  # one hash per submit, zero re-hashes
        hit = engine.submit_explain(x, now=0.1)
        assert hit.cache_hit
        assert calls["n"] == 3  # the cache-hit lookup reused its digest too

    def test_digest_carried_on_request(self, explainer):
        engine = ServingEngine(_predict, explainer, _policy())
        request = engine.submit_explain(np.ones(D), now=0.0)
        assert isinstance(request.digest, bytes)
        predict_request = engine.submit_predict(np.ones(D), now=0.0)
        assert predict_request.digest is None  # predictions never hash


class TestShutdownSnapshot:
    def test_final_snapshot_frozen_and_engine_sealed(self, explainer):
        with KernelPool(_predict, explainer, workers=1, arena_mb=2.0) as p:
            engine = ServingEngine(
                _predict, explainer, _policy(cache_size=8), pool=p
            )
            rng = np.random.default_rng(7)
            for x in rng.normal(size=(5, D)):
                engine.submit_explain(x, now=0.0)
            snapshot = engine.shutdown(now=1.0, route="shap")
        assert snapshot is engine.final_snapshot
        sources = {event.source for event in snapshot}
        assert "serving:shap" in sources
        assert "cache:shap" in sources
        assert "pool:shap" in sources
        batcher = next(
            e for e in snapshot if e.source == "serving:shap"
        )
        assert batcher.attrs["rows"] == 5.0
        assert batcher.attrs["pending"] == 0.0  # drained before freezing
        with pytest.raises(RuntimeError):
            engine.submit_predict(np.ones(D), now=2.0)

    def test_shutdown_drains_pending_work_first(self, explainer):
        engine = ServingEngine(
            _predict, explainer, _policy(max_batch=64, batch_window=5.0)
        )
        request = engine.submit_predict(np.ones(D), now=0.0)
        assert not request.done  # parked behind the long window
        engine.shutdown(now=1.0)
        assert request.done  # drained, not dropped

    def test_shutdown_is_idempotent(self, explainer):
        engine = ServingEngine(_predict, explainer, _policy())
        first = engine.shutdown(now=1.0)
        second = engine.shutdown(now=2.0)
        # the frozen snapshot is returned again, not re-measured at t=2
        assert [e.timestamp for e in second] == [1.0] * len(first)
        assert [(e.source, e.value) for e in second] == [
            (e.source, e.value) for e in first
        ]

    def test_shutdown_closes_pool(self, explainer):
        pool = KernelPool(_predict, explainer, workers=1, arena_mb=2.0)
        engine = ServingEngine(_predict, explainer, _policy(), pool=pool)
        engine.submit_predict(np.ones(D), now=0.0)
        engine.shutdown(now=1.0)
        with pytest.raises(RuntimeError):
            pool.submit_predict(np.ones((2, D)), now=2.0)
