"""Tests for open-loop Poisson arrival processes."""

import numpy as np
import pytest

from repro.gateway.arrivals import PoissonArrivalGroup, arrival_chunks


class TestPoissonArrivalGroup:
    def test_valid(self):
        group = PoissonArrivalGroup("shap", rate_rps=100.0, n_requests=10)
        assert group.start_at == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_rps": 0.0, "n_requests": 10},
            {"rate_rps": -1.0, "n_requests": 10},
            {"rate_rps": 10.0, "n_requests": 0},
            {"rate_rps": 10.0, "n_requests": 5, "start_at": -1.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PoissonArrivalGroup("shap", **kwargs)


class TestArrivalChunks:
    def test_chunking_matches_single_cumsum(self):
        # same draws, same workload; only float summation order differs
        # (each chunk's cumsum starts from zero; the offset is added after)
        group = PoissonArrivalGroup(
            "shap", rate_rps=250.0, n_requests=10_000, start_at=3.0
        )
        chunked = np.concatenate(
            list(arrival_chunks(group, np.random.default_rng(42), 512))
        )
        whole = 3.0 + np.cumsum(
            np.random.default_rng(42).exponential(1.0 / 250.0, size=10_000)
        )
        assert np.allclose(chunked, whole, rtol=1e-12, atol=0.0)

    def test_fixed_seed_and_chunk_size_is_deterministic(self):
        group = PoissonArrivalGroup("shap", rate_rps=250.0, n_requests=5000)
        first = np.concatenate(
            list(arrival_chunks(group, np.random.default_rng(7), 512))
        )
        second = np.concatenate(
            list(arrival_chunks(group, np.random.default_rng(7), 512))
        )
        assert np.array_equal(first, second)

    def test_chunk_sizes_bounded(self):
        group = PoissonArrivalGroup("shap", rate_rps=10.0, n_requests=1000)
        sizes = [
            len(chunk)
            for chunk in arrival_chunks(group, np.random.default_rng(0), 128)
        ]
        assert sum(sizes) == 1000
        assert max(sizes) == 128
        assert sizes[-1] == 1000 % 128 or sizes[-1] == 128

    def test_times_strictly_increasing_across_chunks(self):
        group = PoissonArrivalGroup("shap", rate_rps=500.0, n_requests=5000)
        times = np.concatenate(
            list(arrival_chunks(group, np.random.default_rng(1), 700))
        )
        assert np.all(np.diff(times) > 0)

    def test_mean_rate_matches(self):
        group = PoissonArrivalGroup("shap", rate_rps=100.0, n_requests=50_000)
        times = np.concatenate(
            list(arrival_chunks(group, np.random.default_rng(2), 8192))
        )
        measured = len(times) / times[-1]
        assert measured == pytest.approx(100.0, rel=0.02)

    def test_invalid_chunk_size(self):
        group = PoissonArrivalGroup("shap", rate_rps=10.0, n_requests=10)
        with pytest.raises(ValueError):
            next(arrival_chunks(group, np.random.default_rng(0), 0))
