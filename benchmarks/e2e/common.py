"""Shared plumbing: paths, the BENCHMARK.json declaration, statistics, errors."""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
#: Parent of each run's scratch directory (WAL segments).  A run reads
#: and writes only inside the checkout, so not the system temp dir; git
#: ignores it.
WORK_ROOT = ROOT / ".bench_tmp"

#: One BLAS thread per process, so a run's load is its own process and
#: ``peak_rss_mb`` / first-call costs belong to that run alone.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Each workload builds its system this many times; ``setup_s`` is the
#: median, so one slow fork or page-in does not move it.
SETUP_REPEATS = 9


class OracleError(RuntimeError):
    """A correctness check failed: the run reports no metrics."""


def load_contract() -> dict:
    """The benchmark declaration at the repository root."""
    return json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))


def metric_units(contract: dict, section: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in contract[section]}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def windowed(values: Sequence[float], size: int, q: float) -> float:
    """Median over windows of ``size`` consecutive values of each window's
    ``q``-th percentile; a trailing remainder joins the last window.

    A spell of slow host seconds moves a pooled percentile; it moves
    this median only once it covers half the windows.
    """
    n = max(1, len(values) // size)
    bounds = [i * size for i in range(n)] + [len(values)]
    return percentile([percentile(values[a:b], q) for a, b in zip(bounds, bounds[1:])], 50)


def quartiles(values: Sequence[float]) -> List[float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    import statistics

    if len(values) == 1:
        return [values[0]] * 3
    return list(statistics.quantiles(values, n=4))


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


@dataclass
class Measurement:
    """What one workload run produced, before it is formatted.

    ``e2e`` holds the end-to-end values (untraced runs), in
    reference-host time where they are compute (:mod:`.speed`), and
    ``raw`` the same values unscaled; ``layers`` holds the named
    per-layer values (traced runs, unscaled); ``info`` carries
    everything else worth keeping in a results file — phase lengths,
    rates, digests, lateness, the per-span table.
    """

    attempted: int
    failed: int
    e2e: Dict[str, float] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)


def work_dir() -> tempfile.TemporaryDirectory:
    """A private scratch directory under :data:`WORK_ROOT`, removed on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="run-", dir=WORK_ROOT)
