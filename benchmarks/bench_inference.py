"""Inference-engine speedups: flat tree eval + single-call batched SHAP.

This bench gates the vectorized inference engine's two contracts:

* the flat-array forest kernel must beat the recursive per-node walk by
  ``FOREST_SPEEDUP_FLOOR`` on a >=10k-row batch while staying *bitwise*
  equal to it, and
* a single Kernel SHAP explanation (256 coalitions, d=8, 100 background
  rows) must beat the seed pipeline — the per-coalition Python loop
  driving recursive tree predictions — by ``SHAP_SPEEDUP_FLOOR`` while
  agreeing to 1e-8.

A batch of 16 rows through ``shap_values_batch_exact`` must cost at most
1.15x a single explanation per row: the median, over seven rounds that
alternate which runs first, of each round's batch-per-row over single
time.

Another gate bounds Kernel SHAP's own cost on the serving fixture (RF,
10 trees of depth 6; 32 background rows; 64 coalitions):
``shap_values_batch_exact`` over 40 eight-row batches, timed once with
the real forest and once with a stand-in ``predict_fn`` that returns
precomputed outputs, alternating over 11 rounds.  The stand-in time over
the real time is the explainer's self share; its median must stay at or
under ``SHAP_SELF_SHARE_CEILING``.  Both timings come from one process,
so the ratio does not depend on host speed.

It also replays the Fig. 8 capacity experiment with the SHAP service
median rescaled by the measured speedup (via ``service_time_overrides``),
shows the ``xai.shap`` span's critical-path share shrinking inside a
traced explain request, and times the bitvector leaf kernel against the
level-synchronous traversal on the serving fixture's forest, the
use-case-2 boosted models and a forest with over 255 thresholds on one
feature (reported, not gated).  ``PYTHONPATH=src python -m
benchmarks.bench_inference``, run from the repository root, writes the
measured numbers to ``BENCH_inference.json`` as the committed baseline.
"""

import dataclasses
import json
import time
from functools import partial
from pathlib import Path

import numpy as np

from repro.datasets import generate_network_dataset
from repro.gateway import LoadGenerator, ThreadGroup, build_paper_deployment
from repro.ml import StandardScaler, lightgbm_like, train_test_split, xgboost_like
from repro.ml.forest import RandomForestClassifier
from repro.tracing import TraceCollector, Tracer, critical_path
from repro.xai.shap import KernelShapExplainer

from tests.ml.reference_trees import forest_predict_proba_recursive
from tests.xai.reference_shap import loop_shap_values

import pytest

#: Speedup floors (new engine vs the seed implementation).  Measured
#: values carry ~30%+ headroom so only a real regression trips them.
FOREST_SPEEDUP_FLOOR = 3.0
SHAP_SPEEDUP_FLOOR = 5.0

#: Ceiling on the median explainer self share (stand-in / real time) of
#: a served SHAP batch.  It sits between the ~0.09 measured with the
#: coalition design built once per explainer and the 0.29-0.32 of a design
#: rebuilt on every call, so per-call design work coming back trips it.
SHAP_SELF_SHARE_CEILING = 0.15
#: Batches per timing, rows per batch and alternating rounds of the
#: self-share measurement.
SELF_SHARE_BATCHES = 40
SELF_SHARE_BATCH_ROWS = 8
SELF_SHARE_ROUNDS = 11

#: Wall-clock budget for the whole measurement pass.  Dominated by the
#: deliberately slow "before" pipeline (a ~3 s recursive SHAP loop, run
#: twice); the budget is ~4x the observed total.
MEASUREMENT_BUDGET_S = 120.0

#: Paper-published SHAP tabular median (seconds) from the Fig. 8 cluster
#: config — the "before" service time the capacity replay rescales.
SHAP_TABULAR_MEDIAN_S = 0.0091

#: Row counts of the leaf-kernel timings: one request, a full micro-batch,
#: a small stack, one instance's Kernel SHAP stack (62 coalitions x 32
#: background rows) and a fused batch of eight instances.
LEAF_KERNEL_ROWS = (1, 8, 64, 1984, 15872)

_BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_inference.json"


def _best_of(fn, repeats):
    """Minimum wall-clock over ``repeats`` runs (after one warm-up)."""
    fn()
    best = np.inf
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _forest_case():
    """RF at the use-case-1 depth on a network-traffic-width matrix."""
    gen = np.random.default_rng(0)
    X = gen.normal(size=(8000, 24))
    y = gen.integers(0, 2, size=8000)
    model = RandomForestClassifier(n_estimators=40, max_depth=14, seed=0)
    model.fit(X, y)
    X_eval = gen.normal(size=(12000, 24))
    return model, X_eval


def _shap_case():
    """d=8 explanation task: enumeration mode at n_coalitions=256."""
    gen = np.random.default_rng(1)
    X = gen.normal(size=(600, 8))
    y = gen.integers(0, 2, size=600)
    model = RandomForestClassifier(n_estimators=40, max_depth=14, seed=0)
    model.fit(X, y)
    background = gen.normal(size=(100, 8))
    x = gen.normal(size=8)
    X_batch = gen.normal(size=(16, 8))
    return model, background, x, X_batch


def _serving_fixture():
    """``bench_serving.py``'s model and data: RF, 10 trees of depth 6."""
    gen = np.random.default_rng(7)
    X = gen.normal(size=(400, 6))
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(int)
    model = RandomForestClassifier(n_estimators=10, max_depth=6, seed=0)
    return model.fit(X, y), X


def _shap_self_share(results):
    """Kernel SHAP's own share of a served batch on the serving fixture.

    The stand-in ``predict_fn`` returns the forest's outputs, recorded
    once per call size, so it costs a dict lookup; what remains of its
    timing is the explainer's self time.  Rounds alternate which of the
    two runs first, and each round's share is stand-in over real time.
    """
    model, X = _serving_fixture()
    background = X[:32]
    batches = np.random.default_rng(9).normal(
        size=(SELF_SHARE_BATCHES, SELF_SHARE_BATCH_ROWS, X.shape[1])
    )
    canned = {}

    def record(Z):
        canned[len(Z)] = model.predict_proba(Z)
        return canned[len(Z)]

    KernelShapExplainer(
        record, background, n_coalitions=64, seed=0
    ).shap_values_batch_exact(batches[0])
    real = KernelShapExplainer(
        model.predict_proba, background, n_coalitions=64, seed=0
    )
    stand_in = KernelShapExplainer(
        lambda Z: canned[len(Z)], background, n_coalitions=64, seed=0
    )

    def timed(explainer):
        start = time.perf_counter()
        for batch in batches:
            explainer.shap_values_batch_exact(batch)
        return time.perf_counter() - start

    timed(real)  # warm-up
    timed(stand_in)
    shares, real_ms, stand_in_ms = [], [], []
    for round_ in range(SELF_SHARE_ROUNDS):
        if round_ % 2:
            stand_in_s, real_s = timed(stand_in), timed(real)
        else:
            real_s, stand_in_s = timed(real), timed(stand_in)
        shares.append(stand_in_s / real_s)
        real_ms.append(real_s / SELF_SHARE_BATCHES * 1000)
        stand_in_ms.append(stand_in_s / SELF_SHARE_BATCHES * 1000)
    results["shap_self_share"] = float(np.median(shares))
    results["shap_self_share_rounds"] = shares
    results["shap_batch_real_ms"] = float(np.median(real_ms))
    results["shap_batch_self_ms"] = float(np.median(stand_in_ms))


def _shap_batch_amortization(results, explainer, x, X_batch):
    """Per-row time of one ``shap_values_batch_exact`` call over the time
    of one ``shap_values`` call, on the 256-coalition SHAP case.

    Seven rounds alternate which of the two runs first; each round's
    ratio divides the batch's per-row time by the single time of the same
    round, so host drift hits both sides of every ratio.
    """
    n_rows = X_batch.shape[0]

    def timed(fn, arg):
        start = time.perf_counter()
        fn(arg)
        return time.perf_counter() - start

    explainer.shap_values_batch_exact(X_batch)  # warm-up
    ratios, per_row_ms = [], []
    for round_ in range(7):
        if round_ % 2:
            batch_s = timed(explainer.shap_values_batch_exact, X_batch)
            single_s = timed(explainer.shap_values, x)
        else:
            single_s = timed(explainer.shap_values, x)
            batch_s = timed(explainer.shap_values_batch_exact, X_batch)
        ratios.append(batch_s / n_rows / single_s)
        per_row_ms.append(batch_s / n_rows * 1000)
    results["shap_batch_rows"] = n_rows
    results["shap_batch_per_row_ms"] = float(np.median(per_row_ms))
    results["shap_batch_ratio"] = float(np.median(ratios))
    results["shap_batch_ratio_rounds"] = ratios


def _leaf_kernel_cases():
    """Forests the leaf kernel is selected for, with their feature counts.

    The serving fixture of ``bench_serving.py`` and the e2e benchmark (RF,
    10 trees of depth 6); the use-case-2 boosted models of
    ``benchmarks/conftest.py`` (90 trees each, ~19 used features); and a
    one-feature forest with over 255 thresholds, whose ranks are counted
    in uint16.
    """
    gen = np.random.default_rng(7)
    X = gen.normal(size=(400, 6))
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(int)
    yield "rf_fixture", RandomForestClassifier(
        n_estimators=10, max_depth=6, seed=0
    ).fit(X, y), 6
    dataset = generate_network_dataset(seed=0)
    X_train, __, y_train, __ = train_test_split(
        dataset.X, dataset.y, test_size=0.27, seed=0
    )
    X_train = StandardScaler().fit(X_train).transform(X_train)
    d = X_train.shape[1]
    yield "uc2_lightgbm", lightgbm_like(n_estimators=30, seed=0).fit(
        X_train, y_train
    ), d
    yield "uc2_xgboost", xgboost_like(n_estimators=30, seed=0).fit(
        X_train, y_train
    ), d
    X = gen.normal(size=(2000, 1))
    yield "rf_one_feature", RandomForestClassifier(
        n_estimators=12, max_depth=6, seed=0
    ).fit(X, gen.integers(0, 2, size=2000)), 1


def _leaf_kernel_timings(results):
    """Bitvector leaf kernel vs traversal per forest and row count.

    Both kernels run on the same compiled arena, alternating in rounds so
    host drift hits both; each figure is the best round.
    """
    gen = np.random.default_rng(8)
    cases = {}
    for name, model, d in _leaf_kernel_cases():
        forest = model.flat_forest_
        kernel = forest.bitvectors
        traversal = dataclasses.replace(forest, bitvectors=None)
        equal, bitvector_ms, traversal_ms = True, [], []
        for rows in LEAF_KERNEL_ROWS:
            X_rows = gen.normal(size=(rows, d))
            runs = [
                lambda f=f: f.accumulate(X_rows, np.zeros((rows, forest.width)))
                for f in (forest, traversal)
            ]
            equal = equal and np.array_equal(runs[0](), runs[1]())
            repeats = 40 if rows < 1000 else 3
            best = [np.inf, np.inf]
            for __ in range(5):
                for k, run in enumerate(runs):
                    best[k] = min(best[k], _best_of(run, repeats))
            bitvector_ms.append(best[0] * 1000)
            traversal_ms.append(best[1] * 1000)
        cases[name] = {
            "selected": kernel is not None,
            "trees": forest.n_trees,
            "used_features": len(kernel.masks),
            "max_thresholds": max(block.shape[1] for block in kernel.thresholds),
            "chunk_rows": kernel.chunk_rows,
            "bitwise_equal": bool(equal),
            "bitvector_ms": bitvector_ms,
            "traversal_ms": traversal_ms,
        }
    results["leaf_kernel_rows"] = list(LEAF_KERNEL_ROWS)
    results["leaf_kernel"] = cases


def measure_all():
    """Run every measurement once; returns the figures the asserts gate."""
    started = time.perf_counter()
    results = {}

    # -- flat vs recursive forest predict_proba on 12k rows ---------------
    forest, X_eval = _forest_case()
    flat_out = forest.predict_proba(X_eval)
    recursive_out = forest_predict_proba_recursive(forest, X_eval)
    results["forest_bitwise_equal"] = bool(np.array_equal(flat_out, recursive_out))
    flat_s = _best_of(lambda: forest.predict_proba(X_eval), repeats=5)
    recursive_s = _best_of(
        lambda: forest_predict_proba_recursive(forest, X_eval), repeats=3
    )
    results["forest_flat_ms"] = flat_s * 1000
    results["forest_recursive_ms"] = recursive_s * 1000
    results["forest_speedup"] = recursive_s / flat_s

    # -- single SHAP explanation: new engine vs the seed pipeline ---------
    model, background, x, X_batch = _shap_case()
    explainer = KernelShapExplainer(
        model.predict_proba, background, n_coalitions=256, seed=0
    )

    def old_pipeline():
        return loop_shap_values(
            partial(forest_predict_proba_recursive, model),
            background,
            x,
            n_coalitions=256,
            seed=0,
        )

    phi_new = explainer.shap_values(x)
    phi_old = old_pipeline()
    results["shap_max_abs_diff"] = float(np.abs(phi_new - phi_old).max())
    new_s = _best_of(lambda: explainer.shap_values(x), repeats=3)
    old_s = _best_of(old_pipeline, repeats=2)
    results["shap_new_ms"] = new_s * 1000
    results["shap_old_ms"] = old_s * 1000
    results["shap_speedup"] = old_s / new_s

    # -- batch amortization: shared design + stacked model evaluation ----
    _shap_batch_amortization(results, explainer, x, X_batch)

    # -- capacity replay: Fig. 8 with the rescaled SHAP service time ------
    before = _run_shap_route()
    after = _run_shap_route(
        service_time_overrides={
            "shap": {"tabular": SHAP_TABULAR_MEDIAN_S / results["shap_speedup"]}
        }
    )
    results["capacity_before_avg_ms"] = before.avg_response_ms
    results["capacity_after_avg_ms"] = after.avg_response_ms
    results["capacity_before_p95_ms"] = before.p95_response_ms
    results["capacity_after_p95_ms"] = after.p95_response_ms

    # -- critical-path share of xai.shap inside a traced request ----------
    results["shap_critical_share_before"] = _traced_share(
        lambda tracer, parent: _traced_old_shap(
            tracer, parent, model, background, x
        ),
        forest,
        X_eval,
    )
    results["shap_critical_share_after"] = _traced_share(
        lambda tracer, parent: explainer.shap_values(
            x, tracer=tracer, parent=parent
        ),
        forest,
        X_eval,
    )

    _shap_self_share(results)
    _leaf_kernel_timings(results)

    results["measurement_seconds"] = time.perf_counter() - started
    return results


def _run_shap_route(service_time_overrides=None):
    sim, gateway = build_paper_deployment(
        seed=1, service_time_overrides=service_time_overrides
    )
    generator = LoadGenerator(sim, gateway)
    generator.add_thread_group(
        ThreadGroup(
            route="shap",
            n_threads=100,
            rampup_seconds=1.0,
            iterations=30,
            payload="tabular",
        )
    )
    return generator.run()


def _traced_old_shap(tracer, parent, model, background, x):
    """The seed pipeline wrapped in the same span the new engine opens."""
    with tracer.span("xai.shap", parent=parent):
        loop_shap_values(
            partial(forest_predict_proba_recursive, model),
            background,
            x,
            n_coalitions=256,
            seed=0,
        )


def _traced_share(explain, forest, X_eval):
    """Critical-path fraction of ``xai.shap`` in a scored+explained request."""
    collector = TraceCollector()
    tracer = Tracer(time.perf_counter, collector=collector)
    with tracer.span("explain.request") as root:
        with tracer.span("pipeline.predict", parent=root):
            forest.predict_proba(X_eval)
        explain(tracer, root)
    tree = collector.traces()[-1]
    segments = critical_path(tree)
    total = sum(segment.seconds for segment in segments)
    shap_time = sum(
        segment.seconds
        for segment in segments
        if segment.span.name == "xai.shap"
    )
    return shap_time / total


@pytest.fixture(scope="module")
def measurements(figure_printer):
    results = measure_all()
    figure_printer(
        "inference engine: measured speedups",
        ["metric", "before", "after", "speedup"],
        [
            (
                "forest 12k rows",
                results["forest_recursive_ms"],
                results["forest_flat_ms"],
                results["forest_speedup"],
            ),
            (
                "shap single",
                results["shap_old_ms"],
                results["shap_new_ms"],
                results["shap_speedup"],
            ),
            (
                "shap batch/row",
                results["shap_old_ms"],
                results["shap_batch_per_row_ms"],
                results["shap_old_ms"] / results["shap_batch_per_row_ms"],
            ),
            (
                "capacity avg ms",
                results["capacity_before_avg_ms"],
                results["capacity_after_avg_ms"],
                results["capacity_before_avg_ms"]
                / results["capacity_after_avg_ms"],
            ),
            (
                "critical share",
                results["shap_critical_share_before"],
                results["shap_critical_share_after"],
                float("nan"),
            ),
        ]
        + [
            (f"{name} {rows}", before, after, before / after)
            for name, case in results["leaf_kernel"].items()
            for rows, before, after in zip(
                results["leaf_kernel_rows"],
                case["traversal_ms"],
                case["bitvector_ms"],
            )
        ],
    )
    figure_printer(
        "Kernel SHAP self share, serving fixture (8-row batches)",
        ["metric", "value"],
        [
            ("median share", results["shap_self_share"]),
            ("min share", min(results["shap_self_share_rounds"])),
            ("max share", max(results["shap_self_share_rounds"])),
            ("real ms", results["shap_batch_real_ms"]),
            ("self ms", results["shap_batch_self_ms"]),
        ],
    )
    return results


def bench_forest_flat_vs_recursive(check, measurements):
    """Flat kernel: bitwise-equal and >=3x on a 12k-row batch."""

    def verify():
        assert measurements["forest_bitwise_equal"]
        assert measurements["forest_speedup"] >= FOREST_SPEEDUP_FLOOR, (
            f"forest flat speedup {measurements['forest_speedup']:.2f}x "
            f"below the {FOREST_SPEEDUP_FLOOR}x floor"
        )

    check(verify)


def bench_shap_single_explanation_speedup(check, measurements):
    """One explanation: batched engine >=5x over the seed loop pipeline."""

    def verify():
        assert measurements["shap_max_abs_diff"] < 1e-8
        assert measurements["shap_speedup"] >= SHAP_SPEEDUP_FLOOR, (
            f"shap speedup {measurements['shap_speedup']:.2f}x below the "
            f"{SHAP_SPEEDUP_FLOOR}x floor"
        )

    check(verify)


def bench_shap_batch_amortizes(check, measurements):
    """Batch rows share the coalition design and the stacked model
    evaluation: per-row cost must not exceed the single-explanation cost
    (median over alternated rounds, small noise margin)."""

    def verify():
        ratio = measurements["shap_batch_ratio"]
        print(f"\nshap batch/row over single: median {ratio:.3f} (ceiling 1.15)")
        assert ratio <= 1.15, (
            f"batch per-row cost {ratio:.3f}x a single explanation, "
            "above the 1.15x ceiling"
        )

    check(verify)


def bench_shap_self_share_under_ceiling(check, measurements):
    """Explainer self time stays a small share of a served SHAP batch."""

    def verify():
        share = measurements["shap_self_share"]
        print(f"\nshap self share: median {share:.3f} (ceiling {SHAP_SELF_SHARE_CEILING})")
        assert share <= SHAP_SELF_SHARE_CEILING, (
            f"explainer self share {share:.3f} above the "
            f"{SHAP_SELF_SHARE_CEILING} ceiling"
        )

    check(verify)


def bench_capacity_improves_with_measured_speedup(check, measurements):
    """Fig. 8 replay: rescaled SHAP median lifts the 100-thread capacity."""

    def verify():
        assert (
            measurements["capacity_after_avg_ms"]
            < measurements["capacity_before_avg_ms"]
        )
        assert (
            measurements["capacity_after_p95_ms"]
            < measurements["capacity_before_p95_ms"]
        )

    check(verify)


def bench_shap_critical_path_share_shrinks(check, measurements):
    """Traced request: xai.shap stops dominating the critical path."""

    def verify():
        before = measurements["shap_critical_share_before"]
        after = measurements["shap_critical_share_after"]
        assert after < before

    check(verify)


def bench_measurement_under_budget(check, measurements):
    """Whole pass stays interactive (wall-clock-budget pattern)."""

    def verify():
        elapsed = measurements["measurement_seconds"]
        assert elapsed < MEASUREMENT_BUDGET_S, (
            f"inference measurements took {elapsed:.1f}s, "
            f"budget {MEASUREMENT_BUDGET_S}s"
        )

    check(verify)


def bench_matches_committed_baseline(check, measurements):
    """Committed BENCH_inference.json must still clear the same floors.

    The baseline records the machine the numbers were taken on; this
    check only asserts the *floors* (not the exact timings, which are
    machine-dependent) so the JSON cannot drift out of contract.
    """

    def verify():
        if not _BASELINE_PATH.exists():
            return
        baseline = json.loads(_BASELINE_PATH.read_text())
        assert baseline["forest_speedup"] >= FOREST_SPEEDUP_FLOOR
        assert baseline["shap_speedup"] >= SHAP_SPEEDUP_FLOOR
        assert baseline["forest_bitwise_equal"] is True
        assert baseline["shap_max_abs_diff"] < 1e-8
        assert baseline["shap_self_share"] <= SHAP_SELF_SHARE_CEILING

    check(verify)


if __name__ == "__main__":
    figures = measure_all()
    _BASELINE_PATH.write_text(json.dumps(figures, indent=2) + "\n")
    for key, value in figures.items():
        print(f"{key:32s} {value}")
