"""Fig. 6(a)-iv: SHAP-dissimilarity of similar instances vs poison rate.

The paper explains the procedure: for each fall instance in the clean test
set take its five Euclidean nearest neighbours, average the distance of
their SHAP explanations, then average across instances.  The metric must be
*higher at higher poisoning rates*, "suggesting its capability of indicating
poisoning of the data set".
"""

import pytest

from repro.attacks import RandomLabelFlippingAttack
from repro.ml import MLPClassifier
from repro.xai import KernelShapExplainer, knn_explanation_dissimilarity

RATES = (0.0, 0.05, 0.10, 0.20, 0.30, 0.50)
N_FALL_INSTANCES = 20


def _dnn_factory():
    # a compact DNN keeps 6 retrain+explain cycles inside the bench budget
    return MLPClassifier(
        hidden_layers=(64, 32), n_epochs=25, learning_rate=0.01, seed=0
    )


@pytest.fixture(scope="module")
def dissimilarity_series(uc1_split, figure_printer):
    X_train, X_test, y_train, y_test = uc1_split
    falls = X_test[y_test == 1][:N_FALL_INSTANCES]
    series = {}
    for rate in RATES:
        poisoned = RandomLabelFlippingAttack(rate=rate, seed=0).apply(
            X_train, y_train
        )
        model = _dnn_factory().fit(poisoned.X, poisoned.y)
        explainer = KernelShapExplainer(
            model.predict_proba, X_train[:30], n_coalitions=48, seed=0
        )
        explanations = explainer.shap_values_batch_exact(falls, class_index=1)
        series[rate] = knn_explanation_dissimilarity(falls, explanations, k=5)
    figure_printer(
        "Fig. 6(a)-iv: SHAP dissimilarity of 5-NN fall explanations",
        ["p", "dissimilarity"],
        [(f"{r:.0%}", v) for r, v in series.items()],
    )
    return series


def bench_fig6iv_metric_rises_with_poisoning(check, dissimilarity_series):
    """The detector signal: heavy poisoning well above the clean level."""

    def verify():
        assert dissimilarity_series[0.50] > dissimilarity_series[0.0]
        assert dissimilarity_series[0.30] > dissimilarity_series[0.0]

    check(verify)


def bench_fig6iv_trend_is_broadly_increasing(check, dissimilarity_series):
    """Rank correlation between rate and metric must be strongly positive."""

    def verify():
        rates = list(dissimilarity_series)
        values = [dissimilarity_series[r] for r in rates]
        # concordant-pair fraction (Kendall-style) must lean increasing
        increasing_pairs = sum(
            1
            for i in range(len(values))
            for j in range(i + 1, len(values))
            if values[j] > values[i]
        )
        total_pairs = len(values) * (len(values) - 1) // 2
        assert increasing_pairs / total_pairs > 0.6

    check(verify)


def bench_fig6iv_explanation_cost(benchmark, uc1_split):
    """Cost of one SHAP explanation batch — the sensor's polling cost."""
    X_train, X_test, y_train, y_test = uc1_split
    model = _dnn_factory().fit(X_train[:1000], y_train[:1000])
    explainer = KernelShapExplainer(
        model.predict_proba, X_train[:20], n_coalitions=32, seed=0
    )
    falls = X_test[y_test == 1][:5]
    benchmark(lambda: explainer.shap_values_batch_exact(falls, class_index=1))
