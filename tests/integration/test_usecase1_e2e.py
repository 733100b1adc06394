"""End-to-end test of use case 1: the medical e-calling application.

Covers the full SPATIAL loop on (small) synthetic UniMiB data: train →
instrument sensors → poison → detect via dashboard alert → sanitise labels →
recover.
"""

import numpy as np
import pytest

from repro.attacks import RandomLabelFlippingAttack
from repro.core import (
    AIDashboard,
    AlertRule,
    ContinuousMonitor,
    LabelSanitizationAction,
    ModelContext,
    PerformanceSensor,
    SensorRegistry,
)
from repro.ml import RandomForestClassifier, StandardScaler
from repro.ml.pipeline import AIPipeline
from repro.xai import KernelShapExplainer, knn_explanation_dissimilarity


@pytest.fixture(scope="module")
def poisonable_pipeline(unimib_small):
    from repro.datasets import to_binary_fall_task

    X, y = to_binary_fall_task(unimib_small)
    X = StandardScaler().fit_transform(X)
    state = {"attack_rate": 0.0}

    def labeler(X_, y_):
        if state["attack_rate"] == 0.0:
            return y_
        return RandomLabelFlippingAttack(
            rate=state["attack_rate"], seed=0
        ).apply(X_, y_).y

    pipeline = AIPipeline(
        data_provider=lambda: (X, y),
        model_factory=lambda: RandomForestClassifier(
            n_estimators=10, max_depth=10, seed=0
        ),
        labeler=labeler,
        seed=0,
        deduplicate=False,
    )
    return pipeline, state


class TestUseCase1EndToEnd:
    def test_full_monitoring_and_recovery_loop(self, poisonable_pipeline):
        pipeline, state = poisonable_pipeline

        registry = SensorRegistry()
        registry.register(PerformanceSensor(clock=lambda: 0.0))
        dashboard = AIDashboard()
        dashboard.add_rule(
            AlertRule(
                sensor="performance",
                threshold=0.85,
                message="fall-detection accuracy degraded",
            )
        )
        monitor = ContinuousMonitor(
            registry,
            dashboard,
            lambda: ModelContext(
                model=pipeline.context.model,
                X_train=pipeline.context.X_train,
                y_train=pipeline.context.y_train,
                X_test=pipeline.context.X_test,
                y_test=pipeline.context.y_test,
                model_version=pipeline.context.model_version,
            ),
        )

        # 1. clean pipeline: healthy accuracy, no alerts
        pipeline.run()
        monitor.on_model_update()
        clean_acc = dashboard.latest("performance").value
        assert clean_acc > 0.85
        assert dashboard.alerts() == []

        # 2. attacker poisons the labels heavily; retraining degrades the
        #    model and the dashboard raises an alert
        state["attack_rate"] = 0.45
        pipeline.run()
        monitor.on_model_update()
        poisoned_acc = dashboard.latest("performance").value
        assert poisoned_acc < clean_acc
        assert len(dashboard.alerts()) >= 1

        # 3. operator reacts with label sanitisation; accuracy recovers
        LabelSanitizationAction(k=7, threshold=0.7).apply(pipeline)
        monitor.on_model_update()
        recovered_acc = dashboard.latest("performance").value
        assert recovered_acc > poisoned_acc

    def test_shap_dissimilarity_rises_with_poisoning(self, unimib_small):
        """Small-scale Fig. 6(a)-iv: the explanation-drift metric grows
        between 0% and heavy poisoning."""
        from repro.datasets import to_binary_fall_task
        from repro.ml import MLPClassifier, train_test_split

        X, y = to_binary_fall_task(unimib_small)
        X = StandardScaler().fit_transform(X)
        X_train, X_test, y_train, y_test = train_test_split(
            X, y, test_size=0.3, seed=0
        )
        falls = X_test[y_test == 1][:12]

        def dissimilarity(rate):
            if rate > 0:
                res = RandomLabelFlippingAttack(rate=rate, seed=0).apply(
                    X_train, y_train
                )
                Xt, yt = res.X, res.y
            else:
                Xt, yt = X_train, y_train
            model = MLPClassifier(
                hidden_layers=(32,), n_epochs=25, learning_rate=0.01, seed=0
            ).fit(Xt, yt)
            explainer = KernelShapExplainer(
                model.predict_proba, X_train[:25], n_coalitions=32, seed=0
            )
            explanations = explainer.shap_values_batch_exact(falls, class_index=1)
            return knn_explanation_dissimilarity(falls, explanations, k=5)

        assert dissimilarity(0.5) > dissimilarity(0.0)
