"""Tests for the AI sensors."""

import numpy as np
import pytest

from repro.core import sensors
from repro.core.sensors import (
    DataQualitySensor,
    ExplanationDriftSensor,
    ExplanationSensor,
    FairnessSensor,
    LimeExplanationSensor,
    ModelContext,
    PerformanceSensor,
    PrivacySensor,
    ResilienceSensor,
)
from repro.ml import RandomForestClassifier
from repro.trust.properties import TrustProperty
from repro.trust.resilience import ResilienceReport


@pytest.fixture()
def context(trained_mlp, blobs):
    X, y = blobs
    gen = np.random.default_rng(0)
    return ModelContext(
        model=trained_mlp,
        X_train=X[:200],
        y_train=y[:200],
        X_test=X[200:],
        y_test=y[200:],
        sensitive=gen.integers(0, 2, size=len(y[200:])),
        model_version=3,
    )


class TestPerformanceSensor:
    def test_reading_fields(self, context):
        reading = PerformanceSensor(clock=lambda: 42.0).measure(context)
        assert reading.sensor == "performance"
        assert reading.property is TrustProperty.ACCURACY
        assert reading.timestamp == 42.0
        assert reading.model_version == 3
        assert 0.9 <= reading.value <= 1.0

    def test_details_contain_all_metrics(self, context):
        reading = PerformanceSensor().measure(context)
        assert set(reading.details) == {"accuracy", "precision", "recall", "f1"}

    def test_headline_metric_selectable(self, context):
        reading = PerformanceSensor(headline="recall").measure(context)
        assert reading.value == pytest.approx(reading.details["recall"])

    def test_invalid_headline_raises(self):
        with pytest.raises(ValueError):
            PerformanceSensor(headline="auc")

    def test_missing_model_raises(self):
        with pytest.raises(ValueError):
            PerformanceSensor().measure(ModelContext())


class TestDataQualitySensor:
    def test_clean_data_scores_one(self, context):
        reading = DataQualitySensor().measure(context)
        assert reading.value == 1.0
        assert reading.details["missing_fraction"] == 0.0

    def test_duplicates_penalised(self, trained_mlp):
        X = np.vstack([np.ones((5, 2)), np.zeros((5, 2))])
        ctx = ModelContext(model=trained_mlp, X_train=X)
        reading = DataQualitySensor().measure(ctx)
        assert reading.details["duplicate_fraction"] == pytest.approx(0.8)
        assert reading.value < 1.0

    def test_missing_values_penalised(self, trained_mlp):
        X = np.array([[1.0, np.nan], [2.0, 3.0]])
        ctx = ModelContext(model=trained_mlp, X_train=X)
        reading = DataQualitySensor().measure(ctx)
        assert reading.details["missing_fraction"] == pytest.approx(0.25)

    def test_requires_training_data(self):
        with pytest.raises(ValueError):
            DataQualitySensor().measure(ModelContext())


class TestFairnessSensor:
    def test_reading_in_range(self, context):
        reading = FairnessSensor().measure(context)
        assert 0.0 <= reading.value <= 1.0
        assert "dpd" in reading.details

    def test_requires_sensitive_attribute(self, context):
        context_no_groups = ModelContext(
            model=context.model, X_test=context.X_test
        )
        with pytest.raises(ValueError):
            FairnessSensor().measure(context_no_groups)


class TestResilienceSensor:
    def test_wraps_assessment(self, context):
        def assess(ctx):
            return ResilienceReport(kind="evasion", impact=0.3, complexity=37.9)

        reading = ResilienceSensor("evasion_probe", assess).measure(context)
        assert reading.property is TrustProperty.RESILIENCE
        assert reading.value == pytest.approx(0.7)
        assert reading.details["impact"] == 0.3
        assert reading.details["complexity"] == 37.9
        assert reading.details["kind_is_evasion"] == 1.0


@pytest.fixture(scope="module")
def forest_context():
    """The ``monitor-ingest`` benchmark's sensor fixture: a 10-tree,
    depth-6 forest on the seed-7 data."""
    gen = np.random.default_rng(7)
    X = gen.normal(size=(600, 6))
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(int)
    model = RandomForestClassifier(n_estimators=10, max_depth=6, seed=0)
    return ModelContext(
        model=model.fit(X[:400], y[:400]),
        X_train=X[:400],
        y_train=y[:400],
        X_test=X[400:],
        y_test=y[400:],
    )


class TestExplanationSensor:
    def test_details_are_mean_abs_per_row_shap_bitwise(
        self, forest_context, monkeypatch
    ):
        """``details`` hold the mean |per-row ``shap_values``| of the
        sampled rows, bit for bit."""
        calls = []

        class Spy(sensors.KernelShapExplainer):
            def mean_abs_importance(self, X, class_index):
                calls.append((self, X, class_index))
                return super().mean_abs_importance(X, class_index)

        monkeypatch.setattr(sensors, "KernelShapExplainer", Spy)
        reading = ExplanationSensor().measure(forest_context)
        [(explainer, rows, class_index)] = calls
        per_row = np.stack([explainer.shap_values(x, class_index) for x in rows])
        want = np.abs(per_row).mean(axis=0)
        assert reading.details == {f"f{i}": float(v) for i, v in enumerate(want)}

    def test_details_hold_feature_importances(self, context):
        sensor = ExplanationSensor(
            n_instances=4, n_background=10, n_coalitions=32, class_index=1
        )
        reading = sensor.measure(context)
        assert reading.property is TrustProperty.ACCOUNTABILITY
        assert len(reading.details) == context.X_test.shape[1]
        assert 0.0 <= reading.value <= 1.0

    def test_feature_names_used(self, context):
        names = tuple(f"feat_{i}" for i in range(context.X_test.shape[1]))
        sensor = ExplanationSensor(
            n_instances=2, n_background=8, n_coalitions=32, feature_names=names
        )
        reading = sensor.measure(context)
        assert set(reading.details) == set(names)

    def test_requires_background(self, context):
        ctx = ModelContext(model=context.model, X_test=context.X_test)
        with pytest.raises(ValueError):
            ExplanationSensor().measure(ctx)


class TestExplanationDriftSensor:
    def test_reading(self, context):
        sensor = ExplanationDriftSensor(
            n_instances=8, n_background=10, n_coalitions=32, k=3, class_index=1
        )
        reading = sensor.measure(context)
        assert reading.property is TrustProperty.EXPLAINABILITY
        assert 0.0 < reading.value <= 1.0
        assert reading.details["dissimilarity"] >= 0.0

    def test_focus_label_filters(self, context):
        sensor = ExplanationDriftSensor(
            n_instances=6,
            n_background=10,
            n_coalitions=32,
            k=3,
            class_index=1,
            focus_label=1,
        )
        reading = sensor.measure(context)
        assert reading.value > 0.0

    def test_too_few_focus_instances_raises(self, context):
        tiny = ModelContext(
            model=context.model,
            X_train=context.X_train,
            X_test=context.X_test[:3],
            y_test=context.y_test[:3],
        )
        with pytest.raises(ValueError):
            ExplanationDriftSensor(k=5).measure(tiny)


class TestLimeExplanationSensor:
    def test_reading_fields(self, context):
        sensor = LimeExplanationSensor(n_instances=4, n_samples=100, class_index=1)
        reading = sensor.measure(context)
        assert reading.property is TrustProperty.ACCOUNTABILITY
        assert 0.0 <= reading.value <= 1.0
        assert len(reading.details) == context.X_test.shape[1]

    def test_feature_names(self, context):
        names = tuple(f"x{i}" for i in range(context.X_test.shape[1]))
        sensor = LimeExplanationSensor(
            n_instances=2, n_samples=100, feature_names=names
        )
        reading = sensor.measure(context)
        assert set(reading.details) == set(names)

    def test_requires_training_data(self, context):
        ctx = ModelContext(model=context.model, X_test=context.X_test)
        with pytest.raises(ValueError):
            LimeExplanationSensor().measure(ctx)


class TestPrivacySensor:
    def test_reading_fields(self, context):
        reading = PrivacySensor(n_samples=40).measure(context)
        assert reading.property is TrustProperty.PRIVACY
        assert 0.0 <= reading.value <= 1.0
        assert "membership_advantage" in reading.details

    def test_well_generalising_model_scores_high(self, context):
        reading = PrivacySensor(n_samples=60).measure(context)
        assert reading.value > 0.6

    def test_requires_data(self, context):
        with pytest.raises(ValueError):
            PrivacySensor().measure(ModelContext(model=context.model))

    def test_invalid_n_samples(self):
        with pytest.raises(ValueError):
            PrivacySensor(n_samples=1)


class TestImageExplanationSensor:
    @pytest.fixture()
    def image_context(self, shape_images):
        from repro.core.sensors import ImageExplanationSensor  # noqa: F401
        from repro.ml import MLPClassifier

        images, labels = shape_images
        X = images.reshape(len(images), -1)
        model = MLPClassifier(
            hidden_layers=(32,), n_epochs=30, learning_rate=0.01, seed=0
        ).fit(X, labels)

        def predict(batch):
            batch = np.asarray(batch)
            return model.predict_proba(batch.reshape(len(batch), -1))

        return ModelContext(
            model=model,
            extras={"images": images, "image_predict_fn": predict},
        )

    def test_reading(self, image_context):
        from repro.core.sensors import ImageExplanationSensor

        sensor = ImageExplanationSensor(n_images=2, window=4)
        reading = sensor.measure(image_context)
        assert 0.0 <= reading.value <= 1.0
        assert reading.details["n_images"] == 2.0

    def test_requires_images(self):
        from repro.core.sensors import ImageExplanationSensor

        with pytest.raises(ValueError):
            ImageExplanationSensor().measure(ModelContext())

    def test_rejects_flat_batch(self, image_context):
        from repro.core.sensors import ImageExplanationSensor

        bad = ModelContext(
            extras={
                "images": np.zeros((4, 16)),
                "image_predict_fn": image_context.extras["image_predict_fn"],
            }
        )
        with pytest.raises(ValueError):
            ImageExplanationSensor().measure(bad)


class TestSensorBasics:
    def test_empty_name_raises(self):
        with pytest.raises(ValueError):
            PerformanceSensor(name="")

    def test_value_clipped_to_unit_interval(self, context):
        def assess(ctx):
            return ResilienceReport(kind="evasion", impact=-0.5, complexity=0.0)

        reading = ResilienceSensor("weird", assess).measure(context)
        assert reading.value == 1.0
