"""AI sensors: software probes that quantify one trustworthy property each.

"AI sensors are software-based (aka virtual sensors) and are instrumented
within the source code of an application to monitor specific parts of its
code execution … Thus, AI sensors can be considered APIs" (§IV).  Every
sensor here follows that contract: it is a callable probe over a
:class:`ModelContext` that returns a typed :class:`SensorReading`, suitable
for periodic polling by the continuous monitor and for remote execution as
a micro-service request.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.ml.metrics import (
    accuracy_score,
    f1_score,
    precision_score,
    recall_score,
)
from repro.ml.model import Classifier
from repro.trust.fairness import demographic_parity_difference
from repro.trust.properties import TrustProperty
from repro.trust.resilience import ResilienceReport
from repro.xai.shap import KernelShapExplainer
from repro.xai.similarity import knn_explanation_dissimilarity


@dataclass
class ModelContext:
    """Everything a sensor may probe: the model plus its data environment.

    Mirrors the paper's observation that "the trustworthy analysis is
    applied over the model and data" — a sensor never needs more than this.
    """

    model: Optional[Classifier] = None
    X_train: Optional[np.ndarray] = None
    y_train: Optional[np.ndarray] = None
    X_test: Optional[np.ndarray] = None
    y_test: Optional[np.ndarray] = None
    sensitive: Optional[np.ndarray] = None  # per-test-row group attribute
    model_version: int = 0
    extras: Dict[str, object] = field(default_factory=dict)


@dataclass
class SensorReading:
    """One timestamped measurement of one trustworthy property.

    ``value`` is normalised to [0, 1] with 1 = fully trustworthy, so the
    dashboard can aggregate readings across heterogeneous sensors; the raw
    metric lands in ``details``.
    """

    sensor: str
    property: TrustProperty
    value: float
    timestamp: float
    model_version: int = 0
    details: Dict[str, float] = field(default_factory=dict)
    #: Exception class name when the measurement failed and the registry
    #: substituted a fault-isolation reading; ``None`` for real readings.
    error: Optional[str] = None

    @classmethod
    def from_event(cls, event) -> "SensorReading":
        """Rebuild the reading a telemetry event was derived from.

        Inverse of :meth:`repro.telemetry.events.TelemetryEvent.from_reading`
        — this is what lets a crashed dashboard be rebuilt from a WAL
        replay.  It lives here rather than on the event because telemetry
        is a bottom-layer substrate: it must not know the core types built
        on top of it (see the layering contract in
        :mod:`repro.analysis.contracts`).
        """
        if event.kind != "sensor_reading":
            raise ValueError(
                f"cannot build a SensorReading from a {event.kind!r} event"
            )
        return cls(
            sensor=event.source,
            property=TrustProperty(event.labels["property"]),
            value=event.value,
            timestamp=event.timestamp,
            model_version=int(event.labels.get("model_version", "0")),
            details=dict(event.attrs),
            error=event.labels.get("error"),
        )


Clock = Callable[[], float]


class AISensor(ABC):
    """Base sensor: a named probe for one trustworthy property.

    Parameters
    ----------
    name:
        Unique sensor identifier (used as the dashboard series key).
    clock:
        Injectable time source (defaults to ``time.time``); experiments and
        tests inject logical clocks for determinism.
    """

    property: TrustProperty

    def __init__(self, name: str, clock: Optional[Clock] = None) -> None:
        if not name:
            raise ValueError("sensor name must be non-empty")
        self.name = name
        self._clock = clock or time.time

    def _reading(
        self,
        value: float,
        context: ModelContext,
        details: Optional[Dict[str, float]] = None,
    ) -> SensorReading:
        return SensorReading(
            sensor=self.name,
            property=self.property,
            value=float(np.clip(value, 0.0, 1.0)),
            timestamp=self._clock(),
            model_version=context.model_version,
            details=details or {},
        )

    def error_reading(
        self, context: ModelContext, exc: BaseException
    ) -> SensorReading:
        """A failed measurement as data: value 0.0 + the exception class.

        The registry substitutes this when :meth:`measure` raises, so one
        broken sensor degrades to a flagged zero-trust reading instead of
        aborting the whole monitoring round.
        """
        return SensorReading(
            sensor=self.name,
            property=self.property,
            value=0.0,
            timestamp=self._clock(),
            model_version=context.model_version,
            details={"error": 1.0},
            error=type(exc).__name__,
        )

    @abstractmethod
    def measure(self, context: ModelContext) -> SensorReading:
        """Take one measurement against the current model/data state."""


class PerformanceSensor(AISensor):
    """Accuracy/precision/recall/F1 on the held-out test split.

    The paper's "AI pipeline micro-service that provides performance
    indicators".  ``value`` is the chosen headline metric.
    """

    property = TrustProperty.ACCURACY

    def __init__(
        self,
        name: str = "performance",
        headline: str = "accuracy",
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(name, clock)
        if headline not in {"accuracy", "precision", "recall", "f1"}:
            raise ValueError(f"unknown headline metric {headline!r}")
        self.headline = headline

    def measure(self, context: ModelContext) -> SensorReading:
        if context.model is None or context.X_test is None or context.y_test is None:
            raise ValueError("performance sensor needs a model and a test split")
        y_pred = context.model.predict(context.X_test)
        metrics = {
            "accuracy": accuracy_score(context.y_test, y_pred),
            "precision": precision_score(context.y_test, y_pred),
            "recall": recall_score(context.y_test, y_pred),
            "f1": f1_score(context.y_test, y_pred),
        }
        return self._reading(metrics[self.headline], context, details=metrics)


class ExplanationSensor(AISensor):
    """Global SHAP feature importances (the accountability sensor).

    ``value`` is the share of total importance captured by the single top
    feature — a concentration measure; the full per-feature mean |SHAP|
    vector is shipped in ``details`` for the dashboard's ranking panel.
    """

    property = TrustProperty.ACCOUNTABILITY

    def __init__(
        self,
        name: str = "shap_explanation",
        class_index: int = 0,
        n_instances: int = 10,
        n_background: int = 30,
        n_coalitions: int = 64,
        feature_names: Optional[tuple] = None,
        seed: int = 0,
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(name, clock)
        self.class_index = class_index
        self.n_instances = n_instances
        self.n_background = n_background
        self.n_coalitions = n_coalitions
        self.feature_names = feature_names
        self.seed = seed

    def measure(self, context: ModelContext) -> SensorReading:
        if context.model is None or context.X_test is None:
            raise ValueError("explanation sensor needs a model and test data")
        if context.X_train is None:
            raise ValueError("explanation sensor needs training data as background")
        rng = np.random.default_rng(self.seed)
        bg_count = min(self.n_background, context.X_train.shape[0])
        background = context.X_train[
            rng.choice(context.X_train.shape[0], size=bg_count, replace=False)
        ]
        n_expl = min(self.n_instances, context.X_test.shape[0])
        rows = context.X_test[
            rng.choice(context.X_test.shape[0], size=n_expl, replace=False)
        ]
        explainer = KernelShapExplainer(
            context.model.predict_proba,
            background,
            n_coalitions=self.n_coalitions,
            seed=self.seed,
        )
        importances = explainer.mean_abs_importance(rows, self.class_index)
        total = importances.sum()
        concentration = float(importances.max() / total) if total > 0 else 0.0
        names = self.feature_names or tuple(
            f"f{i}" for i in range(len(importances))
        )
        details = {str(n): float(v) for n, v in zip(names, importances)}
        return self._reading(concentration, context, details=details)


class LimeExplanationSensor(AISensor):
    """LIME-backed accountability probe (the paper's LIME micro-service).

    Same role as :class:`ExplanationSensor` with the LIME surrogate instead
    of Kernel SHAP: per-feature mean |coefficient| over a sample of test
    rows; ``value`` is the top-feature share of total importance.
    """

    property = TrustProperty.ACCOUNTABILITY

    def __init__(
        self,
        name: str = "lime_explanation",
        class_index: int = 0,
        n_instances: int = 10,
        n_samples: int = 300,
        feature_names: Optional[tuple] = None,
        seed: int = 0,
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(name, clock)
        self.class_index = class_index
        self.n_instances = n_instances
        self.n_samples = n_samples
        self.feature_names = feature_names
        self.seed = seed

    def measure(self, context: ModelContext) -> SensorReading:
        from repro.xai.lime import LimeTabularExplainer

        if context.model is None or context.X_test is None:
            raise ValueError("LIME sensor needs a model and test data")
        if context.X_train is None:
            raise ValueError("LIME sensor needs training data for scaling")
        rng = np.random.default_rng(self.seed)
        explainer = LimeTabularExplainer(
            context.model.predict_proba,
            context.X_train,
            n_samples=self.n_samples,
            seed=self.seed,
        )
        take = min(self.n_instances, context.X_test.shape[0])
        rows = context.X_test[
            rng.choice(context.X_test.shape[0], size=take, replace=False)
        ]
        coefs = np.abs(
            np.array([explainer.explain(x, self.class_index) for x in rows])
        ).mean(axis=0)
        total = coefs.sum()
        concentration = float(coefs.max() / total) if total > 0 else 0.0
        names = self.feature_names or tuple(f"f{i}" for i in range(len(coefs)))
        details = {str(n): float(v) for n, v in zip(names, coefs)}
        return self._reading(concentration, context, details=details)


class ExplanationDriftSensor(AISensor):
    """SHAP-dissimilarity of near-neighbour explanations (Fig. 6a-iv).

    Rising dissimilarity flags poisoning: a corrupted model explains similar
    inputs inconsistently.  ``value`` is ``1/(1 + dissimilarity)`` so 1
    still means trustworthy; the raw metric is in ``details``.
    """

    property = TrustProperty.EXPLAINABILITY

    def __init__(
        self,
        name: str = "explanation_drift",
        class_index: int = 1,
        focus_label=None,
        k: int = 5,
        n_instances: int = 20,
        n_background: int = 30,
        n_coalitions: int = 64,
        seed: int = 0,
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(name, clock)
        self.class_index = class_index
        self.focus_label = focus_label
        self.k = k
        self.n_instances = n_instances
        self.n_background = n_background
        self.n_coalitions = n_coalitions
        self.seed = seed

    def measure(self, context: ModelContext) -> SensorReading:
        if (
            context.model is None
            or context.X_test is None
            or context.X_train is None
        ):
            raise ValueError("explanation-drift sensor needs model, train and test")
        X = context.X_test
        if self.focus_label is not None:
            if context.y_test is None:
                raise ValueError("focus_label requires y_test")
            X = X[context.y_test == self.focus_label]
        needed = self.k + 1
        if X.shape[0] < needed:
            raise ValueError(
                f"need at least {needed} focus instances, have {X.shape[0]}"
            )
        rng = np.random.default_rng(self.seed)
        take = min(self.n_instances, X.shape[0])
        rows = X[rng.choice(X.shape[0], size=take, replace=False)]
        bg_count = min(self.n_background, context.X_train.shape[0])
        background = context.X_train[
            rng.choice(context.X_train.shape[0], size=bg_count, replace=False)
        ]
        explainer = KernelShapExplainer(
            context.model.predict_proba,
            background,
            n_coalitions=self.n_coalitions,
            seed=self.seed,
        )
        explanations = explainer.shap_values_batch_exact(rows, self.class_index)
        dissimilarity = knn_explanation_dissimilarity(
            rows, explanations, k=min(self.k, take - 1)
        )
        return self._reading(
            1.0 / (1.0 + dissimilarity),
            context,
            details={"dissimilarity": dissimilarity, "k": float(self.k)},
        )


class ImageExplanationSensor(AISensor):
    """Occlusion-sensitivity probe for image models (the occlusion
    micro-service of Fig. 8(a)).

    Expects ``context.extras["images"]`` — an (n, H, W) batch — and
    ``context.extras["image_predict_fn"]`` mapping such batches to class
    probabilities.  ``value`` is saliency *localisation*: the share of
    total positive occlusion mass inside the top decile of pixels.  A model
    attending to a compact region scores high; diffuse, unfocused saliency
    scores low.
    """

    property = TrustProperty.INTERPRETABILITY

    def __init__(
        self,
        name: str = "occlusion_explanation",
        class_index: int = 0,
        window: int = 4,
        n_images: int = 3,
        seed: int = 0,
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(name, clock)
        self.class_index = class_index
        self.window = window
        self.n_images = n_images
        self.seed = seed

    def measure(self, context: ModelContext) -> SensorReading:
        from repro.xai.occlusion import occlusion_sensitivity

        images = context.extras.get("images")
        predict_fn = context.extras.get("image_predict_fn")
        if images is None or predict_fn is None:
            raise ValueError(
                "image sensor needs extras['images'] and "
                "extras['image_predict_fn']"
            )
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 3 or images.shape[0] == 0:
            raise ValueError("extras['images'] must be a non-empty (n, H, W) batch")
        rng = np.random.default_rng(self.seed)
        take = min(self.n_images, images.shape[0])
        chosen = images[rng.choice(images.shape[0], size=take, replace=False)]
        localisations = []
        mean_drop = 0.0
        for image in chosen:
            heat = occlusion_sensitivity(
                predict_fn, image, self.class_index, window=self.window
            )
            positive = np.clip(heat, 0.0, None).ravel()
            total = positive.sum()
            if total <= 0:
                localisations.append(0.0)
                continue
            k = max(1, int(0.1 * positive.size))
            top = np.sort(positive)[-k:]
            localisations.append(float(top.sum() / total))
            mean_drop += float(heat.max())
        value = float(np.mean(localisations))
        return self._reading(
            value,
            context,
            details={
                "n_images": float(take),
                "mean_peak_drop": mean_drop / max(1, take),
            },
        )


class ResilienceSensor(AISensor):
    """Wraps an impact/complexity assessment into a sensor.

    The assessment callable (e.g. an FGSM-plus-``evasion_resilience`` run,
    or a poisoning drift evaluation) is supplied by the application, because
    resilience probes are attack-specific; the sensor normalises the report
    into the dashboard schema.  ``value`` is ``1 − impact``.
    """

    property = TrustProperty.RESILIENCE

    def __init__(
        self,
        name: str,
        assess: Callable[[ModelContext], ResilienceReport],
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(name, clock)
        self.assess = assess

    def measure(self, context: ModelContext) -> SensorReading:
        report = self.assess(context)
        details = {
            "impact": report.impact,
            "complexity": report.complexity,
            "kind_is_" + report.kind: 1.0,
        }
        details.update(report.details)
        return self._reading(1.0 - report.impact, context, details=details)


class FairnessSensor(AISensor):
    """Demographic-parity fairness over a sensitive attribute.

    ``value`` is ``1 − demographic_parity_difference``.
    """

    property = TrustProperty.FAIRNESS

    def __init__(
        self,
        name: str = "fairness",
        positive_label=1,
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(name, clock)
        self.positive_label = positive_label

    def measure(self, context: ModelContext) -> SensorReading:
        if (
            context.model is None
            or context.X_test is None
            or context.sensitive is None
        ):
            raise ValueError("fairness sensor needs model, test data and groups")
        y_pred = context.model.predict(context.X_test)
        dpd = demographic_parity_difference(
            y_pred, context.sensitive, positive_label=self.positive_label
        )
        return self._reading(1.0 - dpd, context, details={"dpd": dpd})


class PrivacySensor(AISensor):
    """Membership-inference leakage probe (confidentiality, §IV).

    Measures the best-threshold membership advantage between training rows
    (members) and test rows (non-members); ``value`` is ``1 − advantage``,
    so an overfit, leaky model scores low.
    """

    property = TrustProperty.PRIVACY

    def __init__(
        self,
        name: str = "privacy",
        n_samples: int = 100,
        seed: int = 0,
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(name, clock)
        if n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        self.n_samples = n_samples
        self.seed = seed

    def measure(self, context: ModelContext) -> SensorReading:
        from repro.privacy.membership import membership_inference_risk

        if (
            context.model is None
            or context.X_train is None
            or context.X_test is None
        ):
            raise ValueError("privacy sensor needs model, train and test data")
        rng = np.random.default_rng(self.seed)
        n_members = min(self.n_samples, context.X_train.shape[0])
        n_outsiders = min(self.n_samples, context.X_test.shape[0])
        members = context.X_train[
            rng.choice(context.X_train.shape[0], size=n_members, replace=False)
        ]
        outsiders = context.X_test[
            rng.choice(context.X_test.shape[0], size=n_outsiders, replace=False)
        ]
        advantage = membership_inference_risk(context.model, members, outsiders)
        return self._reading(
            1.0 - advantage, context, details={"membership_advantage": advantage}
        )


class DataQualitySensor(AISensor):
    """Raw-data probe: missing values and duplicate rows in the train set.

    §IV: a sensor "can be instrumented to analyze raw input data" — this is
    the collection/cleaning-stage probe.  ``value`` is
    ``1 − (missing_fraction + duplicate_fraction)/2``.
    """

    property = TrustProperty.VALIDITY

    def __init__(
        self, name: str = "data_quality", clock: Optional[Clock] = None
    ) -> None:
        super().__init__(name, clock)

    def measure(self, context: ModelContext) -> SensorReading:
        if context.X_train is None:
            raise ValueError("data-quality sensor needs training data")
        X = np.asarray(context.X_train, dtype=np.float64)
        missing = float(np.mean(np.isnan(X)))
        seen = set()
        duplicates = 0
        for row in X:
            key = row.tobytes()
            if key in seen:
                duplicates += 1
            else:
                seen.add(key)
        duplicate_fraction = duplicates / X.shape[0] if X.shape[0] else 0.0
        penalty = (missing + duplicate_fraction) / 2.0
        return self._reading(
            1.0 - penalty,
            context,
            details={
                "missing_fraction": missing,
                "duplicate_fraction": duplicate_fraction,
                "n_rows": float(X.shape[0]),
            },
        )
