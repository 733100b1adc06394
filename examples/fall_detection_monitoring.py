#!/usr/bin/env python3
"""Use case 1: the medical e-calling application, monitored by SPATIAL.

Reproduces the Fig. 6 story interactively:

1. train the five paper models and report clean baselines;
2. poison the training labels at increasing rates and watch
   accuracy/precision/recall degrade;
3. detect the poisoning with the SHAP-dissimilarity sensor (Fig. 6a-iv);
4. let the operator react with label sanitisation and verify recovery.

Run:  python examples/fall_detection_monitoring.py
"""

import numpy as np

from repro.attacks import RandomLabelFlippingAttack
from repro.core.feedback import sanitize_labels_knn
from repro.datasets import generate_unimib_like, to_binary_fall_task
from repro.ml import (
    DNNClassifier,
    DecisionTreeClassifier,
    LogisticRegressionClassifier,
    MLPClassifier,
    RandomForestClassifier,
    StandardScaler,
    accuracy_score,
    precision_score,
    recall_score,
    train_test_split,
)
from repro.xai import KernelShapExplainer, knn_explanation_dissimilarity

MODELS = {
    "LR": lambda: LogisticRegressionClassifier(n_epochs=30, seed=0),
    "DT": lambda: DecisionTreeClassifier(max_depth=14, seed=0),
    "RF": lambda: RandomForestClassifier(n_estimators=30, max_depth=14, seed=0),
    "MLP": lambda: MLPClassifier(hidden_layers=(64, 32), n_epochs=40, seed=0),
    "DNN": lambda: DNNClassifier(hidden_layers=(128, 64, 32), n_epochs=40, seed=0),
}


def main() -> None:
    print("generating synthetic UniMiB-SHAR-like data ...")
    dataset = generate_unimib_like(n_samples=3000, seed=0)
    X, y = to_binary_fall_task(dataset)
    X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.25, seed=0)
    scaler = StandardScaler().fit(X_train)
    X_train, X_test = scaler.transform(X_train), scaler.transform(X_test)

    # 1. clean baselines (paper: LR 73, DT 90, RF/MLP/DNN 97)
    print("\n== clean baselines ==")
    for name, factory in MODELS.items():
        model = factory().fit(X_train, y_train)
        print(f"  {name:4s} accuracy={model.score(X_test, y_test):.3f}")

    # 2. label-flipping sweep on the random forest (the resilient model)
    print("\n== label flipping vs RF (paper: stable to ~30%) ==")
    for rate in (0.0, 0.1, 0.3, 0.5):
        result = RandomLabelFlippingAttack(rate=rate, seed=0).apply(
            X_train, y_train
        )
        model = MODELS["RF"]().fit(result.X, result.y)
        y_pred = model.predict(X_test)
        print(
            f"  p={rate:4.0%}  acc={accuracy_score(y_test, y_pred):.3f}"
            f"  prec={precision_score(y_test, y_pred):.3f}"
            f"  rec={recall_score(y_test, y_pred):.3f}"
        )

    # 3. SHAP-dissimilarity poisoning detector on the DNN (Fig. 6a-iv)
    print("\n== SHAP dissimilarity detector (rises with poison rate) ==")
    falls = X_test[y_test == 1][:15]
    for rate in (0.0, 0.2, 0.5):
        result = RandomLabelFlippingAttack(rate=rate, seed=0).apply(
            X_train, y_train
        )
        model = MLPClassifier(
            hidden_layers=(32,), n_epochs=25, learning_rate=0.01, seed=0
        ).fit(result.X, result.y)
        explainer = KernelShapExplainer(
            model.predict_proba, X_train[:30], n_coalitions=48, seed=0
        )
        explanations = explainer.shap_values_batch_exact(falls, class_index=1)
        metric = knn_explanation_dissimilarity(falls, explanations, k=5)
        print(f"  p={rate:4.0%}  dissimilarity={metric:.4f}")

    # 4. operator countermeasure: label sanitisation
    print("\n== operator reaction: kNN label sanitisation at p=30% ==")
    poisoned = RandomLabelFlippingAttack(rate=0.3, seed=0).apply(X_train, y_train)
    before = MODELS["DT"]().fit(poisoned.X, poisoned.y).score(X_test, y_test)
    repaired_labels = sanitize_labels_knn(poisoned.X, poisoned.y, k=7, threshold=0.7)
    after = MODELS["DT"]().fit(poisoned.X, repaired_labels).score(X_test, y_test)
    flipped_remaining = int(np.sum(repaired_labels != y_train))
    print(f"  DT accuracy poisoned:   {before:.3f}")
    print(f"  DT accuracy sanitised:  {after:.3f}")
    print(f"  labels still wrong:     {flipped_remaining}/{len(y_train)}")


if __name__ == "__main__":
    main()
