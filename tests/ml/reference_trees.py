"""Recursive tree walks — the equivalence oracles for the flat kernels.

This module preserves, essentially verbatim, the per-node recursive
evaluation paths ``repro.ml`` used before its trees compiled to flat
arrays (``FlatTree``/``FlatForest``): the decision-tree walks (the two
``_route`` recursions), the random forest's per-tree averaging and the
gradient-boosted ensemble's per-round accumulation, each as a function
of the fitted model.

Consumers:

* ``tests/ml/test_flattree.py`` — the flat kernels must agree with
  these walks bitwise (``np.array_equal``);
* ``benchmarks/bench_inference.py``, which measures the flat forest's
  speedup against the recursive forest and feeds the recursive forest
  to the seed SHAP pipeline.

They are deliberately unoptimised, which is why they live with the tests
rather than in the shipped package (as ``tests/xai/reference_shap.py``
holds the SHAP oracles).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "forest_predict_proba_recursive",
    "gbdt_decision_function_recursive",
    "regressor_predict_recursive",
    "tree_predict_proba_recursive",
]


def tree_predict_proba_recursive(tree, X: np.ndarray) -> np.ndarray:
    """``DecisionTreeClassifier``'s recursive reference walk."""
    if not tree.nodes_:
        raise RuntimeError("model used before fit()")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.n_features_:
        raise ValueError(
            f"expected (n, {tree.n_features_}) input, got {X.shape}"
        )
    out = np.empty((X.shape[0], len(tree.classes_)))
    _route_proba(tree, X, np.arange(X.shape[0]), 0, out)
    return out


def _route_proba(
    tree, X: np.ndarray, idx: np.ndarray, node_id: int, out: np.ndarray
) -> None:
    node = tree.nodes_[node_id]
    if node.is_leaf:
        out[idx] = node.value
        return
    go_left = X[idx, node.feature] <= node.threshold
    if go_left.any():
        _route_proba(tree, X, idx[go_left], node.left, out)
    if (~go_left).any():
        _route_proba(tree, X, idx[~go_left], node.right, out)


def regressor_predict_recursive(tree, X: np.ndarray) -> np.ndarray:
    """``DecisionTreeRegressor``'s recursive reference walk."""
    if not tree.nodes_:
        raise RuntimeError("model used before fit()")
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0])
    _route_value(tree, X, np.arange(X.shape[0]), 0, out)
    return out


def _route_value(
    tree, X: np.ndarray, idx: np.ndarray, node_id: int, out: np.ndarray
) -> None:
    node = tree.nodes_[node_id]
    if node.is_leaf:
        out[idx] = node.value[0]
        return
    go_left = X[idx, node.feature] <= node.threshold
    if go_left.any():
        _route_value(tree, X, idx[go_left], node.left, out)
    if (~go_left).any():
        _route_value(tree, X, idx[~go_left], node.right, out)


def forest_predict_proba_recursive(forest, X: np.ndarray) -> np.ndarray:
    """``RandomForestClassifier``'s per-node recursive reference path."""
    if not forest.trees_:
        raise RuntimeError("model used before fit()")
    X = np.asarray(X, dtype=np.float64)
    n_classes = len(forest.classes_)
    total = np.zeros((X.shape[0], n_classes))
    for tree in forest.trees_:
        proba = tree_predict_proba_recursive(tree, X)
        cols = tree.classes_.astype(int)
        total[:, cols] += proba
    return total / len(forest.trees_)


def gbdt_decision_function_recursive(gbdt, X: np.ndarray) -> np.ndarray:
    """``GradientBoostedTreesClassifier``'s per-node recursive reference
    path."""
    if not gbdt.trees_ or gbdt.base_score_ is None:
        raise RuntimeError("model used before fit()")
    X = np.asarray(X, dtype=np.float64)
    scores = np.tile(gbdt.base_score_, (X.shape[0], 1))
    for round_trees in gbdt.trees_:
        for c, tree in enumerate(round_trees):
            scores[:, c] += gbdt.learning_rate * regressor_predict_recursive(
                tree, X
            )
    return scores
