"""Gradient-boosted decision trees — the LightGBM / XGBoost stand-ins.

Use case 2 trains "NN, LightGBM and XGBoost" classifiers on the network
traffic dataset.  Offline we cannot ship those libraries, so this module
provides a single boosted-trees implementation with two presets that mirror
the libraries' main algorithmic split:

* ``lightgbm_like()`` — leaf-wise (best-first) tree growth with a leaf cap,
* ``xgboost_like()``  — level-wise growth with L2-regularised Newton leaves.

Both optimise multi-class softmax cross-entropy with one regression tree per
class per round, exactly the scheme the real libraries use.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ml.flattree import FlatForest
from repro.ml.linear import softmax
from repro.ml.model import Classifier, check_Xy, encode_labels, one_hot
from repro.ml.tree import DecisionTreeRegressor


class GradientBoostedTreesClassifier(Classifier):
    """Multi-class gradient boosting over regression trees.

    Parameters
    ----------
    n_estimators:
        Boosting rounds (each round fits one tree per class).
    learning_rate:
        Shrinkage applied to every tree's contribution.
    max_depth:
        Depth cap of each weak learner.
    max_leaves:
        Leaf cap used when ``growth == "leaf"`` (LightGBM-style).
    growth:
        ``"level"`` (XGBoost-style) or ``"leaf"`` (LightGBM-style).
    l2:
        L2 regularisation on leaf values (Newton denominator).
    subsample:
        Row-sampling fraction per round (stochastic gradient boosting).
    min_samples_leaf:
        Minimum rows per leaf in the weak learners.
    seed:
        RNG seed for row subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 40,
        learning_rate: float = 0.2,
        max_depth: int = 3,
        max_leaves: Optional[int] = None,
        growth: str = "level",
        l2: float = 1.0,
        subsample: float = 1.0,
        min_samples_leaf: int = 5,
        seed: int = 0,
    ) -> None:
        self._record_params(locals())
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if growth not in {"level", "leaf"}:
            raise ValueError(f"unknown growth {growth!r}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.max_leaves = max_leaves
        self.growth = growth
        self.l2 = l2
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.classes_ = np.empty(0)
        self.trees_: List[List[DecisionTreeRegressor]] = []
        self.base_score_: Optional[np.ndarray] = None
        self._flat_forest: Optional[FlatForest] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTreesClassifier":
        X, y = check_Xy(X, y)
        self.classes_, y_idx = encode_labels(y)
        n_samples = X.shape[0]
        n_classes = len(self.classes_)
        targets = one_hot(y_idx, n_classes)
        # log-prior initial scores keep skewed datasets (304/34/44) calibrated
        prior = np.clip(targets.mean(axis=0), 1e-6, None)
        self.base_score_ = np.log(prior)
        scores = np.tile(self.base_score_, (n_samples, 1))
        rng = np.random.default_rng(self.seed)
        self.trees_ = []
        self._flat_forest = None
        for __ in range(self.n_estimators):
            probs = softmax(scores)
            gradients = targets - probs  # negative gradient of CE loss
            hessians = probs * (1.0 - probs)
            if self.subsample < 1.0:
                n_sub = max(2 * self.min_samples_leaf, int(n_samples * self.subsample))
                rows = rng.choice(n_samples, size=min(n_sub, n_samples), replace=False)
            else:
                rows = np.arange(n_samples)
            round_trees: List[DecisionTreeRegressor] = []
            for c in range(n_classes):
                tree = DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    max_leaves=self.max_leaves,
                    growth=self.growth,
                    l2=self.l2,
                )
                tree.fit(X[rows], gradients[rows, c], hessians[rows, c])
                scores[:, c] += self.learning_rate * tree.predict(X)
                round_trees.append(tree)
            self.trees_.append(round_trees)
        return self

    @property
    def flat_forest_(self) -> FlatForest:
        """Every weak learner in one compiled arena (lazy, cached).

        Trees enter in round-major / class-minor order with leaf values
        pre-scaled by the learning rate and mapped into their class
        column, so arena accumulation reproduces the reference's
        ``scores[:, c] += lr * tree.predict(X)`` additions exactly.
        """
        if not self.trees_:
            raise RuntimeError("model used before fit()")
        n_weak = sum(len(r) for r in self.trees_)
        if self._flat_forest is None or self._flat_forest.n_trees != n_weak:
            flats, columns, scales = [], [], []
            for round_trees in self.trees_:
                for c, tree in enumerate(round_trees):
                    flats.append(tree.flat_)
                    columns.append(np.array([c]))
                    scales.append(self.learning_rate)
            self._flat_forest = FlatForest.from_trees(
                flats,
                width=len(self.trees_[0]),
                columns=columns,
                scales=scales,
            )
        return self._flat_forest

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw additive scores per class before the softmax link.

        All weak learners are evaluated at once by the compiled
        :class:`~repro.ml.flattree.FlatForest` (the bitvector leaf kernel
        when every tree has at most 64 leaves, as both presets' do, and the
        rank tables stay within their size bound); the accumulation order
        (round-major, class-minor, starting from the base score) matches
        the recursive reference bit for bit.
        """
        if not self.trees_ or self.base_score_ is None:
            raise RuntimeError("model used before fit()")
        X = np.asarray(X, dtype=np.float64)
        scores = np.tile(self.base_score_, (X.shape[0], 1))
        return self.flat_forest_.accumulate(X, scores)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.decision_function(X))

    @property
    def n_trees(self) -> int:
        """Total weak learners across all rounds and classes."""
        return sum(len(r) for r in self.trees_)


def lightgbm_like(
    n_estimators: int = 40,
    learning_rate: float = 0.2,
    max_leaves: int = 15,
    seed: int = 0,
    **kwargs,
) -> GradientBoostedTreesClassifier:
    """LightGBM-flavoured preset: leaf-wise growth, leaf-count cap."""
    return GradientBoostedTreesClassifier(
        n_estimators=n_estimators,
        learning_rate=learning_rate,
        max_depth=8,
        max_leaves=max_leaves,
        growth="leaf",
        l2=0.5,
        seed=seed,
        **kwargs,
    )


def xgboost_like(
    n_estimators: int = 40,
    learning_rate: float = 0.2,
    max_depth: int = 4,
    seed: int = 0,
    **kwargs,
) -> GradientBoostedTreesClassifier:
    """XGBoost-flavoured preset: level-wise growth, stronger L2."""
    return GradientBoostedTreesClassifier(
        n_estimators=n_estimators,
        learning_rate=learning_rate,
        max_depth=max_depth,
        growth="level",
        l2=1.0,
        seed=seed,
        **kwargs,
    )
