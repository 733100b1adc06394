"""Random forest: bagged CART trees with per-node feature subsampling.

The paper singles out the random forest as the model most resilient to label
flipping (holding ~93 % accuracy at a 30 % poison rate).  That robustness
comes from bootstrap aggregation — each tree sees a different bootstrap sample
and the majority vote averages the corrupted minority out — and this
implementation reproduces exactly that mechanism.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ml.flattree import FlatForest
from repro.ml.model import Classifier, check_Xy, encode_labels
from repro.ml.tree import DecisionTreeClassifier


class RandomForestClassifier(Classifier):
    """Bootstrap-aggregated decision trees with soft (probability) voting.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth / min_samples_leaf / criterion:
        Passed through to each tree.
    max_features:
        Features sampled per node; ``None`` means ``round(sqrt(n_features))``.
    bootstrap:
        Draw each tree's training set with replacement (n samples).
    seed:
        Seeds the per-tree bootstraps and feature subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 1,
        criterion: str = "gini",
        max_features: Optional[int] = None,
        bootstrap: bool = True,
        seed: int = 0,
    ) -> None:
        self._record_params(locals())
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.criterion = criterion
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees_: List[DecisionTreeClassifier] = []
        self.classes_ = np.empty(0)
        self._flat_forest: Optional[FlatForest] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X, y = check_Xy(X, y)
        self.classes_, y_idx = encode_labels(y)
        n_samples, n_features = X.shape
        max_features = self.max_features
        if max_features is None:
            max_features = max(1, int(round(np.sqrt(n_features))))
        rng = np.random.default_rng(self.seed)
        self.trees_ = []
        self._flat_forest = None
        for t in range(self.n_estimators):
            if self.bootstrap:
                idx = rng.integers(0, n_samples, size=n_samples)
            else:
                idx = np.arange(n_samples)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                criterion=self.criterion,
                max_features=max_features,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            # Trees index into the forest's class set so votes always align,
            # even when a bootstrap misses a rare class.
            tree.fit(X[idx], y_idx[idx])
            self.trees_.append(tree)
        return self

    @property
    def flat_forest_(self) -> FlatForest:
        """All trees as one compiled arena (built lazily, cached)."""
        if not self.trees_:
            raise RuntimeError("model used before fit()")
        if (
            self._flat_forest is None
            or self._flat_forest.n_trees != len(self.trees_)
        ):
            self._flat_forest = FlatForest.from_trees(
                [tree.flat_ for tree in self.trees_],
                width=len(self.classes_),
                # map each tree's (integer-coded) classes into forest columns
                columns=[tree.classes_.astype(int) for tree in self.trees_],
            )
        return self._flat_forest

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Soft vote through the compiled :class:`~repro.ml.flattree.FlatForest`.

        Forests whose trees all have at most 64 leaves find every row's
        leaves with the bitvector leaf kernel (one rank per used feature
        and an AND of table rows, in chunks of 1,024-4,096 rows); deeper
        forests, or ones whose rank tables would be too large, advance all
        trees in one ``max_depth``-step traversal.  Either way the
        accumulation stays *sequential* per tree — with zeros in the class
        columns a bootstrap never saw — so the float summation order, and
        therefore the output bit for bit, matches the recursive reference.
        """
        if not self.trees_:
            raise RuntimeError("model used before fit()")
        X = np.asarray(X, dtype=np.float64)
        total = np.zeros((X.shape[0], len(self.classes_)))
        self.flat_forest_.accumulate(X, total)
        return total / len(self.trees_)

    def feature_importances(self) -> np.ndarray:
        """Mean split-frequency importance across trees (sums to 1)."""
        if not self.trees_:
            raise RuntimeError("model used before fit()")
        n_features = self.trees_[0].n_features_
        counts = np.zeros(n_features)
        for tree in self.trees_:
            for node in tree.nodes_:
                if not node.is_leaf:
                    counts[node.feature] += node.n_samples
        total = counts.sum()
        return counts / total if total > 0 else counts
